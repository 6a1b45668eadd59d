//! Seeded inputs: the generated tables of each workload (built on
//! `datagen`) and the I-SQL statement streams sent to the engine.
//!
//! Everything here is a pure function of the seed. Statement streams are
//! dealt in *rounds*: each round holds every statement kind in its fixed
//! proportion, shuffled, so any stretch of a stream has the same mix and
//! the medians of its first and last tenth compare like with like.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relalg::{Relation, Schema, Value};

/// Cities that always occur in the generated `Flights`/`Hotels` tables
/// (datagen draws from this pool when it has at least 20 cities).
const CITIES: [&str; 8] = ["FRA", "PAR", "BCN", "ATL", "LHR", "JFK", "SFO", "MUC"];
const SKILLS: [&str; 5] = ["Web", "Java", "SQL", "Rust", "ML"];

/// Departures in the world-query `Flights` table: the two-traveller pair
/// query splits into `DEPARTURES²` ≈ 10³ implicit worlds.
const DEPARTURES: usize = 32;
/// Arrival cities of the world-query `Flights` table (besides `HUB`): the
/// first sixteen of datagen's city pool, so they join with its hotels.
const ARRIVALS: [&str; 16] = [
    "FRA", "PAR", "PHL", "BCN", "ATL", "LHR", "JFK", "SFO", "MUC", "AMS", "MAD", "FCO", "VIE",
    "ZRH", "CPH", "OSL",
];
/// Destinations per departure in the world-query `Flights` table.
const DESTINATIONS: usize = 6;
/// Companies in the acquisition tables.
const COMPANIES: usize = 6;

/// A workload's generated catalog, loaded through `Session::register`
/// and `Session::declare_key`.
#[derive(Clone, Debug)]
pub struct Catalog {
    /// `(name, relation)` in registration order.
    pub tables: Vec<(&'static str, Relation)>,
    /// `(table, key columns)` declarations.
    pub keys: Vec<(&'static str, Vec<&'static str>)>,
}

/// `world_queries`: the Section-2 scenario tables.
pub fn world_catalog(seed: u64) -> Catalog {
    let (company_emp, emp_skills) = datagen::company_skills(seed, COMPANIES);
    Catalog {
        tables: vec![
            ("Flights", balanced_flights(seed)),
            ("Hotels", datagen::hotels(seed, 120, 20)),
            ("Company_Emp", company_emp),
            ("Emp_Skills", emp_skills),
            ("Census", datagen::census(seed, 60, 6)),
            ("Lineitem", datagen::lineitem(seed, 400, 3, 4)),
        ],
        keys: vec![("Hotels", vec!["Name"])],
    }
}

/// The world-query `Flights(Dep, Arr)` table: datagen's shape (every
/// departure also flies to `HUB`), but balanced, so that every seed gives
/// the world-splitting queries the same amount of work. Each departure
/// flies to [`DESTINATIONS`] distinct cities and each city is reached from
/// `DEPARTURES · DESTINATIONS / 16` = 12 departures; the seed decides which
/// departures share which cities. With datagen's independent draws the
/// number of departures into a city varies with the seed, and the pair
/// query's cost with its square: its latency, which is `read_p90_ms`,
/// moved by a quarter from one seed to the next.
fn balanced_flights(seed: u64) -> Relation {
    let mut order: Vec<usize> = (0..DEPARTURES).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x464c_4947_4854));
    let mut rows = Vec::with_capacity(DEPARTURES * (DESTINATIONS + 1));
    for (slot, &d) in order.iter().enumerate() {
        rows.push(vec![Value::str(&dep(d)), Value::str("HUB")]);
        for k in 0..DESTINATIONS {
            let arr = ARRIVALS[(slot * DESTINATIONS + k) % ARRIVALS.len()];
            rows.push(vec![Value::str(&dep(d)), Value::str(arr)]);
        }
    }
    Relation::from_rows(Schema::of(&["Dep", "Arr"]), rows).expect("arity")
}

/// `session_stream`: flights and hotels for short interactive statements.
pub fn stream_catalog(seed: u64) -> Catalog {
    Catalog {
        tables: vec![
            ("Flights", datagen::flights(seed, 40, 20, 8)),
            ("Hotels", datagen::hotels(seed, 400, 20)),
        ],
        keys: vec![("Hotels", vec!["Name"])],
    }
}

/// `durable_writes`: the tables the write-heavy sessions mutate.
pub fn durable_catalog(seed: u64) -> Catalog {
    Catalog {
        tables: vec![
            ("Flights", datagen::flights(seed, 40, 20, 8)),
            ("Hotels", datagen::hotels(seed, 400, 20)),
        ],
        keys: vec![("Hotels", vec!["Name"])],
    }
}

fn dep(i: usize) -> String {
    format!("D{i:03}")
}

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// One `world_queries` statement family: the Section-2 scenario it
/// reproduces, its share of a round, and its seeded variants.
struct Template {
    weight: usize,
    variants: Vec<String>,
}

/// Variants per template. Every distinct statement fits the optimizer
/// memo (256 entries) and the plan cache (1024) together, so the timed
/// loop runs cache-resident.
const VARIANTS: usize = 16;

fn world_templates(rng: &mut StdRng) -> Vec<Template> {
    // `f(i, rng)` builds variant `i`. Constants that change a statement's
    // cost by a large factor (certain vs possible, the number of repairs)
    // follow `i`, so every seed gets the same balance of them; the rest
    // are drawn from the seed.
    let mut variants = |f: &mut dyn FnMut(usize, &mut StdRng) -> String| -> Vec<String> {
        let mut v: Vec<String> = Vec::new();
        while v.len() < VARIANTS {
            let s = f(v.len(), rng);
            if !v.contains(&s) {
                v.push(s);
            }
        }
        v
    };
    let quant = |i: usize| {
        if i.is_multiple_of(2) {
            "certain"
        } else {
            "possible"
        }
    };
    vec![
        // Fig. 2: certain and possible destinations over `choice of Dep`.
        Template {
            weight: 3,
            variants: variants(&mut |i, r| {
                format!(
                    "select {} Arr from Flights where Dep <> '{}' choice of Dep;",
                    quant(i),
                    dep(r.gen_range(0..DEPARTURES))
                )
            }),
        },
        // Two travellers, each choosing a departure: ≈10³ implicit worlds
        // that the factorized engine keeps succinct.
        Template {
            weight: 2,
            variants: variants(&mut |i, r| {
                format!(
                    "select possible A.Dep as First, B.Dep as Second \
                     from (select * from Flights choice of Dep) A, \
                     (select * from Flights choice of Dep) B \
                     where A.Arr = B.Arr and A.Arr = '{}' and B.Dep <> '{}';",
                    CITIES[i % CITIES.len()],
                    dep(r.gen_range(0..DEPARTURES))
                )
            }),
        },
        // Ex. 6.1: flights ⋈ hotels, certain over the departure choice.
        Template {
            weight: 3,
            variants: variants(&mut |_, r| {
                format!(
                    "select certain H.Name from Flights F, Hotels H \
                     where F.Arr = H.City and F.Dep <> '{}' choice of Dep;",
                    dep(r.gen_range(0..DEPARTURES))
                )
            }),
        },
        // Acquisition: one company bought, one employee leaves; skills
        // gained for certain per company (`group worlds by`).
        Template {
            weight: 2,
            variants: variants(&mut |i, r| {
                format!(
                    "select certain V.CID, Skill from (select R1.CID, R1.EID \
                     from Company_Emp R1, (select * from Company_Emp choice of CID, EID) R2 \
                     where R1.CID = R2.CID and R1.EID != R2.EID) V, Emp_Skills \
                     where V.EID = Emp_Skills.EID and Skill <> '{}' and V.CID <> 'C{:03}' \
                     group worlds by V.CID;",
                    SKILLS[i % SKILLS.len()],
                    r.gen_range(0..COMPANIES)
                )
            }),
        },
        // Census cleaning: `repair by key` over 2⁴–2⁶ repairs (the
        // generated census has six duplicated SSNs, 1000–1005).
        Template {
            weight: 2,
            variants: variants(&mut |i, r| {
                let dups = 4 + i % 3;
                format!(
                    "select {} SSN, Name from Census where SSN >= {} and SSN < {} \
                     repair by key SSN;",
                    quant(i / 3),
                    1006 - dups,
                    1030 + r.gen_range(0..30)
                )
            }),
        },
        // TPC-H what-if: revenue per year in every world where one
        // package size disappears.
        Template {
            weight: 2,
            variants: variants(&mut |_, r| {
                format!(
                    "select possible A.Year, sum(A.Price) as Revenue \
                     from (select * from Lineitem choice of Year) as A \
                     where Quantity not in (select * from Lineitem choice of Quantity) \
                     and A.Price > {} group by A.Year;",
                    10 * r.gen_range(0..100)
                )
            }),
        },
    ]
}

/// Deals a weighted mix of statement kinds in shuffled rounds.
struct Rounds {
    rng: StdRng,
    round: Vec<usize>,
    deck: Vec<usize>,
}

impl Rounds {
    fn new(rng: StdRng, weights: &[usize]) -> Rounds {
        let round = weights
            .iter()
            .enumerate()
            .flat_map(|(kind, &w)| std::iter::repeat_n(kind, w))
            .collect();
        Rounds {
            rng,
            round,
            deck: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        if self.deck.is_empty() {
            self.deck = self.round.clone();
            self.deck.shuffle(&mut self.rng);
        }
        self.deck.pop().expect("a round is never empty")
    }
}

/// The `world_queries` stream: indices into a fixed pool of distinct
/// statements.
pub struct WorldQueries {
    pool: Vec<String>,
    by_template: Vec<Vec<usize>>,
    rounds: Rounds,
}

impl WorldQueries {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> WorldQueries {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_4f52_4c44);
        let templates = world_templates(&mut rng);
        let mut pool = Vec::new();
        let mut by_template = Vec::new();
        for t in &templates {
            by_template.push((pool.len()..pool.len() + t.variants.len()).collect());
            pool.extend(t.variants.iter().cloned());
        }
        let weights: Vec<usize> = templates.iter().map(|t| t.weight).collect();
        WorldQueries {
            pool,
            by_template,
            rounds: Rounds::new(rng, &weights),
        }
    }

    /// Every distinct statement the stream can send.
    pub fn pool(&self) -> &[String] {
        &self.pool
    }

    /// The next statement: its kind (scenario) and its index into
    /// [`WorldQueries::pool`].
    pub fn next_request(&mut self) -> (usize, usize) {
        let t = self.rounds.next();
        let variants = &self.by_template[t];
        (t, variants[self.rounds.rng.gen_range(0..variants.len())])
    }
}

/// A generated statement, its kind and whether it writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Statement {
    /// The I-SQL text.
    pub sql: String,
    /// Index of the statement kind within its stream's round.
    pub kind: usize,
    /// DML (`insert`/`update`/`delete`).
    pub write: bool,
}

/// The `session_stream` statements: short reads with one DML statement in
/// twenty.
pub struct SessionStream {
    rounds: Rounds,
    inserted: usize,
}

/// Kinds of a `session_stream` round (weights sum to 20).
const STREAM_WEIGHTS: [usize; 5] = [6, 4, 3, 6, 1];

impl SessionStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> SessionStream {
        let rng = StdRng::seed_from_u64(seed ^ 0x5354_5245_414d);
        SessionStream {
            rounds: Rounds::new(rng, &STREAM_WEIGHTS),
            inserted: 0,
        }
    }

    /// The next statement.
    pub fn next_statement(&mut self) -> Statement {
        let kind = self.rounds.next();
        let r = &mut self.rounds.rng;
        let read = |sql| Statement {
            sql,
            kind,
            write: false,
        };
        let write = |sql| Statement {
            sql,
            kind,
            write: true,
        };
        match kind {
            0 => read(format!(
                "select Name, City from Hotels where Name = 'H{:04}';",
                r.gen_range(0..400)
            )),
            1 => read(format!(
                "select certain Arr from Flights where Dep < '{}' choice of Dep;",
                dep(r.gen_range(1..6))
            )),
            2 => read(format!(
                "select City, count(*) as N from Hotels where City <> '{}' group by City;",
                pick(r, &CITIES)
            )),
            3 => read(format!(
                "select F.Arr, H.Name from Flights F, Hotels H \
                 where F.Arr = H.City and F.Dep = '{}';",
                dep(r.gen_range(0..40))
            )),
            _ => {
                if r.gen_range(0..2) == 0 {
                    self.inserted += 1;
                    write(format!(
                        "insert into Hotels values ('S{:05}', '{}');",
                        self.inserted,
                        pick(r, &CITIES)
                    ))
                } else {
                    write(format!(
                        "update Hotels set City = '{}' where Name = 'H{:04}';",
                        pick(r, &CITIES),
                        r.gen_range(0..400)
                    ))
                }
            }
        }
    }
}

/// One `durable_writes` session's statements: write-heavy (inserts,
/// updates and deletes on `Hotels`/`Flights`) beside point selects. Each
/// session inserts names of its own and later deletes them, so the tables
/// stay near their generated size.
pub struct DurableStream {
    session: usize,
    rounds: Rounds,
    inserted: usize,
    deleted: usize,
}

/// Kinds of a `durable_writes` round: select, insert, update, delete.
const DURABLE_WEIGHTS: [usize; 4] = [3, 3, 1, 3];

/// Inserted rows a session keeps alive before deleting the oldest.
const DURABLE_LIVE: usize = 30;
/// Distinct inserted-row names per session (more than twice
/// [`DURABLE_LIVE`], and even, so a name always returns to the same table).
const DURABLE_NAMES: usize = 64;

impl DurableStream {
    /// The stream of session `session` for `seed`.
    pub fn new(seed: u64, session: usize) -> DurableStream {
        let rng = StdRng::seed_from_u64(seed ^ 0x4455_5241 ^ ((session as u64) << 32));
        DurableStream {
            session,
            rounds: Rounds::new(rng, &DURABLE_WEIGHTS),
            inserted: 0,
            deleted: 0,
        }
    }

    /// Name of the `n`-th inserted row. Names repeat every
    /// [`DURABLE_NAMES`] rows, long after the earlier row with the name was
    /// deleted: string values are interned for the life of the process, so
    /// unbounded fresh names would grow memory with the run's throughput.
    fn row_name(&self, n: usize) -> String {
        format!("W{}_{:03}", self.session, n % DURABLE_NAMES)
    }

    /// The next statement.
    pub fn next_statement(&mut self) -> Statement {
        let kind = self.rounds.next();
        let (sql, write) = match kind {
            0 => {
                let r = &mut self.rounds.rng;
                let sql = format!(
                    "select Name, City from Hotels where Name = 'H{:04}';",
                    r.gen_range(0..400)
                );
                (sql, false)
            }
            1 => {
                self.inserted += 1;
                let name = self.row_name(self.inserted);
                let city = pick(&mut self.rounds.rng, &CITIES);
                let sql = if self.inserted.is_multiple_of(2) {
                    format!("insert into Hotels values ('{name}', '{city}');")
                } else {
                    format!("insert into Flights values ('{name}', '{city}');")
                };
                (sql, true)
            }
            2 => {
                let r = &mut self.rounds.rng;
                let sql = format!(
                    "update Hotels set City = '{}' where Name = 'H{:04}';",
                    pick(r, &CITIES),
                    r.gen_range(0..400)
                );
                (sql, true)
            }
            _ => {
                // Delete the oldest live row; until enough rows are alive
                // this names row 0, which is not live then, and the delete
                // is a committed change of nothing.
                if self.inserted >= self.deleted + DURABLE_LIVE {
                    self.deleted += 1;
                }
                let n = self.deleted;
                let name = self.row_name(n);
                let sql = if n.is_multiple_of(2) {
                    format!("delete from Hotels where Name = '{name}';")
                } else {
                    format!("delete from Flights where Dep = '{name}';")
                };
                (sql, true)
            }
        };
        Statement { sql, kind, write }
    }
}
