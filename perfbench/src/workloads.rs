//! The three workloads. Each builds its engine from the seed's generated
//! catalog, runs a closed loop of requests until its limit, checks every
//! answer, and returns what it measured.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isql::server::{execute_rendered, serve, Client};
use isql::{DurabilityOptions, Engine};

use crate::check::{answer_ok, recovered_matches, reference_answer, stream_mismatches, Response};
use crate::envcount::{CountingEnv, EnvStats, OpSnapshot};
use crate::gen::{self, Catalog, DurableStream, SessionStream, WorldQueries};
use crate::request::{replay, run_request, Layers, Pending};
use crate::stats::{drift_ratio, median};
use crate::trace::{self, Span, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;
/// Pause between set-ups. An in-memory set-up takes microseconds, so
/// back-to-back repeats would all fall inside one stall of the host;
/// spread out, a stall spoils only a few of them and the median holds.
const SETUP_SPACING: Duration = Duration::from_millis(25);
/// Recoveries per run (each on a fresh copy); `recovery_s` is their median.
const RECOVERY_REPEATS: usize = 3;
/// `durable_writes` snapshot cadence, in commits.
const SNAPSHOT_EVERY: u64 = 1024;
/// Snapshot cycles a `durable_writes` run must span.
const MIN_SNAPSHOTS: u64 = 3;
/// Concurrent sessions of `durable_writes`.
const DURABLE_SESSIONS: usize = 2;
/// Statements of a differently seeded stream run on a throwaway engine
/// before `session_stream` starts timing.
const STREAM_WARMUP: usize = 200;
/// Statements per `session_stream` session. A session retains every
/// select's answer, so per-statement cost grows with the statements
/// already sent on it; sessions of a fixed length make every run see the
/// same growth, whatever the host's speed.
const SESSION_STATEMENTS: usize = 1000;

/// When a closed loop stops.
#[derive(Clone, Debug)]
pub enum Limit {
    /// After this much time.
    Time(Duration),
    /// After this many requests per client (the traced run repeats the
    /// untraced run's request counts, so both see the same statements).
    Count(Vec<usize>),
}

impl Limit {
    fn more(&self, client: usize, done: usize, elapsed: Duration) -> bool {
        match self {
            Limit::Time(d) => elapsed < *d,
            Limit::Count(n) => done < n[client],
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Loop limit.
    pub limit: Limit,
    /// Record spans and layer counters.
    pub trace: bool,
    /// Directory for data directories (inside the checkout).
    pub work_dir: PathBuf,
}

/// Environment-layer figures of a durable run.
#[derive(Clone, Debug, Default)]
pub struct EnvFigures {
    /// WAL appends in the timed window.
    pub append: OpSnapshot,
    /// fsyncs in the timed window.
    pub sync: OpSnapshot,
    /// Snapshot writes in the timed window.
    pub snapshot: OpSnapshot,
    /// Commits acknowledged in the timed window.
    pub commits: u64,
    /// Bytes read by the first recovery.
    pub recovery_read_bytes: u64,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, answered wrongly or lost their connection,
    /// plus failed end-of-run checks.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Length of the timed loop, seconds.
    pub window_s: f64,
    /// Every completed request, in completion order.
    pub samples: Vec<Sample>,
    /// Requests completed per client.
    pub per_client: Vec<usize>,
    /// Median recovery time, seconds (`durable_writes`).
    pub recovery_s: Option<f64>,
    /// Environment figures (`durable_writes`).
    pub env: Option<EnvFigures>,
    /// Layer counters (traced run).
    pub layers: Layers,
    /// Spans (traced run).
    pub spans: Vec<Span>,
}

/// One completed request, kept compact: a run holds up to a few hundred
/// thousand, and they count towards `peak_rss_mb`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Latency (a select until its rendered answer, a DML until its ack),
    /// ms.
    pub ms: f32,
    /// Completion, seconds into the timed loop.
    pub done_at_s: f32,
    /// Statement kind (drift is normalised per kind).
    pub kind: u32,
    /// Drift segment: the session (drift compares the start and the end of
    /// each), or [`drift_segment`] for requests that share no session.
    pub segment: u32,
    /// DML rather than a select.
    pub write: bool,
}

/// The drift segment of a request that shares no session with the others
/// (`world_queries`, `durable_writes`): the second of the timed loop it
/// completed in. Such requests leave no per-session state behind, so a
/// start-to-end comparison over the whole run would mostly measure how
/// the host's speed wandered; within one-second segments that cancels, and
/// the ratio stays near 1 unless the cost of a request grows with the
/// work before it.
fn drift_segment(done_at_s: f32) -> u32 {
    done_at_s as u32
}

impl Measured {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    fn latencies(&self, write: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.write == write)
            .map(|s| f64::from(s.ms))
            .collect()
    }

    /// Select latencies, ms, in completion order.
    pub fn reads_ms(&self) -> Vec<f64> {
        self.latencies(false)
    }

    /// DML latencies, ms, in completion order.
    pub fn writes_ms(&self) -> Vec<f64> {
        self.latencies(true)
    }

    /// [`drift_ratio`] of the selects.
    pub fn read_drift(&self) -> Option<f64> {
        let reads: Vec<&Sample> = self.samples.iter().filter(|s| !s.write).collect();
        let ms: Vec<f64> = reads.iter().map(|s| f64::from(s.ms)).collect();
        let kinds: Vec<usize> = reads.iter().map(|s| s.kind as usize).collect();
        let segments: Vec<usize> = reads.iter().map(|s| s.segment as usize).collect();
        drift_ratio(&ms, &kinds, &segments)
    }

    /// Statements completed per second: the median over ten equal slices
    /// of the timed loop, so one slow stretch of the host moves it less
    /// than it moves the overall mean.
    pub fn throughput(&self) -> f64 {
        const SLICES: usize = 10;
        let width = self.window_s / SLICES as f64;
        let mut counts = [0usize; SLICES];
        for s in &self.samples {
            counts[((f64::from(s.done_at_s) / width) as usize).min(SLICES - 1)] += 1;
        }
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
        median(&rates).expect("ten slices")
    }
}

fn load(engine: &Engine, cat: Catalog) -> Result<(), String> {
    let mut admin = engine.session();
    for (name, rel) in cat.tables {
        admin.register(name, rel).map_err(|e| e.to_string())?;
    }
    for (table, cols) in cat.keys {
        admin.declare_key(table, &cols).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Construct/open an engine and load `cat` [`SETUP_REPEATS`] times; returns
/// the last engine and the median time. Catalog copies are made before
/// the clock starts, so data generation is excluded.
fn setup<T>(
    cat: &Catalog,
    mut open: impl FnMut(usize) -> Result<(Engine, T), String>,
) -> Result<(Engine, T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last: Option<(Engine, T)> = None;
    for i in 0..SETUP_REPEATS {
        let copy = cat.clone();
        drop(last.take()); // release the previous engine before timing the next
        let t0 = Instant::now();
        let (engine, extra) = open(i)?;
        load(&engine, copy)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some((engine, extra));
        std::thread::sleep(SETUP_SPACING);
    }
    let (engine, extra) = last.expect("at least one set-up");
    Ok((engine, extra, median(&times).expect("set-up times")))
}

fn in_memory(cat: &Catalog) -> Result<(Engine, (), f64), String> {
    setup(cat, |_| Ok((Engine::new(), ())))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `world_queries`: one in-process client; every request opens a fresh
/// session on a fixed catalog and sends one paper-scenario statement.
pub fn world_queries(cfg: &RunConfig) -> Result<Measured, String> {
    let cat = gen::world_catalog(cfg.seed);
    let mut stream = WorldQueries::new(cfg.seed);
    let (engine, (), setup_s) = in_memory(&cat)?;
    let pool = stream.pool().to_vec();
    let reference: Vec<Response> = pool
        .iter()
        .map(|sql| reference_answer(&engine, sql))
        .collect();
    // Fill the optimizer memo and plan cache before timing: the workload
    // measures the cache-resident steady state.
    for sql in &pool {
        let _ = execute_rendered(&mut engine.session(), sql);
    }

    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    let mut tr = Tracer::new(Instant::now(), cfg.trace);
    let mut replays: Vec<Pending> = Vec::new();
    let start = Instant::now();
    let mut done = 0;
    while cfg.limit.more(0, done, start.elapsed()) {
        let (_, idx) = stream.next_request();
        tr.request(done as u64);
        let t0 = Instant::now();
        tr.open("request");
        let mut session = engine.session();
        let (got, _) = run_request(
            &mut session,
            &pool[idx],
            &mut tr,
            &mut m.layers,
            &mut replays,
        );
        tr.close();
        let ms = ms_since(t0);
        drop(session);
        m.attempted += 1;
        if !answer_ok(&got, &reference[idx]) {
            m.fail(format!("wrong answer to {:?}: {got:?}", pool[idx]));
        }
        let done_at_s = start.elapsed().as_secs_f32();
        m.samples.push(Sample {
            ms: ms as f32,
            done_at_s,
            // Every distinct statement recurs many times in a run, so
            // drift is normalised per statement rather than per scenario.
            kind: idx as u32,
            segment: drift_segment(done_at_s),
            write: false,
        });
        for (sel, ws) in replays.drain(..) {
            replay(&sel, &ws, &mut tr, &mut m.layers);
        }
        done += 1;
    }
    m.window_s = start.elapsed().as_secs_f64();
    m.per_client = vec![done];
    m.spans = tr.take();
    Ok(m)
}

/// Load a fresh in-memory engine with `cat` (outside any timing).
fn fresh_engine(cat: &Catalog) -> Result<Engine, String> {
    let engine = Engine::new();
    load(&engine, cat.clone())?;
    Ok(engine)
}

/// `session_stream`: one TCP connection at a time to an in-process server,
/// sending short statements with one DML in twenty; each connection is a
/// session of [`SESSION_STATEMENTS`] statements on a freshly loaded engine.
/// A mirror session on an identically loaded engine checks every
/// response.
pub fn session_stream(cfg: &RunConfig) -> Result<Measured, String> {
    let cat = gen::stream_catalog(cfg.seed);
    let (first, (), setup_s) = in_memory(&cat)?;

    // Warm code paths on a throwaway engine, leaving the measured state
    // untouched.
    let mut warm = fresh_engine(&cat)?.session();
    let mut warm_stream = SessionStream::new(cfg.seed.wrapping_add(1));
    for _ in 0..STREAM_WARMUP {
        let _ = execute_rendered(&mut warm, &warm_stream.next_statement().sql);
    }
    drop(warm);

    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    let mut stream = SessionStream::new(cfg.seed);
    let mut tr = Tracer::new(Instant::now(), cfg.trace);
    let mut replays: Vec<Pending> = Vec::new();
    let mut sessions: u32 = 0;
    let mut next_engine = Some(first);
    let mut window = Duration::ZERO;
    let mut done = 0;
    // A session once started runs to its end, so every run is made of
    // whole sessions and sees the same growth profile.
    'sessions: while cfg.limit.more(0, done, window) {
        let engine = match next_engine.take() {
            Some(e) => e,
            None => fresh_engine(&cat)?,
        };
        // The traced run checks in step, so its mirror runs beside the
        // server; the untraced run replays the session on a mirror once
        // it has ended.
        let mut mirror = if tr.on() {
            Some(fresh_engine(&cat)?.session())
        } else {
            None
        };
        let server = serve(engine, "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut sent = Vec::with_capacity(SESSION_STATEMENTS);
        let session_start = Instant::now();
        for _ in 0..SESSION_STATEMENTS {
            let stmt = stream.next_statement();
            tr.request(done as u64);
            let before = relalg::plan_cache::stats();
            let t0 = Instant::now();
            tr.open("server.request");
            let got = client.request(&stmt.sql);
            let request_us = tr.close();
            let ms = ms_since(t0);
            m.attempted += 1;
            done += 1;
            m.samples.push(Sample {
                ms: ms as f32,
                done_at_s: (window + session_start.elapsed()).as_secs_f32(),
                kind: stmt.kind as u32,
                segment: sessions,
                write: stmt.write,
            });
            let got = match got {
                Ok(r) => r,
                Err(e) => {
                    m.fail(format!("connection lost: {e}"));
                    window += session_start.elapsed();
                    break 'sessions;
                }
            };
            let Some(mirror) = mirror.as_mut() else {
                sent.push((stmt.sql, got));
                continue;
            };
            // The mirror's parse, run and render spans stand in for the
            // server's; its counters are kept apart from the plan-cache
            // figures of the real call.
            let after = relalg::plan_cache::stats();
            let hits = after.0 - before.0;
            m.layers.cache_hits += hits;
            m.layers.cache_lookups += hits + (after.1 - before.1);
            let mut mirror_layers = Layers::default();
            let (want, times) =
                run_request(mirror, &stmt.sql, &mut tr, &mut mirror_layers, &mut replays);
            m.layers.max_relations = m.layers.max_relations.max(mirror_layers.max_relations);
            m.layers.max_worlds = m.layers.max_worlds.max(mirror_layers.max_worlds);
            m.layers
                .overhead_us
                .push(request_us - times.run_us - times.render_us);
            let (Ok(p) | Err(p)) = &got;
            m.layers.response_bytes.push(p.len() as f64);
            if !answer_ok(&got, &want) {
                m.fail(format!("response to {:?} differs: {got:?}", stmt.sql));
            }
            for (sel, ws) in replays.drain(..) {
                replay(&sel, &ws, &mut tr, &mut m.layers);
            }
        }
        window += session_start.elapsed();
        drop(client);
        server.shutdown();
        sessions += 1;
        // Between sessions, off the clock.
        if !sent.is_empty() {
            let mut mirror = fresh_engine(&cat)?.session();
            for _ in 0..stream_mismatches(&mut mirror, &sent) {
                m.fail("a TCP response differs from the mirror session".into());
            }
        }
    }
    m.window_s = window.as_secs_f64();
    m.per_client = vec![done];
    m.spans = tr.take();
    Ok(m)
}

fn durable_options() -> DurabilityOptions {
    DurabilityOptions {
        snapshot_every: SNAPSHOT_EVERY,
        background_snapshots: true,
    }
}

fn open_counting(dir: &Path) -> Result<(Engine, Arc<EnvStats>), String> {
    let env = CountingEnv::new(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stats = env.stats();
    let engine = Engine::open_on(Arc::new(env), durable_options())
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    Ok((engine, stats))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// What one `durable_writes` session thread produced.
struct SessionRun {
    done: usize,
    samples: Vec<Sample>,
    failed: u64,
    failures: Vec<String>,
    layers: Layers,
    spans: Vec<Span>,
}

fn durable_session(
    engine: &Engine,
    cfg: &RunConfig,
    client: usize,
    start: Instant,
    snapshots_done: &dyn Fn() -> bool,
) -> SessionRun {
    let mut stream = DurableStream::new(cfg.seed, client);
    let mut tr = Tracer::new(start, cfg.trace);
    let mut out = SessionRun {
        done: 0,
        samples: Vec::new(),
        failed: 0,
        failures: Vec::new(),
        layers: Layers::default(),
        spans: Vec::new(),
    };
    let mut replays: Vec<Pending> = Vec::new();
    // A timed run also lasts until the snapshot cycles have happened;
    // the hard stop keeps a very slow disk within the run's time budget.
    let hard_stop = match &cfg.limit {
        Limit::Time(d) => Some(*d * 4),
        Limit::Count(_) => None,
    };
    loop {
        let more = cfg.limit.more(client, out.done, start.elapsed())
            || (hard_stop.is_some() && !snapshots_done());
        if !more || hard_stop.is_some_and(|h| start.elapsed() >= h) {
            break;
        }
        let stmt = stream.next_statement();
        tr.request(((client as u64) << 32) | out.done as u64);
        let t0 = Instant::now();
        tr.open("request");
        // A fresh session per request: a long-lived session would publish
        // its retained select answers with its next commit, growing the
        // shared catalog (and every later statement's cost) at a rate set
        // by how the two clients happen to interleave.
        let mut session = engine.session();
        let (got, _) = run_request(
            &mut session,
            &stmt.sql,
            &mut tr,
            &mut out.layers,
            &mut replays,
        );
        tr.close();
        let ms = ms_since(t0);
        drop(session);
        out.done += 1;
        let ok = match &got {
            Ok(p) => !stmt.write || p == "ok\n",
            Err(_) => false,
        };
        if !ok {
            out.failed += 1;
            out.failures
                .push(format!("{:?} answered {got:?}", stmt.sql));
            out.failures.truncate(5);
        }
        let done_at_s = start.elapsed().as_secs_f32();
        out.samples.push(Sample {
            ms: ms as f32,
            done_at_s,
            kind: stmt.kind as u32,
            segment: drift_segment(done_at_s),
            write: stmt.write,
        });
        for (sel, ws) in replays.drain(..) {
            replay(&sel, &ws, &mut tr, &mut out.layers);
        }
    }
    out.spans = tr.take();
    out
}

/// `durable_writes`: two in-process clients on one durable engine over a
/// real directory, each request on a fresh session, write-heavy, with
/// fsync before every ack and a background snapshot every
/// [`SNAPSHOT_EVERY`] commits. The run ends with a recovery of the
/// directory it left behind, checked against the last published snapshot.
pub fn durable_writes(cfg: &RunConfig) -> Result<Measured, String> {
    let cat = gen::durable_catalog(cfg.seed);
    let base = cfg.work_dir.join(format!(
        "durable-{}-{}",
        std::process::id(),
        u8::from(cfg.trace)
    ));
    let _ = std::fs::remove_dir_all(&base);
    let dir_of = |i: usize| base.join(format!("setup-{i}"));
    let (engine, stats, setup_s) = setup(&cat, |i| open_counting(&dir_of(i)))?;
    let data_dir = dir_of(SETUP_REPEATS - 1);
    for i in 0..SETUP_REPEATS - 1 {
        let _ = std::fs::remove_dir_all(dir_of(i));
    }

    let snaps_before = stats.write_atomic.snapshot();
    let append_before = stats.append.snapshot();
    let sync_before = stats.sync.snapshot();
    let snapshots_done = || stats.write_atomic.calls() - snaps_before.calls() >= MIN_SNAPSHOTS;

    let start = Instant::now();
    let runs: Vec<SessionRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..DURABLE_SESSIONS)
            .map(|c| {
                let engine = &engine;
                let snapshots_done = &snapshots_done;
                scope.spawn(move || durable_session(engine, cfg, c, start, snapshots_done))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("durable session thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let published = engine.snapshot();
    drop(engine);
    // Snapshots land on a detached thread: wait until the directory stops
    // changing before copying it.
    if !stats.wait_quiet(Duration::from_millis(300), Duration::from_secs(30)) {
        return Err("data directory never went quiet".into());
    }

    let mut m = Measured {
        setup_s,
        window_s,
        ..Measured::default()
    };
    let mut span_lists = Vec::new();
    for run in runs {
        m.attempted += run.done as u64;
        m.per_client.push(run.done);
        m.failed += run.failed;
        m.failures.extend(run.failures);
        m.failures.truncate(5);
        m.samples.extend(run.samples);
        m.layers.absorb(run.layers);
        span_lists.push(run.spans);
    }
    m.spans = trace::merge(span_lists);
    m.samples
        .sort_by(|a, b| a.done_at_s.total_cmp(&b.done_at_s));

    let mut env = EnvFigures {
        append: stats.append.snapshot().since(&append_before),
        sync: stats.sync.snapshot().since(&sync_before),
        snapshot: stats.write_atomic.snapshot().since(&snaps_before),
        commits: m.samples.iter().filter(|s| s.write).count() as u64,
        recovery_read_bytes: 0,
    };

    let mut recoveries = Vec::new();
    for k in 0..RECOVERY_REPEATS {
        let copy = base.join(format!("recover-{k}"));
        copy_dir(&data_dir, &copy).map_err(|e| format!("copy data dir: {e}"))?;
        let t0 = Instant::now();
        let (recovered, rstats) = open_counting(&copy)?;
        recoveries.push(t0.elapsed().as_secs_f64());
        if k == 0 {
            env.recovery_read_bytes = rstats.read.snapshot().bytes;
            if let Err(e) = recovered_matches(&recovered.snapshot(), &published) {
                m.fail(format!("recovery: {e}"));
            }
        }
        drop(recovered);
        rstats.wait_quiet(Duration::from_millis(50), Duration::from_secs(10));
    }
    m.recovery_s = median(&recoveries);
    m.env = Some(env);
    let _ = std::fs::remove_dir_all(&base);
    Ok(m)
}
