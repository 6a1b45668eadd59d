//! One request through the in-process layers, and its decomposed replay.
//!
//! [`run_request`] is the measured path: `parse_script` → `Session::run`
//! per statement → `render_outcome`, producing exactly the payload
//! [`isql::server::execute_rendered`] would. With tracing on, each call is
//! a span and the layer counters in [`Layers`] are updated.
//!
//! [`replay`] then re-runs a select decomposed into the layers the
//! interpreter's algebra route crosses — `compile_select` →
//! `optimize_capped` → `plan_query` → `eval_named_routed` — on the
//! world-set the statement started from. It runs only in the traced run,
//! after the real call, so it never shapes the untraced numbers.

use isql::server::render_outcome;
use isql::{compile_select, parse_script, SelectStmt, Session, Stmt};
use relalg::Schema;
use worldset::WorldSet;
use wsa::{RepCard, RepPlan};

use crate::check::Response;
use crate::trace::Tracer;

/// The optimizer's exploration budget on the interpreter's algebra route.
const REWRITE_CAP: usize = 20_000;

/// Layer counters of the traced run (see the per-layer metrics).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Rewrite searches run.
    pub rewrite_attempts: u64,
    /// Searches that changed the plan.
    pub rewrite_changed: u64,
    /// Nodes over all representation plans.
    pub plan_nodes: u64,
    /// Nodes planned `F` or `convert`.
    pub plan_f_nodes: u64,
    /// Largest implicit-world estimate of any plan.
    pub peak_worlds: f64,
    /// Plans with a factored region.
    pub planned_f: u64,
    /// Of those, plans whose factorized evaluation errored (the routed
    /// entry then falls back to enumeration).
    pub fallbacks: u64,
    /// Largest number of relations a session retained.
    pub max_relations: u64,
    /// Largest world count of a session.
    pub max_worlds: u64,
    /// Plan-cache hits around the real calls.
    pub cache_hits: u64,
    /// Plan-cache lookups around the real calls.
    pub cache_lookups: u64,
    /// Response payload sizes, bytes.
    pub response_bytes: Vec<f64>,
    /// Per request: wire request time minus mirror run and render, µs.
    pub overhead_us: Vec<f64>,
}

impl Layers {
    /// Fold another thread's counters into these.
    pub fn absorb(&mut self, o: Layers) {
        self.rewrite_attempts += o.rewrite_attempts;
        self.rewrite_changed += o.rewrite_changed;
        self.plan_nodes += o.plan_nodes;
        self.plan_f_nodes += o.plan_f_nodes;
        self.peak_worlds = self.peak_worlds.max(o.peak_worlds);
        self.planned_f += o.planned_f;
        self.fallbacks += o.fallbacks;
        self.max_relations = self.max_relations.max(o.max_relations);
        self.max_worlds = self.max_worlds.max(o.max_worlds);
        self.cache_hits += o.cache_hits;
        self.cache_lookups += o.cache_lookups;
        self.response_bytes.extend(o.response_bytes);
        self.overhead_us.extend(o.overhead_us);
    }
}

/// Time spent in the real calls of one request, µs (tracing on only).
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTimes {
    /// `Session::run`, all statements.
    pub run_us: f64,
    /// `render_outcome`, all statements.
    pub render_us: f64,
}

/// A select to replay and the world-set it started from.
pub type Pending = (SelectStmt, WorldSet);

/// Execute `sql` on `session` through the layers, rendering the payload
/// the server would send. Selects to replay are pushed onto `replays`
/// when tracing is on.
pub fn run_request(
    session: &mut Session,
    sql: &str,
    tr: &mut Tracer,
    layers: &mut Layers,
    replays: &mut Vec<Pending>,
) -> (Response, CallTimes) {
    let mut times = CallTimes::default();
    tr.open("parser");
    let parsed = parse_script(sql);
    tr.close();
    let stmts = match parsed {
        Ok(s) => s,
        Err(e) => return (Err(format!("{e}\n")), times),
    };
    let mut outcomes = Vec::with_capacity(stmts.len());
    for stmt in stmts {
        let write = matches!(
            stmt,
            Stmt::Insert { .. } | Stmt::Update { .. } | Stmt::Delete { .. }
        );
        if tr.on() {
            if let Stmt::Select(sel) = &stmt {
                replays.push((sel.clone(), session.world_set().clone()));
            }
        }
        let before = relalg::plan_cache::stats();
        tr.open(if write {
            "engine.commit"
        } else {
            "session.run"
        });
        let result = session.run(stmt);
        times.run_us += tr.close();
        if tr.on() {
            let after = relalg::plan_cache::stats();
            let hits = after.0 - before.0;
            layers.cache_hits += hits;
            layers.cache_lookups += hits + (after.1 - before.1);
            let ws = session.world_set();
            layers.max_relations = layers.max_relations.max(ws.rel_names().len() as u64);
            layers.max_worlds = layers.max_worlds.max(ws.len() as u64);
        }
        match result {
            Ok(o) => outcomes.push(o),
            Err(e) => return (Err(format!("{e}\n")), times),
        }
    }
    let worlds = session.world_set().len();
    let mut payload = String::new();
    for o in &outcomes {
        tr.open("server.render");
        payload.push_str(&render_outcome(o, worlds));
        times.render_us += tr.close();
    }
    if tr.on() {
        layers.response_bytes.push(payload.len() as f64);
    }
    (Ok(payload), times)
}

fn count_nodes(p: &RepPlan, layers: &mut Layers) {
    layers.plan_nodes += 1;
    if matches!(p.card, RepCard::F | RepCard::Convert) {
        layers.plan_f_nodes += 1;
    }
    for k in &p.kids {
        count_nodes(k, layers);
    }
}

/// Replay one select decomposed on the world-set it started from. A
/// statement outside the algebra's clean fragment stops after `compile`.
pub fn replay(sel: &SelectStmt, ws: &WorldSet, tr: &mut Tracer, layers: &mut Layers) {
    let base = |name: &str| -> Option<Schema> {
        let idx = ws.index_of(name)?;
        Some(ws.iter().next()?.rel(idx).schema().clone())
    };
    let stats = |name: &str| -> Option<wsa_rewrite::TableStats> {
        let idx = ws.index_of(name)?;
        let rel = ws.iter().next()?.rel(idx);
        let s = rel.stats();
        Some(wsa_rewrite::TableStats {
            rows: s.rows,
            distinct: rel
                .schema()
                .attrs()
                .iter()
                .zip(&s.cols)
                .map(|(a, c)| (a.clone(), c.distinct))
                .collect(),
        })
    };
    tr.open("replay");
    tr.open("compile");
    let compiled = compile_select(sel, &base);
    tr.close();
    let Ok(algebra) = compiled else {
        tr.close();
        return;
    };
    let multiplicity = if ws.len() > 1 {
        wsa::typing::Multiplicity::Many
    } else {
        wsa::typing::Multiplicity::One
    };
    let ctx = wsa_rewrite::RewriteCtx::new(&base)
        .with_stats(&stats)
        .with_multiplicity(multiplicity);
    tr.open("rewrite");
    let (query, _) = wsa_rewrite::optimize_capped(&algebra, &ctx, REWRITE_CAP);
    tr.close();
    layers.rewrite_attempts += 1;
    layers.rewrite_changed += u64::from(query != algebra);

    tr.open("factorized.plan");
    let plan = wsa::plan_query(&query, ws);
    tr.close();
    count_nodes(&plan, layers);
    layers.peak_worlds = layers.peak_worlds.max(plan.peak as f64);

    tr.open("factorized.eval");
    let evaluated = wsa::eval_named_routed(&query, ws, "Q_replay");
    tr.close();
    // Dropped outside the span: freeing the answer is not evaluation.
    drop(evaluated);
    if plan.any_f() {
        layers.planned_f += 1;
        if wsa::eval_planned(&query, ws, "Q_replay", &plan).is_err() {
            layers.fallbacks += 1;
        }
    }
    tr.close();
}
