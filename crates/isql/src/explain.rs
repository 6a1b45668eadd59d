//! `EXPLAIN` for I-SQL: compile a query through the full pipeline —
//! surface syntax → World-set Algebra → Section-6 logical optimization →
//! (for complete-to-complete queries) the Section-5.3 relational plan.
//!
//! This is the end-to-end story of the paper in one API call: the
//! conclusion's "implementation of I-SQL on top of a relational engine".

use relalg::Schema;
use wsa::typing::is_complete_to_complete;
use wsa::Query;

use crate::ast::{SelectStmt, Stmt};
use crate::compile::compile_select;
use crate::lexer::SqlError;
use crate::parser::parse_statement;
use crate::session::Session;

/// The stages of query compilation, for inspection and execution planning.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The algebra form of the query (clean fragment only).
    pub algebra: Query,
    /// The algebra after Figure-7 rewriting.
    pub optimized: Query,
    /// Estimated cost of the unrewritten plan (cardinality model over the
    /// session's actual relation sizes).
    pub cost_before: u64,
    /// Estimated cost after rewriting.
    pub cost_after: u64,
    /// Whether the query maps complete databases to complete databases.
    pub complete_to_complete: bool,
    /// World-set representation the evaluator would use for the optimized
    /// query: `"factored"` when the per-operator planner routes every
    /// node through the factorized engine (lineage columns + choice
    /// variables, worlds expanded only at decode boundaries), `"mixed"`
    /// when factored regions and enumerated operators share the plan
    /// (conversions at the region boundaries), `"enum"` for explicit
    /// possible-worlds enumeration end-to-end.
    pub rep: &'static str,
    /// Estimated implicit world count of the optimized query over the
    /// session's world-set: the *peak* across the plan of input worlds ×
    /// per-`choice of` group counts from the relation statistics — the
    /// quantity the per-node representation rule thresholds on.
    pub implicit_worlds: u128,
    /// Per-node representation decisions of the plan that would execute,
    /// in pre-order: operator label, `F`/`E`/`convert`, and the node's
    /// output world estimate.
    pub rep_plan: Vec<RepNodeLine>,
    /// For `1↦1` queries: the equivalent relational algebra plan
    /// (Section 5.3, simplified) evaluable by any relational engine.
    pub relational_plan: Option<relalg::Expr>,
    /// Evaluation-cache behavior of a trial evaluation of the relational
    /// plan against the session's relations (`None` when there is no plan
    /// or the rewrite path is off): node hits, canonical-CSE hits,
    /// process-level plan-cache hits, misses.
    pub cache: Option<relalg::EvalStats>,
    /// Per-plan-node cardinalities: the statistics model's estimate next
    /// to the actual row count of the trial evaluation, plus the chosen
    /// physical path (row vs. columnar) (empty when there is no
    /// relational plan or the rewrite path is off).
    pub node_cards: Vec<relalg::opt::PlanCard>,
}

impl Explanation {
    /// Multi-line rendering of all stages.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("algebra:    {}\n", self.algebra));
        out.push_str(&format!("            est. cost {}\n", self.cost_before));
        if self.optimized != self.algebra {
            out.push_str(&format!("optimized:  {}\n", self.optimized));
            out.push_str(&format!("            est. cost {}\n", self.cost_after));
        }
        out.push_str(&format!(
            "type:       {}\n",
            if self.complete_to_complete {
                "1↦1 (complete-to-complete)"
            } else {
                "world-set valued"
            }
        ));
        out.push_str(&format!(
            "rep:        {} (peak ≈{} implicit worlds)\n",
            self.rep, self.implicit_worlds
        ));
        for n in &self.rep_plan {
            out.push_str(&format!(
                "            {}{}  rep={} ≈{}\n",
                "  ".repeat(n.depth),
                n.label,
                n.card.label(),
                n.out
            ));
        }
        if let Some(plan) = &self.relational_plan {
            out.push_str(&format!("relational: {plan}\n"));
        }
        if !self.node_cards.is_empty() {
            out.push_str("cards:\n");
            for c in &self.node_cards {
                out.push_str(&format!(
                    "            {}{}  est={} actual={} phys={}\n",
                    "  ".repeat(c.depth),
                    c.label,
                    c.est_rows,
                    c.actual_rows,
                    c.phys.label()
                ));
            }
        }
        if let Some(stats) = &self.cache {
            out.push_str(&format!(
                "cache:      {} node hit(s), {} cse hit(s), {} plan-cache hit(s), {} miss(es)\n",
                stats.node_hits, stats.canon_hits, stats.plan_hits, stats.misses
            ));
        }
        out
    }
}

/// One line of the per-node representation report: the operator (table
/// name for a leaf, operator symbol otherwise), its decision, and its
/// output world estimate.
#[derive(Clone, Debug)]
pub struct RepNodeLine {
    /// Nesting depth in the query tree (0 = root).
    pub depth: usize,
    /// Short operator label.
    pub label: String,
    /// The representation decision ([`wsa::RepCard::label`] renders it).
    pub card: wsa::RepCard,
    /// Estimated worlds distinguished by this node's output.
    pub out: u128,
}

/// Short per-node label for the representation report.
fn node_label(q: &Query) -> String {
    match q {
        Query::Rel(n) => n.clone(),
        Query::Select(_, _) => "σ".into(),
        Query::Project(_, _) => "π".into(),
        Query::Rename(_, _) => "δ".into(),
        Query::Product(_, _) => "×".into(),
        Query::Union(_, _) => "∪".into(),
        Query::Intersect(_, _) => "∩".into(),
        Query::Difference(_, _) => "−".into(),
        Query::Choice(_, _) => "χ".into(),
        Query::Poss(_) => "poss".into(),
        Query::Cert(_) => "cert".into(),
        Query::PossGroup { .. } => "pγ".into(),
        Query::CertGroup { .. } => "cγ".into(),
        Query::RepairKey(_, _) => "repair-key".into(),
    }
}

/// Flatten the representation plan into report lines (pre-order, children
/// in query order).
fn rep_lines(q: &Query, plan: &wsa::RepPlan, depth: usize, out: &mut Vec<RepNodeLine>) {
    out.push(RepNodeLine {
        depth,
        label: node_label(q),
        card: plan.card,
        out: plan.out,
    });
    let kids: Vec<&Query> = match q {
        Query::Rel(_) => vec![],
        Query::Select(_, i)
        | Query::Project(_, i)
        | Query::Rename(_, i)
        | Query::Poss(i)
        | Query::Cert(i)
        | Query::Choice(_, i)
        | Query::RepairKey(_, i) => vec![i],
        Query::PossGroup { input, .. } | Query::CertGroup { input, .. } => vec![input],
        Query::Product(a, b)
        | Query::Union(a, b)
        | Query::Intersect(a, b)
        | Query::Difference(a, b) => vec![a, b],
    };
    for (k, kid) in kids.into_iter().enumerate() {
        rep_lines(kid, &plan.kids[k], depth + 1, out);
    }
}

impl Session {
    /// Explain a clean-fragment select statement: its WSA form, the
    /// optimized plan, and — when the query is `1↦1` — the equivalent
    /// relational algebra plan.
    pub fn explain(&self, sql: &str) -> Result<Explanation, SqlError> {
        let Stmt::Select(sel) = parse_statement(sql)? else {
            return Err(SqlError("explain expects a select statement".into()));
        };
        self.explain_select(&sel)
    }

    /// [`Session::explain`] on a parsed statement.
    pub fn explain_select(&self, sel: &SelectStmt) -> Result<Explanation, SqlError> {
        // The session's `set local` overrides govern the explain too (the
        // plan shown is the plan the session would run).
        let _session_cfg = relalg::config::overlay(self.config());
        let ws = self.world_set();
        let base = |name: &str| -> Option<Schema> {
            let idx = ws.index_of(name)?;
            let w = ws.iter().next()?;
            Some(w.rel(idx).schema().clone())
        };
        let cards = |name: &str| -> Option<u64> {
            let idx = ws.index_of(name)?;
            Some(ws.iter().next()?.rel(idx).len() as u64)
        };
        // Measured statistics of the first world's relations (lazily
        // computed, memoized on each relation): the cost model ranks the
        // before/after plans on real cardinalities.
        let stats = |name: &str| -> Option<wsa_rewrite::TableStats> {
            let idx = ws.index_of(name)?;
            let w = ws.iter().next()?;
            let rel = w.rel(idx);
            let s = rel.stats();
            Some(wsa_rewrite::TableStats {
                rows: s.rows,
                distinct: rel
                    .schema()
                    .attrs()
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (a.clone(), s.cols[i].distinct))
                    .collect(),
            })
        };
        let multiplicity = if ws.len() <= 1 {
            wsa::typing::Multiplicity::One
        } else {
            wsa::typing::Multiplicity::Many
        };
        let algebra = compile_select(sel, &base)?;
        let ctx = wsa_rewrite::RewriteCtx::new(&base)
            .with_cards(&cards)
            .with_stats(&stats)
            .with_multiplicity(multiplicity);
        let optimized = wsa_rewrite::optimize(&algebra, &ctx);
        let cost_before = wsa_rewrite::cost_ctx(&algebra, &ctx);
        let cost_after = wsa_rewrite::cost_ctx(&optimized, &ctx);
        let complete = is_complete_to_complete(&algebra);
        // Representation plan for the query that would execute: the
        // per-operator rule assigns each node factored or enumerated;
        // EXPLAIN reports the peak estimate and the per-node decisions.
        let plan = wsa::plan_query(&optimized, ws);
        let implicit_worlds = plan.peak;
        let mut rep_plan = Vec::new();
        rep_lines(&optimized, &plan, 0, &mut rep_plan);
        let rep = if !plan.any_f() {
            "enum"
        } else if rep_plan.iter().any(|l| l.card == wsa::RepCard::E) {
            "mixed"
        } else {
            "factored"
        };
        let relational_plan = if complete {
            let names: Vec<String> = ws.rel_names().to_vec();
            let plan = wsa_inlined::translate_opt_complete(&optimized, &base)
                .or_else(|_| wsa_inlined::translate_complete(&optimized, &base, &names))
                .map_err(|e| SqlError(e.to_string()))?;
            Some(relalg::simplify(&plan, &base).map_err(|e| SqlError(e.to_string()))?)
        } else {
            None
        };
        // Trial-evaluate the relational plan to report how the evaluator's
        // caches (node / canonical-CSE / process plan cache) would behave —
        // the "EXPLAIN ANALYZE" corner of the paper's conclusion — and to
        // annotate every plan node with its estimated vs. actual rows
        // (the statistics are free to read once computed).
        let mut relational_plan = relational_plan;
        let mut node_cards = Vec::new();
        let mut cache = None;
        if relalg::plan_cache::rewrite_enabled() {
            if let (Some(plan), Some(w)) = (relational_plan.clone(), ws.iter().next()) {
                let mut catalog = relalg::Catalog::new();
                for (idx, name) in ws.rel_names().iter().enumerate() {
                    catalog.put(name, w.rel_shared(idx).clone());
                }
                // What EXPLAIN shows is what would execute: the plan after
                // the statistics-driven join reordering.
                let plan = relalg::opt::optimize_joins(&plan, &catalog);
                let mut ec = relalg::EvalCache::new();
                if catalog.eval_cached(&plan, &mut ec).is_ok() {
                    node_cards = relalg::opt::annotate_cards(&plan, &catalog).unwrap_or_default();
                    cache = Some(ec.stats());
                    relational_plan = Some(plan);
                }
            }
        }
        Ok(Explanation {
            algebra,
            optimized,
            cost_before,
            cost_after,
            complete_to_complete: complete,
            rep,
            implicit_worlds,
            rep_plan,
            relational_plan,
            cache,
            node_cards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::Relation;

    fn session() -> Session {
        let mut s = Session::new();
        s.register(
            "HFlights",
            Relation::table(
                &["Dep", "Arr"],
                &[
                    &["FRA", "BCN"],
                    &["FRA", "ATL"],
                    &["PAR", "ATL"],
                    &["PAR", "BCN"],
                    &["PHL", "ATL"],
                ],
            ),
        )
        .unwrap();
        s
    }

    #[test]
    fn explain_trip_query_full_pipeline() {
        let s = session();
        let e = s
            .explain("select certain Arr from HFlights choice of Dep;")
            .unwrap();
        assert!(e.complete_to_complete);
        let rendered = e.render();
        assert!(rendered.contains("1↦1"));
        let plan = e.relational_plan.expect("1↦1 query has a plan");
        // The Example-5.8 division plan, over qualified columns.
        let printed = plan.to_string();
        assert!(printed.contains('÷'), "plan should divide: {printed}");
        // The plan evaluates to {ATL} on the database.
        let mut catalog = relalg::Catalog::new();
        catalog.put(
            "HFlights",
            s.world_set().iter().next().unwrap().rel(0).clone(),
        );
        let result = catalog.eval(&plan).unwrap();
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn explain_open_query_has_no_plan() {
        let s = session();
        let e = s.explain("select * from HFlights choice of Dep;").unwrap();
        assert!(!e.complete_to_complete);
        assert!(e.relational_plan.is_none());
        assert!(e.render().contains("world-set valued"));
    }

    /// Serializes the tests that pin the process-global rewrite toggle
    /// (without it, one test's restore can race another's explain call
    /// when the suite runs under `WSDB_NO_REWRITE=1`).
    fn toggle_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn explain_reports_costs_and_cache_behavior() {
        // Pin the rewrite path on: the cache annotations are what this
        // test is about (a `WSDB_NO_REWRITE` environment must not turn
        // them off underneath it).
        let _guard = toggle_lock();
        relalg::plan_cache::set_enabled(Some(true));
        let s = session();
        let e = s
            .explain("select certain Arr from HFlights choice of Dep;")
            .unwrap();
        relalg::plan_cache::set_enabled(None);
        // The cardinality model prices both plans; rewriting never makes
        // the plan more expensive.
        assert!(e.cost_before > 0);
        assert!(e.cost_after <= e.cost_before);
        // The trial evaluation of the relational plan reports its cache
        // behavior. The division plan has composite nodes, so they either
        // evaluate (misses) or come out of the process plan cache when an
        // earlier test already evaluated the same plan.
        let stats = e.cache.expect("rewrite path on by default");
        assert!(stats.misses + stats.plan_hits > 0, "{stats:?}");
        let rendered = e.render();
        assert!(rendered.contains("est. cost"), "{rendered}");
        assert!(rendered.contains("cache:"), "{rendered}");
    }

    /// Golden rendering: the full before/after pipeline for the paper's
    /// trip-planning query, with estimated costs and cache annotations.
    #[test]
    fn explain_render_golden() {
        let _guard = toggle_lock();
        relalg::plan_cache::set_enabled(Some(true));
        let s = session();
        let e = s
            .explain("select certain Arr from HFlights choice of Dep;")
            .unwrap();
        relalg::plan_cache::set_enabled(None);
        let rendered = e.render();
        let mut lines = rendered.lines();
        assert_eq!(
            lines.next().unwrap(),
            "algebra:    δ{HFlights.Arr→Arr}(cert(π{HFlights.Arr}(χ{HFlights.Dep}(δ{Dep→HFlights.Dep,Arr→HFlights.Arr}(HFlights)))))"
        );
        assert_eq!(lines.next().unwrap(), "            est. cost 26");
        assert_eq!(
            lines.next().unwrap(),
            "type:       1↦1 (complete-to-complete)"
        );
        // The representation planner resolves `choice of Dep` through the
        // compile-inserted rename to HFlights' statistics: 3 distinct Dep
        // values over 1 input world — far below the factorization
        // threshold, so every node evaluates enumerated. The per-node
        // report shows where the worlds would split (χ peaks at 3) and
        // collapse again (cert back to 1).
        assert_eq!(
            lines.next().unwrap(),
            "rep:        enum (peak ≈3 implicit worlds)"
        );
        assert_eq!(lines.next().unwrap(), "            δ  rep=E ≈1");
        assert_eq!(lines.next().unwrap(), "              cert  rep=E ≈1");
        assert_eq!(lines.next().unwrap(), "                π  rep=E ≈3");
        assert_eq!(lines.next().unwrap(), "                  χ  rep=E ≈3");
        assert_eq!(lines.next().unwrap(), "                    δ  rep=E ≈1");
        assert_eq!(
            lines.next().unwrap(),
            "                      HFlights  rep=E ≈1"
        );
        assert_eq!(
            lines.next().unwrap(),
            "relational: (π{Arr,Dep}(HFlights) ÷ π{Dep}(HFlights))"
        );
        // Estimated vs. actual rows, per plan node: the statistics model
        // runs on the measured distinct counts (Dep: 3, Arr: 2 over the 5
        // flights), so the division's answer is estimated at 5/3 = 1 row
        // and every annotation below matches the trial evaluation exactly.
        // HFlights is two columns wide and five rows tall — every operator
        // stays on the row path.
        assert_eq!(lines.next().unwrap(), "cards:");
        assert_eq!(
            lines.next().unwrap(),
            "            ÷  est=1 actual=1 phys=row"
        );
        assert_eq!(
            lines.next().unwrap(),
            "              π{Arr,Dep}  est=5 actual=5 phys=row"
        );
        assert_eq!(
            lines.next().unwrap(),
            "                table HFlights  est=5 actual=5 phys=row"
        );
        assert_eq!(
            lines.next().unwrap(),
            "              π{Dep}  est=3 actual=3 phys=row"
        );
        assert_eq!(
            lines.next().unwrap(),
            "                table HFlights  est=5 actual=5 phys=row"
        );
        let cache_line = lines.next().unwrap();
        assert!(
            cache_line.starts_with("cache:      ") && cache_line.contains("miss(es)"),
            "{cache_line}"
        );
        assert!(
            lines.next().is_none(),
            "unexpected extra lines:\n{rendered}"
        );
    }

    /// A `certain` query over a `choice of` with enough distinct values
    /// trips the per-node factorization rule: the implicit worlds peak at
    /// the choice but collapse at the `cert`, so the whole plan runs
    /// factored and EXPLAIN reports the per-node decisions.
    #[test]
    fn explain_reports_factorized_rep_for_many_worlds() {
        let _guard = toggle_lock();
        relalg::config::set_factorize_enabled(Some(true));
        let mut s = Session::new();
        let rel = Relation::from_rows(
            relalg::Schema::of(&["K", "V"]),
            (0..20i64).map(|i| vec![relalg::Value::Int(i), relalg::Value::Int(i % 3)]),
        )
        .unwrap();
        s.register("T", rel).unwrap();
        let e = s.explain("select certain V from T choice of K;").unwrap();
        relalg::config::set_factorize_enabled(None);
        assert_eq!(e.rep, "factored");
        assert!(e.implicit_worlds >= 20, "{}", e.implicit_worlds);
        let rendered = e.render();
        assert!(
            rendered.contains("rep:        factored (peak ≈"),
            "{rendered}"
        );
        // The region root converts at the output; everything below is F.
        assert!(rendered.contains("rep=convert"), "{rendered}");
        assert!(rendered.contains("χ  rep=F ≈20"), "{rendered}");
        // A χ-ended query decodes its peak at the output: enumerated.
        let e2 = s.explain("select * from T choice of K;").unwrap();
        assert_eq!(e2.rep, "enum");
        // With the toggle off every node is enumerated; the estimate stays.
        relalg::config::set_factorize_enabled(Some(false));
        let off = s.explain("select certain V from T choice of K;").unwrap();
        relalg::config::set_factorize_enabled(None);
        assert_eq!(off.rep, "enum");
        assert_eq!(off.implicit_worlds, e.implicit_worlds);
        let rendered = off.render();
        assert!(rendered.contains("rep:        enum (peak ≈"), "{rendered}");
        let nodes: Vec<&str> = rendered.lines().filter(|l| l.contains("  rep=")).collect();
        assert_eq!(nodes.len(), off.rep_plan.len(), "{rendered}");
        assert!(nodes.iter().all(|l| l.contains("  rep=E ≈")), "{rendered}");
    }

    #[test]
    fn explain_rejects_non_select() {
        let s = session();
        assert!(s.explain("delete from HFlights;").is_err());
    }

    #[test]
    fn explain_execution_agrees_with_interpreter() {
        let mut s = session();
        let sql = "select certain Arr from HFlights choice of Dep;";
        let e = s.explain(sql).unwrap();
        let plan = e.relational_plan.unwrap();
        let mut catalog = relalg::Catalog::new();
        catalog.put(
            "HFlights",
            s.world_set().iter().next().unwrap().rel(0).clone(),
        );
        let via_plan = catalog.eval(&plan).unwrap();

        let out = s.execute(sql).unwrap();
        let crate::ExecOutcome::Rows { answers, .. } = &out[0] else {
            panic!()
        };
        // Same tuples; the plan's columns carry alias qualification.
        assert_eq!(via_plan.len(), answers[0].len());
        let plan_vals: Vec<_> = via_plan.iter().cloned().collect();
        let interp_vals: Vec<_> = answers[0].iter().cloned().collect();
        assert_eq!(plan_vals, interp_vals);
    }
}
