//! Tests of the benchmark's own machinery: order statistics, span
//! self-time, generator determinism, the answer checks, and the metric
//! names `BENCHMARK.json` declares.

use std::collections::BTreeMap;

use isql::server::execute_rendered;
use isql::Engine;
use perfbench::check::{answer_ok, recovered_matches, reference_answer, stream_mismatches};
use perfbench::gen::{self, DurableStream, SessionStream, WorldQueries};
use perfbench::report::{
    end_to_end, json_line, parse_json_line, per_layer, pool_outcomes, Metric, Outcome,
};
use perfbench::stats::{
    drift_ratio, highest_supported_percentile, median, percentile, samples_beyond, summarize,
    TAIL_SAMPLES,
};
use perfbench::trace::{self_times, Span};
use perfbench::workloads::{Measured, Sample};
use relalg::Relation;

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn p90_needs_ten_samples_beyond_it() {
    assert_eq!(TAIL_SAMPLES, 10);
    assert_eq!(samples_beyond(100, 90), 10);
    assert_eq!(percentile(&ramp(100), 90), Some(90.0));
    // 99 samples leave only 9 beyond the 90th percentile.
    assert_eq!(samples_beyond(99, 90), 9);
    assert_eq!(percentile(&ramp(99), 90), None);
    assert_eq!(highest_supported_percentile(100), Some(90));
    assert_eq!(highest_supported_percentile(1000), Some(99));
    assert_eq!(highest_supported_percentile(10), None);
    // Order of arrival does not matter.
    let mut shuffled = ramp(200);
    shuffled.reverse();
    assert_eq!(percentile(&shuffled, 90), Some(180.0));
}

#[test]
fn summary_reports_its_sample_count() {
    let s = summarize(&ramp(150)).unwrap();
    assert_eq!(s.n, 150);
    assert_eq!(s.p50, 75.5);
    assert_eq!(s.p90, Some(135.0));
    let small = summarize(&ramp(50)).unwrap();
    assert_eq!(small.n, 50);
    assert_eq!(small.p90, None);
    assert_eq!(summarize(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
}

#[test]
fn drift_compares_session_ends_per_statement_kind() {
    // Two kinds, 10x apart, alternating; no slowdown: ratio 1.
    let flat: Vec<f64> = (0..200)
        .map(|i| if i % 2 == 0 { 1.0 } else { 10.0 })
        .collect();
    let kinds: Vec<usize> = (0..200).map(|i| i % 2).collect();
    let one = vec![0; 200];
    assert_eq!(drift_ratio(&flat, &kinds, &one), Some(1.0));
    // The same kinds, every sample twice as slow in the last tenth.
    let mut slow = flat.clone();
    for s in &mut slow[180..] {
        *s *= 2.0;
    }
    let r = drift_ratio(&slow, &kinds, &one).unwrap();
    assert!(r > 1.9 && r < 2.1, "{r}");
    // Two sessions that each double from start to end: ratio 2 even
    // though the second session starts where the first began.
    let two: Vec<f64> = (0..400).map(|i| 1.0 + (i % 200) as f64 / 199.0).collect();
    let segments: Vec<usize> = (0..400).map(|i| i / 200).collect();
    let r = drift_ratio(&two, &vec![0; 400], &segments).unwrap();
    assert!(r > 1.7 && r < 2.1, "{r}");
    // Too few samples per tenth.
    assert_eq!(drift_ratio(&ramp(50), &vec![0; 50], &vec![0; 50]), None);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        req: 0,
    }
}

#[test]
fn self_time_subtracts_covered_child_time_once() {
    let spans = vec![
        span("request", 0, 100, None),   // 0
        span("parser", 10, 30, Some(0)), // 1
        span("run", 20, 50, Some(0)),    // 2: overlaps 1
        span("eval", 25, 45, Some(2)),   // 3: grandchild
        span("render", 60, 70, Some(0)), // 4
        span("late", 95, 120, Some(0)),  // 5: runs past its parent
        span("other", 0, 40, None),      // 6: unrelated root
    ];
    let selfs = self_times(&spans);
    // Children cover [10,50) ∪ [60,70) ∪ [95,100) = 55 of 100.
    assert_eq!(selfs[0], 45);
    assert_eq!(selfs[1], 20);
    assert_eq!(selfs[2], 10); // 30 minus its child's 20
    assert_eq!(selfs[3], 20);
    assert_eq!(selfs[4], 10);
    assert_eq!(selfs[5], 25);
    assert_eq!(selfs[6], 40);
}

#[test]
fn generators_are_deterministic_per_seed() {
    let take = |seed| {
        let mut w = WorldQueries::new(seed);
        let picks: Vec<(usize, usize)> = (0..100).map(|_| w.next_request()).collect();
        (w.pool().to_vec(), picks)
    };
    assert_eq!(take(5), take(5));
    assert_ne!(take(5), take(6));

    let stream = |seed| {
        let mut s = SessionStream::new(seed);
        (0..200).map(|_| s.next_statement()).collect::<Vec<_>>()
    };
    assert_eq!(stream(5), stream(5));
    assert_ne!(stream(5), stream(6));
    assert_eq!(stream(5).iter().filter(|s| s.write).count(), 10);

    let durable = |seed, session| {
        let mut s = DurableStream::new(seed, session);
        (0..100).map(|_| s.next_statement()).collect::<Vec<_>>()
    };
    assert_eq!(durable(5, 0), durable(5, 0));
    assert_ne!(durable(5, 0), durable(5, 1));
    assert_ne!(durable(5, 0), durable(6, 0));

    let a = gen::world_catalog(5);
    let b = gen::world_catalog(5);
    assert_eq!(
        a.tables.iter().map(|(n, r)| (n, r)).collect::<Vec<_>>(),
        b.tables.iter().map(|(n, r)| (n, r)).collect::<Vec<_>>()
    );
}

#[test]
fn world_flights_are_balanced() {
    let flights = |seed| {
        let cat = gen::world_catalog(seed);
        cat.tables
            .into_iter()
            .find(|(name, _)| *name == "Flights")
            .expect("a Flights table")
            .1
    };
    for seed in [5, 6] {
        let mut per_dep: BTreeMap<String, usize> = BTreeMap::new();
        let mut per_arr: BTreeMap<String, usize> = BTreeMap::new();
        for t in flights(seed).iter() {
            *per_dep
                .entry(t[0].as_str().unwrap().to_string())
                .or_default() += 1;
            *per_arr
                .entry(t[1].as_str().unwrap().to_string())
                .or_default() += 1;
        }
        // Every departure: HUB plus six distinct cities.
        assert_eq!(per_dep.len(), 32);
        assert!(per_dep.values().all(|&n| n == 7), "{per_dep:?}");
        // Every city but HUB: reached from twelve departures.
        assert_eq!(per_arr.remove("HUB"), Some(32));
        assert_eq!(per_arr.len(), 16);
        assert!(per_arr.values().all(|&n| n == 12), "{per_arr:?}");
    }
    assert_ne!(flights(5), flights(6));
}

fn world_engine(seed: u64) -> Engine {
    let engine = Engine::new();
    let mut admin = engine.session();
    for (name, rel) in gen::world_catalog(seed).tables {
        admin.register(name, rel).unwrap();
    }
    engine
}

#[test]
fn world_check_rejects_a_wrong_reference() {
    let engine = world_engine(3);
    let sql = "select certain Arr from Flights choice of Dep;";
    let reference = reference_answer(&engine, sql);
    let got = execute_rendered(&mut engine.session(), sql);
    assert!(reference.as_ref().unwrap().contains("HUB"));
    assert!(answer_ok(&got, &reference));
    let wrong = Ok(reference.clone().unwrap().replace("HUB", "FRA"));
    assert!(!answer_ok(&got, &wrong));
    // An error is a failure even when the reference errs the same way.
    let err = Err("unknown relation Nope\n".to_string());
    assert!(!answer_ok(&err, &err));
}

#[test]
fn stream_check_rejects_a_wrong_response() {
    let engine = world_engine(3);
    let sql = "select Name, City from Hotels where Name = 'H0001';".to_string();
    let right = execute_rendered(&mut engine.session(), &sql);
    assert_eq!(
        stream_mismatches(&mut engine.session(), &[(sql.clone(), right.clone())]),
        0
    );
    let wrong = Ok(right.unwrap().replace("Q1", "Q2"));
    assert_eq!(stream_mismatches(&mut engine.session(), &[(sql, wrong)]), 1);
}

#[test]
fn recovery_check_rejects_a_different_catalog() {
    let engine = Engine::new();
    let mut s = engine.session();
    s.register("R", Relation::table(&["A"], &[&["x"]])).unwrap();
    let published = engine.snapshot();
    assert_eq!(recovered_matches(&published, &published), Ok(()));

    // Same sequence number, different content.
    let other = Engine::new();
    let mut t = other.session();
    t.register("R", Relation::table(&["A"], &[&["y"]])).unwrap();
    assert!(recovered_matches(&other.snapshot(), &published).is_err());

    // A later state of the same catalog.
    s.execute("insert into R values ('z');").unwrap();
    assert!(recovered_matches(&engine.snapshot(), &published).is_err());
}

/// The `name` values of one top-level array of `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let mut m = Measured {
        window_s: 1.0,
        ..Measured::default()
    };
    m.samples = (0..200)
        .map(|i| Sample {
            ms: 1.0 + i as f32,
            done_at_s: i as f32 / 200.0,
            kind: 0,
            segment: 0,
            write: false,
        })
        .collect();
    let e2e: Vec<String> = end_to_end(&m, 1.0)
        .unwrap()
        .into_iter()
        .map(|x| x.name)
        .collect();
    assert_eq!(declared(&json, "end_to_end"), e2e);
    let layers: Vec<String> = per_layer(&m, &m).into_iter().map(|x| x.name).collect();
    assert_eq!(declared(&json, "per_layer"), layers);
}

fn outcome(correct: bool, attempted: u64, failed: u64, values: &[(&str, f64)]) -> Outcome {
    Outcome {
        correct,
        attempted,
        failed,
        metrics: values
            .iter()
            .map(|&(name, value)| Metric {
                name: name.to_string(),
                value,
                unit: "ms",
            })
            .collect(),
    }
}

#[test]
fn result_line_parses_back() {
    let mut o = outcome(
        true,
        1234,
        0,
        &[("read_p50_ms", 1.25), ("read_p90_ms", 4.19e-5)],
    );
    o.metrics[1].unit = "stmt/s";
    let line = json_line(o.correct, o.attempted, o.failed, &o.metrics);
    assert_eq!(parse_json_line(&line), Ok(o));
    assert_eq!(
        parse_json_line(&json_line(false, 1, 1, &[])),
        Ok(outcome(false, 1, 1, &[]))
    );
    assert!(parse_json_line("perfbench: refusing to run").is_err());
    assert!(parse_json_line(&line.replace("stmt/s", "furlongs")).is_err());
}

#[test]
fn pooled_parts_average_metrics_and_add_counts() {
    let a = outcome(true, 10, 0, &[("x", 1.0), ("y", 10.0)]);
    let b = outcome(true, 20, 1, &[("x", 2.0), ("y", 20.0)]);
    let c = outcome(false, 30, 0, &[("x", 6.0), ("y", 30.0)]);
    let pooled = pool_outcomes(&[a.clone(), b, c]).unwrap();
    assert_eq!(pooled, outcome(false, 60, 1, &[("x", 3.0), ("y", 20.0)]));
    assert_eq!(pool_outcomes(std::slice::from_ref(&a)), Ok(a.clone()));
    let other = outcome(true, 10, 0, &[("y", 1.0), ("x", 10.0)]);
    assert!(pool_outcomes(&[a, other]).is_err());
    assert!(pool_outcomes(&[]).is_err());
}
