//! Turning measurements into the named metrics the benchmark prints.
//!
//! End-to-end metrics come from the untraced run. Per-layer metrics come
//! from the traced run, which repeats the untraced run's request counts
//! with spans on; the workload-specific end-to-end figures (write
//! latency, recovery, bytes per commit) ride along with them, and the
//! tracing overhead is the traced run's end-to-end numbers against the
//! untraced run's.

use std::fmt::Write as _;

use crate::request::Layers;
use crate::stats::{highest_supported_percentile, median, summarize, Summary, TAIL_SAMPLES};
use crate::trace::{layer_stats, metric_names};
use crate::workloads::Measured;

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Span names timed in the traced run, in report order.
pub const SPANS: [&str; 9] = [
    "parser",
    "compile",
    "rewrite",
    "factorized.plan",
    "factorized.eval",
    "session.run",
    "engine.commit",
    "server.request",
    "server.render",
];

/// Summary of a latency sample, or why it cannot be reported.
fn summary(samples: &[f64], what: &str) -> Result<Summary, String> {
    let s = summarize(samples).ok_or_else(|| format!("no {what} samples"))?;
    if s.p90.is_none() {
        return Err(format!("{} {what} samples support no p90", s.n));
    }
    Ok(s)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics of an untraced run. Errors name a metric the
/// run could not measure.
pub fn end_to_end(m: &Measured, rss_mb: f64) -> Result<Vec<Metric>, String> {
    let reads = summary(&m.reads_ms(), "read")?;
    let drift = m.read_drift().ok_or("too few reads for read_drift_ratio")?;
    Ok(vec![
        metric("setup_s", m.setup_s, "s"),
        metric("throughput_rps", m.throughput(), "stmt/s"),
        metric("read_p50_ms", reads.p50, "ms"),
        metric("read_p90_ms", reads.p90.expect("checked"), "ms"),
        metric("read_drift_ratio", drift, "ratio"),
        metric("peak_rss_mb", rss_mb, "MiB"),
    ])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics: `traced` supplies spans and counters,
/// `untraced` the workload-specific end-to-end figures and the baseline
/// for the tracing overhead. A layer a workload does not cross reports 0.
pub fn per_layer(untraced: &Measured, traced: &Measured) -> Vec<Metric> {
    let mut out = Vec::new();
    let stats = layer_stats(&traced.spans);
    for span in SPANS {
        let (per_call, calls, busy) = metric_names(span);
        let s = stats.get(span);
        out.push(metric(per_call, s.map_or(0.0, |s| s.median_us), "us"));
        out.push(metric(calls, s.map_or(0.0, |s| s.calls as f64), "count"));
        out.push(metric(busy, s.map_or(0.0, |s| s.busy_s), "s"));
    }
    let self_us = stats.get("request").map_or(0.0, |s| s.median_self_us);
    out.push(metric("request.self_us", self_us, "us"));

    let l: &Layers = &traced.layers;
    out.push(metric(
        "rewrite.changed_ratio",
        ratio(l.rewrite_changed as f64, l.rewrite_attempts as f64),
        "ratio",
    ));
    out.push(metric(
        "factorized.f_node_ratio",
        ratio(l.plan_f_nodes as f64, l.plan_nodes as f64),
        "ratio",
    ));
    out.push(metric("factorized.peak_worlds", l.peak_worlds, "worlds"));
    out.push(metric(
        "factorized.fallback_ratio",
        ratio(l.fallbacks as f64, l.planned_f as f64),
        "ratio",
    ));
    out.push(metric("session.relations", l.max_relations as f64, "count"));
    out.push(metric("session.worlds", l.max_worlds as f64, "worlds"));
    out.push(metric(
        "plan_cache.hit_ratio",
        ratio(l.cache_hits as f64, l.cache_lookups as f64),
        "ratio",
    ));
    out.push(metric(
        "plan_cache.lookups",
        l.cache_lookups as f64,
        "count",
    ));
    out.push(metric(
        "server.overhead_us",
        median(&l.overhead_us).unwrap_or(0.0),
        "us",
    ));
    out.push(metric(
        "server.response_bytes",
        median(&l.response_bytes).unwrap_or(0.0),
        "B",
    ));

    let env = untraced.env.clone().unwrap_or_default();
    let busy = |d: &[f64]| d.iter().fold(0.0, |a, b| a + b) / 1e6;
    let med = |d: &[f64]| median(d).unwrap_or(0.0);
    out.extend([
        metric("env.appends", env.append.calls() as f64, "count"),
        metric("env.append_bytes", env.append.bytes as f64, "B"),
        metric("env.append_us", med(&env.append.durations_us), "us"),
        metric("env.append.busy_s", busy(&env.append.durations_us), "s"),
        metric("env.syncs", env.sync.calls() as f64, "count"),
        metric("env.sync_us", med(&env.sync.durations_us), "us"),
        metric("env.sync.busy_s", busy(&env.sync.durations_us), "s"),
        metric(
            "env.commits_per_sync",
            ratio(env.commits as f64, env.sync.calls() as f64),
            "ratio",
        ),
        metric("env.snapshots", env.snapshot.calls() as f64, "count"),
        metric("env.snapshot_bytes", env.snapshot.bytes as f64, "B"),
        metric("env.snapshot_us", med(&env.snapshot.durations_us), "us"),
        metric("env.snapshot.busy_s", busy(&env.snapshot.durations_us), "s"),
        metric(
            "env.recovery_read_bytes",
            env.recovery_read_bytes as f64,
            "B",
        ),
    ]);

    let writes = summarize(&untraced.writes_ms());
    out.push(metric(
        "write_p50_ms",
        writes.as_ref().map_or(0.0, |s| s.p50),
        "ms",
    ));
    out.push(metric(
        "write_p90_ms",
        writes.and_then(|s| s.p90).unwrap_or(0.0),
        "ms",
    ));
    out.push(metric(
        "recovery_s",
        untraced.recovery_s.unwrap_or(0.0),
        "s",
    ));
    out.push(metric(
        "disk_bytes_per_commit",
        ratio(
            (env.append.bytes + env.snapshot.bytes) as f64,
            env.commits as f64,
        ),
        "B",
    ));

    let p50 = |m: &Measured| median(&m.reads_ms()).unwrap_or(0.0);
    out.push(metric(
        "trace.overhead_read_p50",
        ratio(p50(traced), p50(untraced)) - 1.0,
        "ratio",
    ));
    out.push(metric(
        "trace.overhead_throughput",
        ratio(untraced.throughput(), traced.throughput()) - 1.0,
        "ratio",
    ));
    out
}

/// Human-readable lines for a run: every metric with its unit, plus the
/// sample counts behind the latency figures.
pub fn describe(m: &Measured, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for (what, samples) in [("read", m.reads_ms()), ("write", m.writes_ms())] {
        if let Some(s) = summarize(&samples) {
            let p90 = s.p90.map_or("n/a".to_string(), |v| format!("{v:.4}"));
            let tail = highest_supported_percentile(s.n).map_or("none".into(), |p| format!("p{p}"));
            let _ = writeln!(
                out,
                "  {what}: n={} p50={:.4} ms p90={p90} ms (highest percentile with {TAIL_SAMPLES} beyond: {tail})",
                s.n, s.p50
            );
        }
    }
    for x in metrics {
        let _ = writeln!(out, "  {:<28} {:>16.6} {}", x.name, x.value, x.unit);
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, x) in metrics.iter().enumerate() {
        let value = if x.value.is_finite() { x.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            x.name, x.unit
        );
    }
    out.push_str("}}");
    out
}

/// A run's result: what [`json_line`] prints.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Every answer and end-of-run check was right.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The metrics, in the order printed.
    pub metrics: Vec<Metric>,
}

/// Every unit a metric of this benchmark is reported in.
const UNITS: [&str; 9] = [
    "s", "stmt/s", "ms", "us", "ratio", "MiB", "count", "worlds", "B",
];

/// Parse a line printed by [`json_line`] (and only such a line: this is
/// not a general JSON parser).
pub fn parse_json_line(line: &str) -> Result<Outcome, String> {
    let bad = || format!("not a result line: {line:?}");
    let field = |rest: &str, key: &str| -> Option<(String, String)> {
        let rest = rest.strip_prefix(&format!("\"{key}\": "))?;
        let (value, rest) = rest.split_once(", ")?;
        Some((value.to_string(), rest.to_string()))
    };
    let rest = line.trim().strip_prefix('{').ok_or_else(bad)?;
    let (correct, rest) = field(rest, "correct").ok_or_else(bad)?;
    let (attempted, rest) = field(&rest, "attempted").ok_or_else(bad)?;
    let (failed, rest) = field(&rest, "failed").ok_or_else(bad)?;
    let mut body = rest
        .strip_prefix("\"metrics\": {")
        .and_then(|r| r.strip_suffix("}}"))
        .ok_or_else(bad)?;
    let mut metrics = Vec::new();
    while !body.is_empty() {
        let (name, rest) = body
            .strip_prefix('"')
            .and_then(|r| r.split_once("\": {\"value\": "))
            .ok_or_else(bad)?;
        let (value, rest) = rest.split_once(", \"unit\": \"").ok_or_else(bad)?;
        let (unit, rest) = rest.split_once("\"}").ok_or_else(bad)?;
        let unit = UNITS
            .into_iter()
            .find(|u| *u == unit)
            .ok_or_else(|| format!("unknown unit {unit:?}"))?;
        metrics.push(metric(name, value.parse().map_err(|_| bad())?, unit));
        body = rest.strip_prefix(", ").unwrap_or(rest);
    }
    Ok(Outcome {
        correct: correct.parse().map_err(|_| bad())?,
        attempted: attempted.parse().map_err(|_| bad())?,
        failed: failed.parse().map_err(|_| bad())?,
        metrics,
    })
}

/// Pool the results of runs split over several processes: attempts and
/// failures add up, the run is correct only if every part is, and each
/// metric is the mean over the parts. The parts must report the same
/// metrics in the same order.
pub fn pool_outcomes(parts: &[Outcome]) -> Result<Outcome, String> {
    let first = parts.first().ok_or("no parts to pool")?;
    let mut metrics = first.metrics.clone();
    for part in &parts[1..] {
        let same = part.metrics.len() == metrics.len()
            && part
                .metrics
                .iter()
                .zip(&metrics)
                .all(|(a, b)| a.name == b.name);
        if !same {
            return Err("parts report different metrics".into());
        }
        for (m, x) in metrics.iter_mut().zip(&part.metrics) {
            m.value += x.value;
        }
    }
    for m in &mut metrics {
        m.value /= parts.len() as f64;
    }
    Ok(Outcome {
        correct: parts.iter().all(|p| p.correct),
        attempted: parts.iter().map(|p| p.attempted).sum(),
        failed: parts.iter().map(|p| p.failed).sum(),
        metrics,
    })
}
