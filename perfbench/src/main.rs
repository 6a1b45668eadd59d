//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--processes <n>]`
//!
//! With `--trace 0`, runs the workload untraced and prints the end-to-end
//! metrics; the run is split over `--processes` processes run one after
//! another (default: [`default_processes`]), each measuring its share of
//! the time, and each metric is the mean over them. With `--trace 1`, runs
//! it in one process, untraced for half the time and then traced over the
//! same requests, and prints the per-layer metrics (plus the tracing
//! overhead); the spans go to `perfbench/work/trace-<workload>.tsv`.
//! Diagnostics go to standard error; the last line of standard output is
//! the JSON result. Exits 2 without a result on a usage error, a failed
//! set-up, or any `WSDB_*` variable in the environment.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use perfbench::report::{self, Metric};
use perfbench::trace::write_tsv;
use perfbench::workloads::{self, Limit, Measured, RunConfig};

const WORKLOADS: [&str; 3] = ["world_queries", "session_stream", "durable_writes"];

/// Execution-pool workers. Pinned rather than taken from the host: on a
/// shared two-CPU host a fan-out often waits for a descheduled second
/// worker, which roughly doubled `world_queries` median latency and its
/// run-to-run spread. The workloads keep their request-level concurrency
/// (server and client threads, two durable clients).
const POOL_THREADS: usize = 1;

/// Processes an untraced run of `workload` is split over. A
/// `world_queries` process settles into one of two speeds about a tenth
/// apart, seen in its heavy statements (the slower processes also peak
/// some 5 MiB higher in memory), so one process's `read_p90_ms` jumped
/// between the two from run to run; the mean over three processes moves
/// less. The other workloads showed no such split and run in one.
fn default_processes(workload: &str) -> usize {
    if workload == "world_queries" {
        3
    } else {
        1
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    processes: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut processes = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--processes" => {
                processes = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(bad)?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        processes,
    })
}

/// The commit the checkout was taken from, read from `.git` without
/// leaving the current directory; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn run_workload(name: &str, cfg: &RunConfig) -> Result<Measured, String> {
    match name {
        "world_queries" => workloads::world_queries(cfg),
        "session_stream" => workloads::session_stream(cfg),
        _ => workloads::durable_writes(cfg),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    // The measured program's configuration is pinned by this benchmark;
    // an inherited toggle (a CI leg's WSDB_NO_REWRITE, a WSDB_DATA_DIR)
    // would silently change what is measured.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("WSDB_"))
        .collect();
    if !set.is_empty() {
        return Err(format!("refusing to run with {} set", set.join(", ")));
    }
    let processes = args
        .processes
        .unwrap_or_else(|| default_processes(&args.workload));
    if !args.trace && processes > 1 {
        return pooled(&args, processes);
    }
    relalg::pool::set_threads(POOL_THREADS);
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} pool_threads={} cpus={} rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        relalg::pool::num_threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_rev(),
    );

    // A traced run is an untraced half followed by a traced replay of the
    // same requests, which takes longer; halving keeps it near the
    // untraced run's length.
    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced_cfg = RunConfig {
        seed: args.seed,
        limit: Limit::Time(Duration::from_secs_f64(untraced_seconds)),
        trace: false,
        work_dir: work_dir.clone(),
    };
    let untraced = run_workload(&args.workload, &untraced_cfg)?;
    let rss = report::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let e2e = report::end_to_end(&untraced, rss);
    let mut problems: Vec<String> = untraced.failures.clone();
    if let Err(e) = &e2e {
        problems.push(e.clone());
    }
    let e2e: Vec<Metric> = e2e.unwrap_or_default();
    eprintln!("untraced run:\n{}", report::describe(&untraced, &e2e));

    let (metrics, attempted, failed) = if args.trace {
        let traced_cfg = RunConfig {
            limit: Limit::Count(untraced.per_client.clone()),
            trace: true,
            ..untraced_cfg
        };
        let traced = run_workload(&args.workload, &traced_cfg)?;
        problems.extend(traced.failures.iter().cloned());
        // One file per workload, overwritten by the next traced run.
        let path = work_dir.join(format!("trace-{}.tsv", args.workload));
        write_tsv(&traced.spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        let layers = report::per_layer(&untraced, &traced);
        eprintln!(
            "traced run ({} spans in {}):\n{}",
            traced.spans.len(),
            path.display(),
            report::describe(&traced, &layers)
        );
        (
            layers,
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
        )
    } else {
        (e2e.clone(), untraced.attempted, untraced.failed)
    };
    for p in &problems {
        eprintln!("perfbench: problem: {p}");
    }
    let correct = problems.is_empty() && failed == 0 && !e2e.is_empty();
    Ok(report::json_line(
        correct,
        attempted.max(1),
        failed,
        &metrics,
    ))
}

/// An untraced run split over `n` processes of this program, run one
/// after another, each for `seconds / n` on the same inputs; their results
/// are pooled by [`report::pool_outcomes`]. Fails, printing no result, if
/// any process fails.
fn pooled(args: &Args, n: usize) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let seed = args.seed.to_string();
    let seconds = (args.seconds / n as f64).to_string();
    let mut parts = Vec::with_capacity(n);
    for i in 0..n {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", "0", "--processes", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("process {i}: {e}"))?;
        if !out.status.success() {
            return Err(format!("process {i} failed: {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("process {i} printed no result"))?;
        parts.push(report::parse_json_line(line)?);
    }
    let all = report::pool_outcomes(&parts)?;
    eprintln!("pooled over {n} processes:");
    for m in &all.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(report::json_line(
        all.correct,
        all.attempted.max(1),
        all.failed,
        &all.metrics,
    ))
}
