//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around its calls
//! into each layer's public functions. Each span carries a name, start and
//! end (nanoseconds since the tracer's origin), its parent span and the id
//! of the request it belongs to. Nothing is written until the run ends.
//!
//! A disabled tracer records nothing: `open`/`close` cost one branch.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary the span times (see [`metric_names`]).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub req: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one thread of requests.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    req: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer timing against `origin`; `on == false` records nothing.
    pub fn new(origin: Instant, on: bool) -> Tracer {
        Tracer {
            on,
            origin,
            req: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Set the request id stamped on spans opened from now on.
    pub fn request(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration in
    /// microseconds (0 when tracing is off).
    pub fn close(&mut self) -> f64 {
        if !self.on {
            return 0.0;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("close without a matching open");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.dur_ns() as f64 / 1e3
    }

    /// Take the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Concatenate span lists recorded by several tracers, re-basing parent
/// indices so they still point into the merged list.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, ks)| {
            ks.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in ks.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Metric names for a span name: `(median per call, call count, busy
/// total)`. Dotted names append `_us` (`factorized.plan` →
/// `factorized.plan_us`); bare names append `.us` (`parser` → `parser.us`).
pub fn metric_names(span: &str) -> (String, String, String) {
    let per_call = if span.contains('.') {
        format!("{span}_us")
    } else {
        format!("{span}.us")
    };
    (per_call, format!("{span}.calls"), format!("{span}.busy_s"))
}

/// Aggregate of one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerStat {
    /// Number of spans.
    pub calls: u64,
    /// Median span duration, microseconds.
    pub median_us: f64,
    /// Median self time, microseconds.
    pub median_self_us: f64,
    /// Total self time, seconds.
    pub busy_s: f64,
}

/// Per-name aggregates over a span list.
pub fn layer_stats(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.dur_ns() as f64 / 1e3);
        e.1.push(*own as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, (durs, selfs))| {
            let stat = LayerStat {
                calls: durs.len() as u64,
                median_us: median(&durs).unwrap_or(0.0),
                median_self_us: median(&selfs).unwrap_or(0.0),
                busy_s: selfs.iter().fold(0.0, |a, b| a + b) / 1e6,
            };
            (name, stat)
        })
        .collect()
}

/// Write spans as tab-separated lines under a header: `name`,
/// `start_ns`, `end_ns`, `parent` (index of the parent line, `-` for
/// none) and `req`.
pub fn write_tsv(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent\treq")?;
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}
