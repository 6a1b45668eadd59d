//! Order statistics for latency samples.
//!
//! A tail percentile is reported only where the sample supports it: at
//! least [`TAIL_SAMPLES`] samples must lie beyond it, so a single slow
//! request cannot be the whole tail.

use std::collections::BTreeMap;

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The median (mean of the two middle values for an even count); `None`
/// for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// 1-based nearest rank of the `pct`-th percentile among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// Number of samples strictly beyond the `pct`-th percentile of `n`.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The highest whole percentile of `n` samples that still has at least
/// [`TAIL_SAMPLES`] samples beyond it; `None` when the sample is too small
/// for any.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    (1..100)
        .rev()
        .find(|&p| samples_beyond(n, p) >= TAIL_SAMPLES)
}

/// The nearest-rank `pct`-th percentile, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    if samples_beyond(samples.len(), pct) < TAIL_SAMPLES {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), pct) - 1])
}

/// How much slower the end of a session ran than its start: the median
/// of the last tenth of each session's samples divided by the median of
/// the first tenth, pooled over sessions (`segments[i]` is the session of
/// `samples[i]`; samples in the order they were sent). Each sample is first divided by
/// the median of all samples of its kind (`kinds[i]`), so a tenth that
/// happened to draw more of a slow kind does not read as drift. `None`
/// when the pooled tenths hold fewer than ten samples.
pub fn drift_ratio(samples: &[f64], kinds: &[usize], segments: &[usize]) -> Option<f64> {
    assert!(
        samples.len() == kinds.len() && samples.len() == segments.len(),
        "one kind and one segment per sample"
    );
    let mut by_kind: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut by_segment: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, (&s, &k)) in samples.iter().zip(kinds).enumerate() {
        by_kind.entry(k).or_default().push(s);
        by_segment.entry(segments[i]).or_default().push(i);
    }
    let kind_median: BTreeMap<usize, f64> = by_kind
        .into_iter()
        .map(|(k, v)| (k, median(&v).expect("non-empty kind")))
        .collect();
    let normalized = |i: usize| samples[i] / kind_median[&kinds[i]];
    let (mut first, mut last) = (Vec::new(), Vec::new());
    for idx in by_segment.values() {
        let tenth = idx.len() / 10;
        first.extend(idx[..tenth].iter().map(|&i| normalized(i)));
        last.extend(idx[idx.len() - tenth..].iter().map(|&i| normalized(i)));
    }
    if first.len() < 10 {
        return None;
    }
    Some(median(&last)? / median(&first)?)
}

/// A latency sample summarised as the benchmark reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile (`None` when fewer than [`TAIL_SAMPLES`] lie beyond).
    pub p90: Option<f64>,
}

/// Summarise a sample; `None` when it is empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    Some(Summary {
        n: samples.len(),
        p50: median(samples)?,
        p90: percentile(samples, 90),
    })
}
