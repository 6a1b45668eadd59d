//! A counting, timing [`Env`] wrapper around the real filesystem.
//!
//! The durable workload hands this to `Engine::open_on`, so every WAL
//! append, fsync, snapshot write and recovery read the engine performs is
//! counted and timed here, in the benchmark's own code, with no change to
//! the storage layer. Per-call durations are kept so medians can be
//! reported; the bookkeeping (an atomic add and an uncontended lock per
//! operation) is negligible next to an fsync.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use isql::env::{Env, StdEnv};

/// Counters and per-call durations (microseconds) of one operation kind.
#[derive(Debug, Default)]
pub struct OpStats {
    bytes: AtomicU64,
    durations_us: Mutex<Vec<f64>>,
}

impl OpStats {
    fn record(&self, bytes: usize, took: Duration) {
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.durations_us
            .lock()
            .expect("op stats lock poisoned")
            .push(took.as_secs_f64() * 1e6);
    }

    /// Calls made so far.
    pub fn calls(&self) -> u64 {
        self.durations_us
            .lock()
            .expect("op stats lock poisoned")
            .len() as u64
    }

    /// A copy of the counters so far.
    pub fn snapshot(&self) -> OpSnapshot {
        OpSnapshot {
            bytes: self.bytes.load(Ordering::Relaxed),
            durations_us: self
                .durations_us
                .lock()
                .expect("op stats lock poisoned")
                .clone(),
        }
    }
}

/// A point-in-time copy of [`OpStats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpSnapshot {
    /// Bytes moved by the operation kind.
    pub bytes: u64,
    /// Per-call durations in microseconds, in completion order.
    pub durations_us: Vec<f64>,
}

impl OpSnapshot {
    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.durations_us.len() as u64
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &OpSnapshot) -> OpSnapshot {
        OpSnapshot {
            bytes: self.bytes - earlier.bytes,
            durations_us: self.durations_us[earlier.durations_us.len()..].to_vec(),
        }
    }
}

/// Every counted operation kind.
#[derive(Debug, Default)]
pub struct EnvStats {
    /// WAL appends.
    pub append: OpStats,
    /// fsyncs of appended files.
    pub sync: OpStats,
    /// Atomic whole-file writes (snapshots).
    pub write_atomic: OpStats,
    /// Whole-file reads (recovery).
    pub read: OpStats,
    in_flight: AtomicU64,
    last_end: Mutex<Option<Instant>>,
}

impl EnvStats {
    fn begin(&self) -> Instant {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        Instant::now()
    }

    fn end(&self, op: &OpStats, bytes: usize, start: Instant) {
        op.record(bytes, start.elapsed());
        *self.last_end.lock().expect("env stats lock poisoned") = Some(Instant::now());
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    fn end_uncounted(&self) {
        *self.last_end.lock().expect("env stats lock poisoned") = Some(Instant::now());
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Block until no operation is in flight and none has ended for
    /// `quiet`, or until `limit` passes; returns whether it went quiet.
    /// The engine writes snapshots on a detached thread, so this is how
    /// the benchmark knows the data directory has stopped changing before
    /// it copies it.
    pub fn wait_quiet(&self, quiet: Duration, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            let idle = self.in_flight.load(Ordering::SeqCst) == 0
                && self
                    .last_end
                    .lock()
                    .expect("env stats lock poisoned")
                    .is_none_or(|t| t.elapsed() >= quiet);
            if idle {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(quiet / 4);
        }
    }
}

/// [`StdEnv`] plus [`EnvStats`].
#[derive(Debug)]
pub struct CountingEnv {
    inner: StdEnv,
    stats: Arc<EnvStats>,
}

impl CountingEnv {
    /// Wrap a [`StdEnv`] rooted at `dir`.
    pub fn new(dir: &std::path::Path) -> io::Result<CountingEnv> {
        Ok(CountingEnv {
            inner: StdEnv::new(dir)?,
            stats: Arc::new(EnvStats::default()),
        })
    }

    /// Shared handle on the counters.
    pub fn stats(&self) -> Arc<EnvStats> {
        self.stats.clone()
    }
}

impl Env for CountingEnv {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let t = self.stats.begin();
        let out = self.inner.read(name);
        let n = out.as_ref().map_or(0, |b| b.len());
        self.stats.end(&self.stats.read, n, t);
        out
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let t = self.stats.begin();
        let out = self.inner.append(name, data);
        self.stats.end(&self.stats.append, data.len(), t);
        out
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let t = self.stats.begin();
        let out = self.inner.sync(name);
        self.stats.end(&self.stats.sync, 0, t);
        out
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let t = self.stats.begin();
        let out = self.inner.write_atomic(name, data);
        self.stats.end(&self.stats.write_atomic, data.len(), t);
        out
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.stats.begin();
        let out = self.inner.remove(name);
        self.stats.end_uncounted();
        out
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.stats.begin();
        let out = self.inner.list();
        self.stats.end_uncounted();
        out
    }
}
