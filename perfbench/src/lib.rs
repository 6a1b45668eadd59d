//! Request-level benchmark of the I-SQL engine.
//!
//! A request is I-SQL text in and a rendered answer out. Three seeded
//! workloads drive requests through the public API — `isql::Engine`,
//! `Session::run`, `isql::server::{serve, Client}` — check every answer,
//! and report end-to-end metrics; a traced run splits the same requests
//! by the layers they cross. See `BENCHMARK.json` at the repository root
//! for the metric list and why each workload was chosen.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload world_queries --seed 1 --seconds 10 --trace 0
//! ```

pub mod check;
pub mod envcount;
pub mod gen;
pub mod report;
pub mod request;
pub mod stats;
pub mod trace;
pub mod workloads;
