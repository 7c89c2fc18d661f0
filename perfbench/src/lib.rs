//! Seeded wire-level benchmark of RecDB-rs.
//!
//! One command starts an in-process `recdb_server::Server` over an
//! `Arc<RecDb>`, loads generated data through SQL, drives the server from
//! two closed-loop wire connections, checks the answers, and prints every
//! metric by name with its unit and sample count. See `METRICS.md` for the
//! workloads and what each metric should move.

pub mod check;
pub mod drive;
pub mod json;
pub mod layers;
pub mod run;
pub mod setup;
pub mod spans;
pub mod stats;
pub mod workload;

/// End-to-end metrics in the result line of an untraced run: those
/// defined on every workload, as listed in `BENCHMARK.json`.
pub const RESULT_END_TO_END: [&str; 6] = [
    "setup_s",
    "model_build_s",
    "rec_qps",
    "rec_p50_us",
    "rec_p99_us",
    "peak_rss_mb",
];
