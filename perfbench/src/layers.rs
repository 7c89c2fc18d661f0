//! Per-layer attribution for the traced run.
//!
//! Two sources: deltas of the engine's public counters over the measured
//! phase, and an attribution pass after it that times, for a sample of the
//! read statements, each layer's public entry point in spans and reads the
//! operator tree of `EXPLAIN ANALYZE`.

use crate::spans::Recorder;
use recdb_core::RecDb;
use recdb_exec::{build_logical, optimize};
use recdb_server::Client;
use recdb_sql::Statement;
use std::collections::BTreeMap;

/// Operators reported one by one; every other operator adds to `other`.
pub const OPERATORS: [&str; 8] = [
    "SeqScan",
    "Filter",
    "FilterRecommend",
    "JoinRecommend",
    "IndexRecommend",
    "TopKSort",
    "Limit",
    "Project",
];

/// A reading of the engine's counters.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    values: BTreeMap<&'static str, f64>,
}

impl Counters {
    /// Read every counter the per-layer report uses.
    pub fn read(db: &RecDb) -> Counters {
        let snap = db.metrics_snapshot();
        let pool = db.buffer_pool();
        let (mut builds, mut build_micros) = (0u64, 0u64);
        for (key, h) in &snap.histograms {
            if key.starts_with("recdb_model_build_micros") {
                builds += h.count;
                build_micros += h.sum;
            }
        }
        let lock_wait_micros = snap
            .histogram("recdb_lock_wait_micros")
            .map_or(0, |h| h.sum);
        let values = [
            ("rows_scanned", snap.counter("recdb_rows_scanned_total")),
            ("rows_returned", snap.counter("recdb_rows_returned_total")),
            ("index_hits", snap.counter("recdb_recscoreindex_hits_total")),
            (
                "index_misses",
                snap.counter("recdb_recscoreindex_misses_total"),
            ),
            ("builds", builds),
            ("build_micros", build_micros),
            ("lock_waits", snap.counter("recdb_lock_waits_total")),
            ("lock_wait_micros", lock_wait_micros),
            ("wal_appends", snap.counter("recdb_wal_appends_total")),
            ("wal_bytes", snap.counter("recdb_wal_appended_bytes_total")),
            ("wal_fsyncs", snap.counter("recdb_wal_fsyncs_total")),
            (
                "replayed",
                snap.counter("recdb_recovery_replayed_records_total"),
            ),
            ("pool_hits", pool.hits()),
            ("pool_misses", pool.misses()),
            ("evictions", pool.evictions()),
        ];
        Counters {
            values: values.into_iter().map(|(k, v)| (k, v as f64)).collect(),
        }
    }

    /// `self − earlier` for every counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            values: self
                .values
                .iter()
                .map(|(&k, &v)| (k, v - earlier.get(k)))
                .collect(),
        }
    }

    /// Add `other` to `self`, counter by counter.
    pub fn add(&mut self, other: &Counters) {
        for (&k, &v) in &other.values {
            *self.values.entry(k).or_default() += v;
        }
    }

    /// The raw value of `key`.
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the attribution pass measured.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Statements attributed.
    pub statements: usize,
    /// `recdb_sql::parse` durations, µs.
    pub parse: Vec<f64>,
    /// `build_logical` + `optimize` durations, µs.
    pub plan: Vec<f64>,
    /// `Client::execute` minus in-process `RecDb::execute`, µs.
    pub wire: Vec<f64>,
    /// Summed operator self time by operator, µs.
    pub op_self: BTreeMap<String, f64>,
}

/// Attribute `sqls` (read-only statements) layer by layer.
pub fn attribute(
    db: &RecDb,
    client: &mut Client,
    sqls: &[&str],
    spans: &Recorder,
) -> Result<Attribution, String> {
    let mut out = Attribution::default();
    for (k, sql) in sqls.iter().enumerate() {
        let req = (1 << 48) | k as u64;
        let root = spans.start("attribution", None, req);
        let parent = Some(root.id());
        let (parsed, parse_us) = spans.time("sql.parse", parent, req, || recdb_sql::parse(sql));
        let Ok(Statement::Select(select)) = parsed else {
            return Err(format!("not a SELECT: {sql}"));
        };
        let (planned, plan_us) = spans.time("exec.plan", parent, req, || {
            let catalog = db.catalog();
            build_logical(&select, &catalog).map(optimize)
        });
        planned.map_err(|e| format!("plan: {e}"))?;
        // EXPLAIN ANALYZE runs first and sees the statement as the measured
        // phase did; it also warms the pages the next two executions read,
        // so the wire and in-process timings compare like with like.
        let (profile, _) = spans.time("exec.explain_analyze", parent, req, || {
            client.query(&format!("EXPLAIN ANALYZE {sql}"))
        });
        let (local, exec_us) = spans.time("core.execute", parent, req, || db.execute(sql));
        local.map_err(|e| format!("execute: {e}"))?;
        let (remote, wire_us) = spans.time("server.request", parent, req, || client.execute(sql));
        remote.map_err(|e| format!("wire: {e}"))?;
        spans.end(root);
        let lines: Vec<String> = profile
            .map_err(|e| format!("explain analyze: {e}"))?
            .rows()
            .iter()
            .filter_map(|t| match t.get(0) {
                Some(recdb_storage::Value::Text(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        for (op, micros) in op_self_times(&lines) {
            let name = if OPERATORS.contains(&op.as_str()) {
                op
            } else {
                "other".to_owned()
            };
            *out.op_self.entry(name).or_default() += micros;
        }
        out.statements += 1;
        out.parse.push(parse_us);
        out.plan.push(plan_us);
        out.wire.push(wire_us - exec_us);
    }
    Ok(out)
}

/// Self time per operator line of a rendered `EXPLAIN ANALYZE` tree: the
/// operator's inclusive time minus that of its direct children. Lines are
/// indented two spaces per level and carry `time=<ms>ms`.
pub fn op_self_times(lines: &[String]) -> Vec<(String, f64)> {
    let ops: Vec<(usize, String, f64)> = lines
        .iter()
        .filter(|l| !l.starts_with("Total:"))
        .filter_map(|l| {
            let depth = (l.len() - l.trim_start().len()) / 2;
            let name = l.split_whitespace().next()?.to_owned();
            let ms = l.split("time=").nth(1)?.split("ms").next()?;
            Some((depth, name, ms.parse::<f64>().ok()? * 1e3))
        })
        .collect();
    ops.iter()
        .enumerate()
        .map(|(i, (depth, name, incl))| {
            let children: f64 = ops[i + 1..]
                .iter()
                .take_while(|(d, _, _)| d > depth)
                .filter(|(d, _, _)| *d == depth + 1)
                .map(|(_, _, t)| t)
                .sum();
            (name.clone(), (incl - children).max(0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_inclusive_minus_direct_children() {
        let lines: Vec<String> = [
            "Project (rows=10 calls=11 time=1.000ms)",
            "  TopKSort k=10 (rows=10 calls=11 time=0.900ms)",
            "    JoinRecommend ItemCosCF (rows=80 calls=81 time=0.600ms)",
            "      SeqScan movies (rows=800 calls=801 time=0.250ms)",
            "    Filter (rows=3 calls=4 time=0.100ms)",
            "Total: 1.100ms",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let got = op_self_times(&lines);
        let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["Project", "TopKSort", "JoinRecommend", "SeqScan", "Filter"]
        );
        let us: Vec<f64> = got.iter().map(|(_, t)| (t * 1e3).round() / 1e3).collect();
        assert_eq!(us, [100.0, 200.0, 350.0, 250.0, 100.0]);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
