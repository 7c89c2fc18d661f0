//! Tiny-scale smoke test: every workload, untraced and traced, runs in
//! seconds, passes its answer checks, fails no statement, and reports
//! exactly the metrics `BENCHMARK.json` names.

use perfbench::json::Json;
use perfbench::run::{self, Report};
use perfbench::workload::{Params, Scale, Workload};
use perfbench::RESULT_END_TO_END;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .expect(key)
        .arr()
        .iter()
        .map(|m| m.get("name").and_then(Json::str).expect("name").to_owned())
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Report {
    let report = run::run(&Params {
        workload,
        scale: Scale::Tiny,
        seed: 3,
        seconds: 1,
        trace,
    })
    .expect("run completes");
    assert!(report.correct, "{}: {:?}", workload.name(), report.problems);
    assert!(report.attempted > 0);
    assert_eq!(
        report.failed,
        0,
        "{}: {:?}",
        workload.name(),
        report.problems
    );
    report
}

#[test]
fn benchmark_json_names_what_the_runs_report() {
    let doc = benchmark_json();
    assert_eq!(names(&doc, "end_to_end"), RESULT_END_TO_END);
    let workloads = names(&doc, "workloads");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_runs_checks_and_reports_untraced() {
    for w in Workload::ALL {
        let r = tiny(w, false);
        for name in RESULT_END_TO_END {
            let m = r.end_to_end.iter().find(|m| m.name == name);
            let m = m.unwrap_or_else(|| panic!("{}: no {name}", w.name()));
            assert!(m.value > 0.0, "{}: {name} = {}", w.name(), m.value);
        }
        let failed = r.end_to_end.iter().find(|m| m.name == "failed_frac");
        assert_eq!(failed.map(|m| m.value), Some(0.0));
        if w == Workload::IngestMixed {
            for name in [
                "insert_p50_us",
                "select_p50_us",
                "ingest_rows_per_s",
                "reopen_s",
            ] {
                assert!(r.end_to_end.iter().any(|m| m.name == name), "no {name}");
            }
        }
        assert!(r.per_layer.is_empty());
    }
}

#[test]
fn every_workload_reports_every_layer_when_traced() {
    let expected = names(&benchmark_json(), "per_layer");
    for w in Workload::ALL {
        let r = tiny(w, true);
        let got: Vec<String> = r.per_layer.iter().map(|m| m.name.clone()).collect();
        assert_eq!(got, expected, "{}", w.name());
        let get = |name: &str| r.per_layer.iter().find(|m| m.name == name).unwrap().value;
        assert!(get("sql.parse_us") > 0.0 && get("exec.plan_us") > 0.0);
        match w {
            Workload::RecOnline => {
                assert_eq!(get("exec.recindex_hit_ratio"), 0.0);
                assert!(get("exec.self_us.FilterRecommend") > 0.0);
            }
            Workload::RecIndexed => {
                assert_eq!(get("exec.recindex_hit_ratio"), 1.0);
                assert!(get("core.materialize_us") > 0.0);
            }
            Workload::IngestMixed => {
                assert!(
                    get("exec.self_us.SeqScan") > 0.0,
                    "point SELECTs attributed"
                );
                assert!(get("wal.fsyncs_per_commit") >= 1.0);
                assert!(get("wal.bytes_per_user_byte") > 1.0);
            }
        }
    }
}
