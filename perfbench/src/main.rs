//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <rec_online|rec_indexed|ingest_mixed> --seed <n>
//!           --seconds <n> --trace <0|1> [--scale tiny] [--repeat <n>]
//! ```
//!
//! A run prints one `metric` line per metric and, last, one JSON object:
//! the end-to-end metrics of `BENCHMARK.json` with `--trace 0`, its
//! per-layer metrics with `--trace 1`. `--repeat <n>` runs the workload
//! `n` times as child processes, on seeds `seed..seed+n`, and prints each
//! end-to-end metric's median, quartiles and spread against its bound.

use perfbench::json::{quote, Json};
use perfbench::run::{self, Metric, Report};
use perfbench::stats::quartiles;
use perfbench::workload::{Params, Scale, Workload};
use perfbench::RESULT_END_TO_END;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    params: Params,
    repeat: Option<usize>,
}

fn usage(msg: &str) -> String {
    format!(
        "{msg}\nusage: perfbench --workload <rec_online|rec_indexed|ingest_mixed> \
         --seed <n> --seconds <n> --trace <0|1> [--scale full|tiny] [--repeat <n>]"
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut scale, mut repeat) =
        (1, 10, false, Scale::Full, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(&format!("{flag} needs a value")))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| usage(&format!("{flag}: not a number: {value}")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| usage(&format!("unknown workload {value}")))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--repeat" => repeat = Some(number()?.max(2) as usize),
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(usage(&format!("unknown scale {value}"))),
                }
            }
            _ => return Err(usage(&format!("unknown flag {flag}"))),
        }
    }
    Ok(Args {
        params: Params {
            workload: workload.ok_or_else(|| usage("--workload is required"))?,
            scale,
            seed,
            seconds,
            trace,
        },
        repeat,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return repeat(&args.params, n);
    }
    match run::run(&args.params) {
        Ok(report) => {
            print_report(&args.params, &report);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // A failure landed on a reported percentile.
        "1e300".to_owned()
    }
}

fn print_report(p: &Params, r: &Report) {
    for (k, v) in &r.facts {
        println!("fact {k} = {v}");
    }
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        println!(
            "metric {} {} {} | {}",
            m.name,
            number(m.value),
            m.unit,
            m.note
        );
    }
    for problem in &r.problems {
        println!("problem {problem}");
    }
    let chosen: Vec<&Metric> = if p.trace {
        r.per_layer.iter().collect()
    } else {
        RESULT_END_TO_END
            .iter()
            .filter_map(|name| r.end_to_end.iter().find(|m| m.name == *name))
            .collect()
    };
    let metrics: Vec<String> = chosen
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

/// End-to-end bounds from `BENCHMARK.json` in the working directory.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?.to_owned(), m.get("bound")?.num()?)))
        .collect()
}

fn repeat(p: &Params, n: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut failures = 0;
    for i in 0..n as u64 {
        let seed = p.seed + i;
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", p.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &p.seconds.to_string()])
            .args(["--trace", "0"])
            .stderr(Stdio::inherit());
        if p.scale == Scale::Tiny {
            cmd.args(["--scale", "tiny"]);
        }
        let out = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("seed {seed}: cannot run: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let correct = last.as_ref().and_then(|j| j.get("correct").cloned());
        if !out.status.success() || correct != Some(Json::Bool(true)) {
            failures += 1;
            eprintln!("seed {seed}: run failed or incorrect ({})", out.status);
        }
        let mut line = Vec::new();
        for l in stdout.lines().filter_map(|l| l.strip_prefix("metric ")) {
            let mut parts = l.split_whitespace();
            if let (Some(name), Some(Ok(v))) = (parts.next(), parts.next().map(str::parse::<f64>)) {
                values.entry(name.to_owned()).or_default().push(v);
                if RESULT_END_TO_END.contains(&name) {
                    line.push(format!("{name}={v:.4}"));
                }
            }
        }
        println!("seed {seed}: {}", line.join(" "));
    }
    let bounds = bounds();
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, v) in &values {
        let Some((q1, med, q3)) = quartiles(v) else {
            continue;
        };
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let (bound, verdict) = match bounds.get(name) {
            Some(&b) if spread <= b / 3.0 => (format!("{b}"), "steady (under a third of bound)"),
            Some(&b) if spread <= b => (format!("{b}"), "within bound"),
            Some(&b) => (format!("{b}"), "WIDER THAN BOUND"),
            None => ("-".to_owned(), "not bounded"),
        };
        println!(
            "{name:<22} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6}  {verdict}"
        );
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
