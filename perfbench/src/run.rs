//! One benchmark run: set up, serve, drive, check, report.

use crate::check::{self, Checks};
use crate::drive::{self, Outcome};
use crate::layers::{self, ratio, Counters};
use crate::setup;
use crate::spans::Recorder;
use crate::stats::Latencies;
use crate::workload::{self, Check, Kind, Params};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recdb_algo::Algorithm;
use recdb_core::RecDb;
use recdb_datasets::Dataset;
use recdb_server::{Server, ServerConfig};
use recdb_storage::{Tuple, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Extra DROP + CREATE RECOMMENDER rounds on the reference engine of a read
/// workload. Its few costly set-ups alone time the model builds too rarely
/// for a steady median; `model_build_s` is the median over every round,
/// one per set-up plus these.
const EXTRA_BUILDS: usize = 6;

/// Reopens of the ingest data directory: `reopen_s` is their median.
const REOPENS: usize = 3;

/// Read statements attributed layer by layer in a traced run.
const ATTRIBUTED: usize = 120;

/// Users whose top-10 is compared after each ingest round.
const INGEST_CHECK_USERS: usize = 20;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// How many samples it rests on, and how it was read.
    pub note: String,
}

fn metric(name: &str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
        note: note.into(),
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every answer check passed.
    pub correct: bool,
    /// Statements attempted in the measured phases.
    pub attempted: u64,
    /// Statements that failed or were refused.
    pub failed: u64,
    /// End-to-end metrics (traced runs report them too).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Run facts: sizes, flush policy, connections, host.
    pub facts: Vec<(String, String)>,
    /// Check failures and statement errors, for the log.
    pub problems: Vec<String>,
}

/// Scratch space for the durable engines of one run, inside the
/// benchmark's directory; trace output goes to its parent.
fn out_dir() -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("run-{}-{run}", std::process::id()))
}

/// Execute one run.
pub fn run(p: &Params) -> Result<Report, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = run_in(p, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(p: &Params, dir: &Path) -> Result<Report, String> {
    let spans = Recorder::new();
    let mut checks = Checks::default();
    // Seconds of every set-up, and of the CREATE RECOMMENDER statements of
    // every set-up or rebuild.
    let (mut setups, mut builds): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());

    // A reference engine is built from the same seed before any load
    // starts. On the read workloads the sampled answers are computed on it
    // in-process right away, and it is dropped before the served engine is
    // built. Each ingest round has its own small reference, which replays
    // the round's acknowledged inserts after its phase.
    let expected = if p.workload.durable() {
        BTreeMap::new()
    } else {
        let reference = setup::build(p, None, &spans)?;
        let expected = check::reference_answers(&reference.db, p, &reference.data, &mut checks);
        setups.push(reference.setup_s);
        builds.push(reference.model_build_s);
        for _ in 0..EXTRA_BUILDS {
            builds.push(rebuild(&reference.db, p)?);
        }
        expected
    };
    let rounds = workload::rounds(p);
    let data_dir = |k: usize| dir.join(format!("data-{k}"));
    while setups.len() + rounds < p.workload.setups() {
        let durable = p.workload.durable().then(|| data_dir(setups.len()));
        let built = setup::build(p, durable.as_deref(), &spans)?;
        setups.push(built.setup_s);
        builds.push(built.model_build_s);
        drop(built);
        if let Some(d) = durable {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    let mut total = Outcome::default();
    let mut deltas = Counters::default();
    let (mut reopen, mut replayed) = (Vec::new(), 0.0);
    let (mut peak_rss, mut resident, mut pages) = (0.0, 0, 0);
    let mut attribution = None;
    let mut data = None;
    for round in 0..rounds {
        let reference = if p.workload.durable() {
            Some(setup::build(p, None, &Recorder::new())?)
        } else {
            None
        };
        let served_dir = p.workload.durable().then(|| data_dir(setups.len()));
        let served = setup::build(p, served_dir.as_deref(), &spans)?;
        setups.push(served.setup_s);
        builds.push(served.model_build_s);
        let round_data = served.data;
        let db = Arc::new(served.db);
        pages = data_pages(&db);

        let server = Server::start(Arc::clone(&db), ServerConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        let before = Counters::read(&db);
        let mut outcome = drive::drive(
            server.addr(),
            p,
            round,
            &round_data,
            p.trace.then_some(&spans),
        );
        deltas.add(&Counters::read(&db).since(&before));
        if round == 0 {
            // Read before any answer check or reopen, so the peak is the
            // engines' set-up and serving, not the checking that follows.
            peak_rss = peak_rss_mb();
        }
        resident = db.buffer_pool().resident_pages();

        let mut concurrent = Vec::new();
        for a in &outcome.answers {
            let what = format!("conn {} stmt {}", a.conn, a.index);
            match (&a.check, &a.rows) {
                (Check::Movie(mid), Ok(rows)) => {
                    checks.expect(check::movie_row(&round_data, *mid, rows))
                }
                _ if reference.is_some() => concurrent.push(a),
                (_, Err(e)) => checks.expect(Err(format!("{what}: {e}"))),
                (_, Ok(rows)) => {
                    checks.expect(check::same_rows(&what, rows, &expected[&(a.conn, a.index)]))
                }
            }
        }

        if p.trace && round + 1 == rounds {
            let mut client = drive::connect(server.addr())?;
            let sample = attribution_sample(p, round, &round_data);
            let sample: Vec<&str> = sample.iter().map(String::as_str).collect();
            attribution = Some(layers::attribute(&db, &mut client, &sample, &spans)?);
        }

        if let (Some(reference), Some(served_dir)) = (reference, served_dir) {
            check::replay_and_check(&reference.db, &outcome.acked, &concurrent, &mut checks)?;
            let mut expected_rows = round_data.ratings.clone();
            expected_rows.extend(outcome.acked.iter().flatten());
            let mut client = drive::connect(server.addr())?;
            let users = check_users(p, round, &round_data);
            checks.expect(
                client
                    .query(ALL_RATINGS)
                    .map_err(|e| e.to_string())
                    .and_then(|r| check::ratings_exact("before reopen", r.rows(), &expected_rows)),
            );
            for &user in &users {
                let sql = workload::top10_sql(Algorithm::ItemCosCF, user);
                let want = reference.db.query(&sql).map_err(|e| e.to_string())?;
                checks.expect(
                    client
                        .query(&sql)
                        .map_err(|e| e.to_string())
                        .and_then(|got| check::same_rows(&sql, got.rows(), want.rows())),
                );
                checks.expect(check::top_k_agrees(
                    &reference.db,
                    Algorithm::ItemCosCF,
                    user,
                    want.rows(),
                ));
            }
            drop(client);
            server.shutdown();
            drop(db);
            let reopened = reopen_and_check(
                &served_dir,
                &reference.db,
                &users,
                &expected_rows,
                &mut reopen,
                &mut checks,
            )?;
            replayed += Counters::read(&reopened).get("replayed");
            drop(reopened);
            let _ = std::fs::remove_dir_all(&served_dir);
        } else {
            server.shutdown();
        }

        total.elapsed += outcome.elapsed;
        total.rec_elapsed += outcome.rec_elapsed;
        total.insert_elapsed += outcome.insert_elapsed;
        total.absorb(&mut outcome);
        data = Some(round_data);
    }
    let data = data.expect("at least one round");

    if p.trace {
        let path = dir.parent().unwrap_or(dir).join(format!(
            "trace-{}-{}.jsonl",
            p.workload.name(),
            p.seed
        ));
        std::fs::write(&path, spans.to_json_lines())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }

    let mut report = Report {
        correct: checks.ok(),
        attempted: total.attempted(),
        failed: total.failed(),
        ..Report::default()
    };
    report.end_to_end = end_to_end(p, &setups, &builds, &total, &reopen, peak_rss);
    if let Some(attr) = attribution {
        report.per_layer = per_layer(&spans, &attr, &total, &deltas, resident, replayed);
    }
    report.facts = facts(p, &data, pages, &checks);
    report.problems = checks.failures;
    report.problems.extend(total.errors);
    Ok(report)
}

const ALL_RATINGS: &str = "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R";

/// Reopen the durable engine in `dir` [`REOPENS`] times, timing each into
/// `secs`, and check the last one: `ratings` must hold exactly `expected`,
/// and top-10 answers for `users` must equal the reference `reference`
/// once its model is rebuilt from the same rows, as recovery rebuilds
/// every model.
fn reopen_and_check(
    dir: &Path,
    reference: &RecDb,
    users: &[i64],
    expected: &[(i64, i64, f64)],
    secs: &mut Vec<f64>,
    checks: &mut Checks,
) -> Result<RecDb, String> {
    let mut reopened = None;
    for _ in 0..REOPENS {
        drop(reopened.take());
        let t = Instant::now();
        let db = RecDb::open_with_config(setup::config(Some(dir.to_path_buf())))
            .map_err(|e| format!("reopen: {e}"))?;
        secs.push(t.elapsed().as_secs_f64());
        reopened = Some(db);
    }
    let reopened = reopened.expect("at least one reopen");
    checks.expect(
        reopened
            .query(ALL_RATINGS)
            .map_err(|e| e.to_string())
            .and_then(|r| check::ratings_exact("after reopen", r.rows(), expected)),
    );
    let name = workload::recommender_name(Algorithm::ItemCosCF);
    reference
        .execute(&format!("DROP RECOMMENDER {name}"))
        .and_then(|_| reference.execute(&workload::create_recommender_sql(Algorithm::ItemCosCF)))
        .map_err(|e| format!("reference rebuild: {e}"))?;
    for &user in users {
        let sql = workload::top10_sql(Algorithm::ItemCosCF, user);
        let want = reference.query(&sql).map_err(|e| e.to_string())?;
        checks.expect(
            reopened
                .query(&sql)
                .map_err(|e| e.to_string())
                .and_then(|got| check::same_rows(&sql, got.rows(), want.rows())),
        );
    }
    Ok(reopened)
}

/// One DROP + CREATE RECOMMENDER round over every recommender of the
/// workload; returns the seconds the CREATE statements took.
fn rebuild(db: &RecDb, p: &Params) -> Result<f64, String> {
    let mut secs = 0.0;
    for &algo in p.workload.algorithms() {
        let name = workload::recommender_name(algo);
        db.execute(&format!("DROP RECOMMENDER {name}"))
            .map_err(|e| format!("drop {name}: {e}"))?;
        let t = Instant::now();
        db.execute(&workload::create_recommender_sql(algo))
            .map_err(|e| format!("create {name}: {e}"))?;
        secs += t.elapsed().as_secs_f64();
    }
    Ok(secs)
}

/// [`ATTRIBUTED`] read statements, split evenly between the read kinds and
/// spread evenly over the statements of each kind that round `round` sent.
fn attribution_sample(p: &Params, round: usize, data: &Dataset) -> Vec<String> {
    let reads = || {
        (0..workload::CONNECTIONS)
            .flat_map(|conn| workload::statements(p, data, conn, round))
            .filter(|s| s.kind != Kind::Insert)
    };
    let (mut recs, mut selects) = (0, 0);
    for s in reads() {
        match s.kind {
            Kind::Select => selects += 1,
            _ => recs += 1,
        }
    }
    let kinds = [recs, selects].iter().filter(|&&n| n > 0).count().max(1);
    let per_kind = ATTRIBUTED / kinds;
    let step = |n: usize| (n / per_kind).max(1);
    let (mut seen, mut taken) = ([0usize; 3], [0usize; 3]);
    let mut sample = Vec::new();
    for s in reads() {
        let k = s.kind as usize;
        let n = if s.kind == Kind::Select {
            selects
        } else {
            recs
        };
        if seen[k].is_multiple_of(step(n)) && taken[k] < per_kind {
            taken[k] += 1;
            sample.push(s.sql);
        }
        seen[k] += 1;
    }
    sample
}

/// Heap pages of every table plus RecScoreIndex node pages.
fn data_pages(db: &RecDb) -> u64 {
    let heap: usize = db.catalog().tables().map(|t| t.heap().page_count()).sum();
    let index: u64 = db
        .recommender_names()
        .iter()
        .filter_map(|n| db.recommender(n)?.index())
        .map(|i| i.node_pages())
        .sum();
    heap as u64 + index
}

fn check_users(p: &Params, round: usize, data: &Dataset) -> Vec<i64> {
    let mut rng =
        StdRng::seed_from_u64(workload::derive(workload::derive(p.seed, 7), round as u64));
    (0..INGEST_CHECK_USERS)
        .map(|_| data.users[rng.gen_range(0..data.users.len())].uid)
        .collect()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn latency_metrics(out: &mut Vec<Metric>, prefix: &str, lat: &Latencies) {
    let n = lat.attempted();
    if n == 0 {
        return;
    }
    let failed = lat.failed();
    if let Some(m) = lat.median() {
        out.push(metric(
            &format!("{prefix}_p50_us"),
            "us",
            m.value,
            format!("p50 of {n} samples, {failed} failed"),
        ));
    }
    if let Some(t) = lat.tail(99.0) {
        out.push(metric(
            &format!("{prefix}_p99_us"),
            "us",
            t.value,
            format!(
                "p{} of {n} samples, {} beyond, {failed} failed",
                t.level, t.beyond
            ),
        ));
    }
}

fn end_to_end(
    p: &Params,
    setup_s: &[f64],
    build_s: &[f64],
    o: &Outcome,
    reopen: &[f64],
    peak_rss: f64,
) -> Vec<Metric> {
    let secs = o.rec_elapsed.as_secs_f64();
    let spread = |v: &[f64], what: &str| {
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        format!("median of {} {what}, range {lo:.4}-{hi:.4} s", v.len())
    };
    let mut out = vec![
        metric("setup_s", "s", median(setup_s), spread(setup_s, "set-ups")),
        metric(
            "model_build_s",
            "s",
            median(build_s),
            spread(build_s, "CREATE RECOMMENDER rounds"),
        ),
        metric(
            "rec_qps",
            "1/s",
            o.rec.succeeded() as f64 / secs,
            format!("{} RECOMMEND in {secs:.3} s", o.rec.succeeded()),
        ),
    ];
    latency_metrics(&mut out, "rec", &o.rec);
    latency_metrics(&mut out, "select", &o.select);
    latency_metrics(&mut out, "insert", &o.insert);
    if p.workload == workload::Workload::IngestMixed {
        let writer = o.insert_elapsed.as_secs_f64();
        out.push(metric(
            "ingest_rows_per_s",
            "1/s",
            o.acked_rows() as f64 / writer,
            format!("{} acknowledged rows in {writer:.3} s", o.acked_rows()),
        ));
        out.push(metric(
            "reopen_s",
            "s",
            median(reopen),
            format!("median of {} reopens", reopen.len()),
        ));
    }
    out.push(metric(
        "peak_rss_mb",
        "MB",
        peak_rss,
        "VmHWM of the benchmark process at the end of the measured phase",
    ));
    out.push(metric(
        "failed_frac",
        "ratio",
        ratio(o.failed() as f64, o.attempted() as f64),
        format!("{} of {} statements", o.failed(), o.attempted()),
    ));
    out
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    spans: &Recorder,
    attr: &layers::Attribution,
    o: &Outcome,
    deltas: &Counters,
    resident: usize,
    replayed: f64,
) -> Vec<Metric> {
    let d = |key: &str| deltas.get(key);
    let stmts = o.attempted() as f64;
    let n_attr = attr.statements;
    let attr_note = format!("median of {n_attr} attributed statements");
    let mut out = vec![
        metric(
            "server.wire_us",
            "us",
            median(&attr.wire),
            attr_note.clone(),
        ),
        metric("sql.parse_us", "us", median(&attr.parse), attr_note.clone()),
        metric("exec.plan_us", "us", median(&attr.plan), attr_note),
    ];
    for op in layers::OPERATORS.iter().copied().chain(["other"]) {
        let total = attr.op_self.get(op).copied().unwrap_or(0.0);
        out.push(metric(
            &format!("exec.self_us.{op}"),
            "us",
            ratio(total, n_attr as f64),
            format!("EXPLAIN ANALYZE self time per statement, {n_attr} statements"),
        ));
    }
    let phase = format!("delta over the measured phases, {stmts} statements");
    out.push(metric(
        "exec.rows_scanned_per_returned",
        "ratio",
        ratio(d("rows_scanned"), d("rows_returned")),
        format!(
            "{} scanned / {} returned",
            d("rows_scanned"),
            d("rows_returned")
        ),
    ));
    out.push(metric(
        "exec.recindex_hit_ratio",
        "ratio",
        ratio(d("index_hits"), d("index_hits") + d("index_misses")),
        format!("{} hits, {} misses", d("index_hits"), d("index_misses")),
    ));
    for algo in [Algorithm::ItemCosCF, Algorithm::Svd] {
        let builds = spans.durations(&format!("algo.build.{algo}"));
        out.push(metric(
            &format!("algo.build_us.{algo}"),
            "us",
            median(&builds),
            format!("median of {} CREATE RECOMMENDER spans", builds.len()),
        ));
    }
    let mat = spans.durations("core.materialize");
    out.push(metric(
        "core.materialize_us",
        "us",
        median(&mat),
        format!("median of {} materialize spans", mat.len()),
    ));
    out.push(metric("core.rebuilds", "count", d("builds"), phase.clone()));
    out.push(metric(
        "core.rebuild_busy_frac",
        "ratio",
        ratio(d("build_micros"), o.elapsed.as_secs_f64() * 1e6),
        "model build time / measured phases",
    ));
    out.push(metric(
        "txn.lock_waits_per_stmt",
        "count",
        ratio(d("lock_waits"), stmts),
        phase.clone(),
    ));
    out.push(metric(
        "txn.lock_wait_us_per_stmt",
        "us",
        ratio(d("lock_wait_micros"), stmts),
        phase.clone(),
    ));
    let (hits, misses) = (d("pool_hits"), d("pool_misses"));
    out.push(metric(
        "storage.pool_hit_ratio",
        "ratio",
        ratio(hits, hits + misses),
        format!("{hits} hits, {misses} misses"),
    ));
    out.push(metric(
        "storage.pool_misses_per_stmt",
        "count",
        ratio(misses, stmts),
        phase.clone(),
    ));
    out.push(metric(
        "storage.evictions_per_stmt",
        "count",
        ratio(d("evictions"), stmts),
        phase.clone(),
    ));
    out.push(metric(
        "storage.resident_pages",
        "pages",
        resident as f64,
        "resident frames after the measured phase",
    ));
    let commits = o.insert.succeeded() as f64;
    let user_bytes: usize = o
        .acked
        .iter()
        .flatten()
        .map(|&(u, i, r)| {
            Tuple::new(vec![Value::Int(u), Value::Int(i), Value::Float(r)]).encoded_size()
        })
        .sum();
    out.push(metric(
        "wal.appends_per_commit",
        "count",
        ratio(d("wal_appends"), commits),
        format!("{commits} write commits"),
    ));
    out.push(metric(
        "wal.fsyncs_per_commit",
        "count",
        ratio(d("wal_fsyncs"), commits),
        format!("{commits} write commits"),
    ));
    out.push(metric(
        "wal.bytes_per_user_byte",
        "ratio",
        ratio(d("wal_bytes"), user_bytes as f64),
        format!(
            "{} WAL bytes / {user_bytes} encoded row bytes",
            d("wal_bytes")
        ),
    ));
    out.push(metric(
        "wal.replayed_records",
        "count",
        replayed,
        "recovery counter of the reopened engine",
    ));
    // Medians, not means: the few requests a model rebuild stalls would
    // swamp a mean, whichever half they land in.
    let median_of = |l: &Latencies| l.median().map_or(0.0, |m| m.value);
    let (traced, untraced) = (median_of(&o.rec_traced), median_of(&o.rec_untraced));
    out.push(metric(
        "obs.trace_overhead_frac",
        "ratio",
        if untraced > 0.0 {
            traced / untraced - 1.0
        } else {
            0.0
        },
        format!(
            "median RECOMMEND latency, {} traced vs {} untraced requests",
            o.rec_traced.succeeded(),
            o.rec_untraced.succeeded()
        ),
    ));
    out
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn facts(p: &Params, data: &Dataset, pages: u64, checks: &Checks) -> Vec<(String, String)> {
    let pool = setup::config(None).buffer_pool_pages;
    let flush = if p.workload.durable() {
        "fsync on every commit"
    } else {
        "none (in-memory engine)"
    };
    vec![
        ("workload".into(), p.workload.name().into()),
        ("seed".into(), p.seed.to_string()),
        (
            "data".into(),
            format!(
                "{} users x {} items x {} ratings",
                data.users.len(),
                data.items.len(),
                data.ratings.len()
            ),
        ),
        ("data_pages".into(), format!("{pages} (pool frames {pool})")),
        ("flush_policy".into(), flush.into()),
        (
            "connections".into(),
            format!("{} closed-loop wire connections", workload::CONNECTIONS),
        ),
        (
            "rounds".into(),
            format!(
                "{} of {} statements per connection",
                workload::rounds(p),
                workload::statement_count(p)
            ),
        ),
        (
            "host_nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "build_profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("commit".into(), commit()),
        (
            "checks".into(),
            format!("{} passed, {} failed", checks.passed, checks.failures.len()),
        ),
    ]
}

/// The checked-out commit, read from `.git` in the working directory when
/// the benchmark runs at the root of a git work tree.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let id = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_owned()),
        Some(name) => read(&format!(".git/{name}"))
            .map(|s| s.trim().to_owned())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
            }),
    };
    id.filter(|id| !id.is_empty())
        .unwrap_or_else(|| "unknown (not a git work tree)".to_owned())
}
