//! Workloads: seeded data and seeded statement sequences.
//!
//! Everything here follows from `(workload, scale, seed, seconds)`: the
//! seed chooses the generated data and every statement each connection
//! sends. The engine only ever sees the SQL text built here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recdb_algo::Algorithm;
use recdb_datasets::{Dataset, SyntheticSpec};
use std::collections::HashSet;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every RECOMMEND is scored online by the in-kernel operators.
    RecOnline,
    /// RECOMMEND top-k served by IndexRecommend from a materialized index
    /// many times larger than the buffer pool.
    RecIndexed,
    /// A durable engine streaming rating inserts while a second
    /// connection reads.
    IngestMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::RecOnline,
        Workload::RecIndexed,
        Workload::IngestMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RecOnline => "rec_online",
            Workload::RecIndexed => "rec_indexed",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Recommenders created at set-up, in creation order.
    pub fn algorithms(self) -> &'static [Algorithm] {
        match self {
            Workload::RecOnline => &[Algorithm::ItemCosCF, Algorithm::Svd],
            Workload::RecIndexed => &[Algorithm::Svd],
            Workload::IngestMixed => &[Algorithm::ItemCosCF],
        }
    }

    /// Whether the served engine is durable (WAL, fsync on every commit).
    pub fn durable(self) -> bool {
        self == Workload::IngestMixed
    }

    /// Set-ups timed per run; `setup_s` is their median. A read workload's
    /// set-up takes seconds and the ingest one milliseconds, so the ingest
    /// one is timed more often for an equally steady median.
    pub fn setups(self) -> usize {
        match self {
            Workload::RecOnline | Workload::RecIndexed => 3,
            Workload::IngestMixed => 45,
        }
    }

    /// The recommender whose RecScoreIndex is fully materialized at set-up.
    pub fn materialized(self) -> Option<Algorithm> {
        (self == Workload::RecIndexed).then_some(Algorithm::Svd)
    }
}

/// Data and statement-count scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's dataset shapes; what `BENCHMARK.json` describes.
    Full,
    /// A few hundred ratings and statements, for the smoke test.
    Tiny,
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Data and statement-count scale.
    pub scale: Scale,
    /// Chooses the data and every statement.
    pub seed: u64,
    /// Sizes the fixed work (statement count, or ingest rounds); a run
    /// measures about this long.
    pub seconds: u64,
    /// Whether this is the traced run that reports per-layer metrics.
    pub trace: bool,
}

/// Derive an independent stream seed from the run seed (SplitMix64).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Dataset shape for a run: MovieLens-100K for the read workloads and
/// LDOS-CoMoDa for ingest, re-seeded from the run seed.
pub fn spec(p: &Params) -> SyntheticSpec {
    let (base, tiny) = match p.workload {
        Workload::RecOnline | Workload::RecIndexed => (SyntheticSpec::movielens(), 0.01),
        Workload::IngestMixed => (SyntheticSpec::ldos_comoda(), 0.3),
    };
    let mut spec = match p.scale {
        Scale::Full => base,
        Scale::Tiny => base.scaled(tiny),
    };
    spec.seed = derive(p.seed, 1);
    spec
}

/// Rows per INSERT statement while loading.
const LOAD_BATCH: usize = 500;

/// The SQL that creates and fills the tables of `data`.
pub fn load_sql(data: &Dataset) -> Vec<String> {
    let mut out = vec![
        "CREATE TABLE users (uid INT, name TEXT, city TEXT)".to_owned(),
        "CREATE TABLE movies (mid INT, name TEXT, genre TEXT)".to_owned(),
        "CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)".to_owned(),
    ];
    let users: Vec<String> = data
        .users
        .iter()
        .map(|u| format!("({}, {}, {})", u.uid, text(&u.name), text(&u.city)))
        .collect();
    let movies: Vec<String> = data
        .items
        .iter()
        .map(|i| format!("({}, {}, {})", i.iid, text(&i.name), text(&i.genre)))
        .collect();
    let ratings: Vec<String> = data.ratings.iter().map(|&r| rating_row(r)).collect();
    for (table, rows) in [("users", users), ("movies", movies), ("ratings", ratings)] {
        for chunk in rows.chunks(LOAD_BATCH) {
            out.push(format!("INSERT INTO {table} VALUES {}", chunk.join(", ")));
        }
    }
    out
}

fn text(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

fn rating_row((u, i, r): (i64, i64, f64)) -> String {
    format!("({u}, {i}, {r:?})")
}

/// Name of the recommender built with `algo`.
pub fn recommender_name(algo: Algorithm) -> String {
    format!("rec_{}", algo.name().to_ascii_lowercase())
}

/// `CREATE RECOMMENDER` for `algo` over the ratings table.
pub fn create_recommender_sql(algo: Algorithm) -> String {
    format!(
        "CREATE RECOMMENDER {} ON ratings USERS FROM uid ITEMS FROM iid \
         RATINGS FROM ratingval USING {algo}",
        recommender_name(algo)
    )
}

/// Paper Query 1 (Fig. 10): the top-10 for one user.
pub fn top10_sql(algo: Algorithm, user: i64) -> String {
    format!(
        "SELECT R.iid, R.ratingval FROM ratings AS R \
         RECOMMEND R.iid TO R.uid ON R.ratingval USING {algo} \
         WHERE R.uid = {user} ORDER BY R.ratingval DESC LIMIT 10"
    )
}

/// Statement kinds, each with its own latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A RECOMMEND query.
    Rec,
    /// A point SELECT.
    Select,
    /// An autocommit rating INSERT.
    Insert,
}

/// How a statement's answer is checked.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// Not sampled.
    None,
    /// Must equal the same statement on the reference engine.
    Reference,
    /// A top-10 that must also agree with `RecModel::top_k_unseen`.
    TopK {
        /// Recommender algorithm.
        algo: Algorithm,
        /// The querying user.
        user: i64,
    },
    /// A point SELECT on `movies` whose row is known from the data.
    Movie(i64),
}

/// One statement a connection sends.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Which latency metrics it feeds.
    pub kind: Kind,
    /// The SQL text.
    pub sql: String,
    /// How its answer is checked.
    pub check: Check,
    /// The rating rows an INSERT adds.
    pub rows: Vec<(i64, i64, f64)>,
}

impl Stmt {
    fn read(kind: Kind, sql: String, check: Check) -> Stmt {
        Stmt {
            kind,
            sql,
            check,
            rows: Vec::new(),
        }
    }
}

/// Every `CHECK_EVERY`-th read statement of each kind on a connection has
/// its answer checked.
pub const CHECK_EVERY: usize = 25;

/// Rows per ingest INSERT statement.
pub const INSERT_BATCH: usize = 3;

/// Connections that drive the server, each with its own statements.
pub const CONNECTIONS: usize = 2;

/// Statements each connection sends per round. The count, not the clock,
/// ends a round, so every run with the same arguments does the same work.
/// A read workload's single round sends a fixed count per second of
/// `--seconds`, set so that it measures about that long on a 2-core host.
/// An ingest round sends 2,000 INSERTs of 3 fresh ratings as fast as
/// commits allow, growing the LDOS-CoMoDa table about 3.6-fold, so the N%
/// rule rebuilds the model about 13 times, while the reader sends 2,000
/// statements, which last about as long on the same host.
pub fn statement_count(p: &Params) -> usize {
    match (p.scale, p.workload) {
        (Scale::Tiny, _) => 60,
        (Scale::Full, Workload::RecOnline) => 1450 * p.seconds as usize,
        (Scale::Full, Workload::RecIndexed) => 1800 * p.seconds as usize,
        (Scale::Full, Workload::IngestMixed) => 2000,
    }
    .max(1)
}

/// Measured rounds of a run. The read workloads run one. `ingest_mixed`
/// runs one round per two seconds of `--seconds`, each on a fresh durable
/// engine loaded from the same seed: a single long round would let the
/// table outgrow the N% rule, which then rebuilds ever more rarely and
/// leaves the read tail to the disk's fsync noise, while equal short
/// rounds keep rebuilds in a steady share of the reads.
pub fn rounds(p: &Params) -> usize {
    match (p.workload, p.scale) {
        (Workload::IngestMixed, Scale::Full) => (p.seconds as usize / 2).max(1),
        (Workload::IngestMixed, Scale::Tiny) => 2,
        _ => 1,
    }
}

/// The statements connection `conn` sends in round `round` of a run of
/// `p`, generated one at a time from the run seed: the same arguments
/// always give the same sequence, and no more than one statement is held
/// at once.
pub fn statements<'a>(p: &Params, data: &'a Dataset, conn: usize, round: usize) -> Statements<'a> {
    let mut genres: Vec<String> = data.items.iter().map(|i| i.genre.clone()).collect();
    genres.sort();
    genres.dedup();
    let taken = if p.workload == Workload::IngestMixed && conn == 0 {
        data.ratings.iter().map(|&(u, i, _)| (u, i)).collect()
    } else {
        HashSet::new()
    };
    Statements {
        workload: p.workload,
        conn,
        data,
        rng: StdRng::seed_from_u64(derive(derive(p.seed, 100 + conn as u64), round as u64)),
        items: data.items.iter().map(|i| i.iid).collect(),
        genres,
        taken,
        next: 0,
        count: statement_count(p),
    }
}

/// Iterator over one connection's statements; see [`statements`].
pub struct Statements<'a> {
    workload: Workload,
    conn: usize,
    data: &'a Dataset,
    rng: StdRng,
    /// Item ids, partially reshuffled by every `iid IN (…)` subset.
    items: Vec<i64>,
    genres: Vec<String>,
    /// (uid, iid) pairs already rated or inserted (the ingest writer only).
    taken: HashSet<(i64, i64)>,
    next: usize,
    count: usize,
}

impl Statements<'_> {
    /// A querying user: the uid of a uniformly drawn rating row, so users
    /// query as often as the generated data has them rate.
    fn active_user(&mut self) -> i64 {
        self.data.ratings[self.rng.gen_range(0..self.data.ratings.len())].0
    }

    /// A uniformly drawn user id.
    fn any_user(&mut self) -> i64 {
        self.data.users[self.rng.gen_range(0..self.data.users.len())].uid
    }

    /// A seeded `iid IN (…)` list over 10% of the items (Fig. 6).
    fn item_subset(&mut self) -> String {
        let count = (self.items.len() / 10).max(1);
        for k in 0..count {
            let j = self.rng.gen_range(k..self.items.len());
            self.items.swap(k, j);
        }
        self.items[..count]
            .iter()
            .map(i64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn rec_online(&mut self, n: usize) -> Stmt {
        let user = self.active_user();
        let algo = if self.rng.gen_bool(0.5) {
            Algorithm::ItemCosCF
        } else {
            Algorithm::Svd
        };
        let (sql, check) = match self.rng.gen_range(0..3u32) {
            0 => (top10_sql(algo, user), Check::TopK { algo, user }),
            1 => (
                format!(
                    "SELECT R.iid, R.ratingval FROM ratings AS R \
                     RECOMMEND R.iid TO R.uid ON R.ratingval USING {algo} \
                     WHERE R.uid = {user} AND R.iid IN ({})",
                    self.item_subset()
                ),
                Check::Reference,
            ),
            _ => (
                format!(
                    "SELECT R.iid, M.name, R.ratingval \
                     FROM ratings AS R, movies AS M \
                     RECOMMEND R.iid TO R.uid ON R.ratingval USING {algo} \
                     WHERE R.uid = {user} AND M.mid = R.iid \
                     AND M.genre = '{}'",
                    self.genres[self.rng.gen_range(0..self.genres.len())]
                ),
                Check::Reference,
            ),
        };
        Stmt::read(Kind::Rec, sql, check_for(n, check))
    }

    fn rec_indexed(&mut self, n: usize) -> Stmt {
        let algo = Algorithm::Svd;
        let user = self.any_user();
        let (sql, check) = if self.rng.gen_bool(0.5) {
            (top10_sql(algo, user), Check::TopK { algo, user })
        } else {
            (
                format!(
                    "SELECT R.iid, R.ratingval FROM ratings AS R \
                     RECOMMEND R.iid TO R.uid ON R.ratingval USING {algo} \
                     WHERE R.uid = {user} AND R.iid IN ({}) \
                     ORDER BY R.ratingval DESC LIMIT 10",
                    self.item_subset()
                ),
                Check::Reference,
            )
        };
        Stmt::read(Kind::Rec, sql, check_for(n, check))
    }

    fn ingest_insert(&mut self) -> Stmt {
        let rows: Vec<(i64, i64, f64)> = (0..INSERT_BATCH)
            .map(|_| loop {
                let u = self.any_user();
                let i = self.items[self.rng.gen_range(0..self.items.len())];
                if self.taken.insert((u, i)) {
                    break (u, i, f64::from(self.rng.gen_range(2..=10u32)) / 2.0);
                }
            })
            .collect();
        Stmt {
            kind: Kind::Insert,
            sql: insert_sql(&rows),
            check: Check::None,
            rows,
        }
    }

    fn ingest_read(&mut self, n: usize) -> Stmt {
        if n.is_multiple_of(2) {
            let (algo, user) = (Algorithm::ItemCosCF, self.active_user());
            Stmt::read(
                Kind::Rec,
                top10_sql(algo, user),
                check_for(n / 2, Check::TopK { algo, user }),
            )
        } else {
            let mid = self.items[self.rng.gen_range(0..self.items.len())];
            Stmt::read(
                Kind::Select,
                format!("SELECT M.mid, M.name, M.genre FROM movies AS M WHERE M.mid = {mid}"),
                check_for(n / 2, Check::Movie(mid)),
            )
        }
    }
}

impl Iterator for Statements<'_> {
    type Item = Stmt;

    fn next(&mut self) -> Option<Stmt> {
        if self.next == self.count {
            return None;
        }
        let n = self.next;
        self.next += 1;
        Some(match (self.workload, self.conn) {
            (Workload::RecOnline, _) => self.rec_online(n),
            (Workload::RecIndexed, _) => self.rec_indexed(n),
            (Workload::IngestMixed, 0) => self.ingest_insert(),
            (Workload::IngestMixed, _) => self.ingest_read(n),
        })
    }
}

/// An autocommit INSERT of rating `rows`.
pub fn insert_sql(rows: &[(i64, i64, f64)]) -> String {
    let values: Vec<String> = rows.iter().map(|&r| rating_row(r)).collect();
    format!("INSERT INTO ratings VALUES {}", values.join(", "))
}

fn check_for(index: usize, check: Check) -> Check {
    if index.is_multiple_of(CHECK_EVERY) {
        check
    } else {
        Check::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(workload: Workload, seed: u64) -> Params {
        Params {
            workload,
            scale: Scale::Tiny,
            seed,
            seconds: 1,
            trace: false,
        }
    }

    fn sql(p: &Params, data: &Dataset) -> Vec<String> {
        (0..CONNECTIONS)
            .flat_map(|c| statements(p, data, c, 0).map(|s| s.sql))
            .collect()
    }

    #[test]
    fn seed_chooses_data_and_statements() {
        for w in Workload::ALL {
            let a = recdb_datasets::generate(&spec(&params(w, 1)));
            let b = recdb_datasets::generate(&spec(&params(w, 1)));
            let c = recdb_datasets::generate(&spec(&params(w, 2)));
            assert_eq!(a.ratings, b.ratings);
            assert_ne!(a.ratings, c.ratings);
            assert_eq!(sql(&params(w, 1), &a), sql(&params(w, 1), &b));
            assert_ne!(sql(&params(w, 1), &a), sql(&params(w, 3), &a));
            let p = params(w, 1);
            for conn in 0..CONNECTIONS {
                assert_eq!(statements(&p, &a, conn, 0).count(), statement_count(&p));
            }
            if rounds(&p) > 1 {
                let round = |r| statements(&p, &a, 0, r).map(|s| s.sql).collect::<Vec<_>>();
                assert_ne!(round(0), round(1));
            }
        }
    }

    #[test]
    fn ingest_inserts_only_fresh_pairs() {
        let p = params(Workload::IngestMixed, 5);
        let data = recdb_datasets::generate(&spec(&p));
        let mut seen: HashSet<(i64, i64)> = data.ratings.iter().map(|&(u, i, _)| (u, i)).collect();
        for stmt in statements(&p, &data, 0, 1) {
            assert_eq!(stmt.kind, Kind::Insert);
            assert_eq!(stmt.rows.len(), INSERT_BATCH);
            for &(u, i, r) in &stmt.rows {
                assert!(seen.insert((u, i)), "({u}, {i}) inserted twice");
                assert!((1.0..=5.0).contains(&r));
            }
        }
        assert!(statements(&p, &data, 1, 1).all(|s| s.kind != Kind::Insert));
    }

    #[test]
    fn query_users_have_ratings() {
        let p = params(Workload::RecOnline, 4);
        let data = recdb_datasets::generate(&spec(&p));
        let raters: HashSet<i64> = data.ratings.iter().map(|r| r.0).collect();
        for stmt in statements(&p, &data, 0, 0) {
            if let Check::TopK { user, .. } = stmt.check {
                assert!(raters.contains(&user));
            }
        }
    }

    #[test]
    fn load_sql_quotes_text() {
        assert_eq!(text("O'Brien"), "'O''Brien'");
        assert_eq!(rating_row((3, 4, 4.0)), "(3, 4, 4.0)");
    }
}
