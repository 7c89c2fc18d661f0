//! Answer checks. Any mismatch fails the run.

use crate::drive::Answer;
use crate::workload::{self, Check, Params};
use recdb_algo::Algorithm;
use recdb_core::RecDb;
use recdb_datasets::Dataset;
use recdb_storage::{Tuple, Value};
use std::collections::{BTreeMap, HashSet};

/// Collected check outcomes.
#[derive(Debug, Default)]
pub struct Checks {
    /// Individual comparisons made.
    pub passed: u64,
    /// One message per failed comparison (capped).
    pub failures: Vec<String>,
    failed: u64,
}

impl Checks {
    /// Record one comparison.
    pub fn expect(&mut self, ok: Result<(), String>) {
        match ok {
            Ok(()) => self.passed += 1,
            Err(msg) => {
                self.failed += 1;
                if self.failures.len() < 10 {
                    self.failures.push(msg);
                }
            }
        }
    }

    /// Whether every comparison passed, and at least one was made.
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.passed > 0
    }
}

/// Answers of the sampled RECOMMEND statements of run `p` (one round), run in-process
/// on the reference engine `db` that holds `data`, keyed by (connection,
/// statement index). Sampled top-10 answers are checked against the model
/// on the way.
pub fn reference_answers(
    db: &RecDb,
    p: &Params,
    data: &Dataset,
    checks: &mut Checks,
) -> BTreeMap<(usize, usize), Vec<Tuple>> {
    let mut out = BTreeMap::new();
    for conn in 0..workload::CONNECTIONS {
        for (index, stmt) in workload::statements(p, data, conn, 0).enumerate() {
            if !matches!(stmt.check, Check::Reference | Check::TopK { .. }) {
                continue;
            }
            let rows = db
                .query(&stmt.sql)
                .map(|r| r.rows().to_vec())
                .unwrap_or_default();
            if let Check::TopK { algo, user } = stmt.check {
                checks.expect(top_k_agrees(db, algo, user, &rows));
            }
            out.insert((conn, index), rows);
        }
    }
    out
}

/// Replay the acknowledged INSERTs `acked` on the reference engine `db`,
/// in order, and check each sampled RECOMMEND answer of a phase that ran
/// them concurrently. An answer must equal the reference answer after some
/// prefix of the acknowledged INSERTs inside its window (the INSERT in
/// flight when the reply arrived may already be visible); a sampled top-10
/// must also agree with the model at that prefix.
pub fn replay_and_check(
    db: &RecDb,
    acked: &[Vec<(i64, i64, f64)>],
    answers: &[&Answer],
    checks: &mut Checks,
) -> Result<(), String> {
    let mut open: Vec<(&Answer, &[Tuple])> = Vec::new();
    for a in answers {
        match &a.rows {
            Ok(rows) => open.push((a, rows)),
            Err(e) => checks.expect(Err(format!("conn {} stmt {}: {e}", a.conn, a.index))),
        }
    }
    let mut matched = vec![false; open.len()];
    for prefix in 0..=acked.len() {
        for (k, (a, rows)) in open.iter().enumerate() {
            let (lo, hi) = a.acked_window;
            if matched[k] || prefix < lo || prefix > hi + 1 {
                continue;
            }
            let want = db
                .query(&a.sql)
                .map_err(|e| format!("reference {}: {e}", a.sql))?;
            if *rows == want.rows() {
                matched[k] = true;
                if let Check::TopK { algo, user } = a.check {
                    checks.expect(top_k_agrees(db, algo, user, want.rows()));
                }
            }
        }
        if let Some(rows) = acked.get(prefix) {
            db.execute(&workload::insert_sql(rows))
                .map_err(|e| format!("reference replay: {e}"))?;
        }
    }
    for ((a, _), ok) in open.iter().zip(matched) {
        let (lo, hi) = a.acked_window;
        checks.expect(if ok {
            Ok(())
        } else {
            Err(format!(
                "conn {} stmt {}: answer matches the reference after none of {lo}..={} \
                 acknowledged inserts",
                a.conn,
                a.index,
                hi + 1
            ))
        });
    }
    Ok(())
}

/// `rows` must equal `expected` exactly, in order.
pub fn same_rows(what: &str, rows: &[Tuple], expected: &[Tuple]) -> Result<(), String> {
    if rows == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} rows differ from the {} expected (first: {:?} vs {:?})",
            rows.len(),
            expected.len(),
            rows.first(),
            expected.first()
        ))
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// A top-10 answer `(iid, score)` of `user` must agree with the model's
/// own `RecModel::top_k_unseen`: every returned item is unseen and
/// carries the model's score, and the scores are the ten best. Ties at
/// the boundary may pick either item.
pub fn top_k_agrees(db: &RecDb, algo: Algorithm, user: i64, rows: &[Tuple]) -> Result<(), String> {
    let rec = db
        .recommender(&workload::recommender_name(algo))
        .ok_or_else(|| format!("no {algo} recommender"))?;
    let model = rec.model();
    let matrix = model.matrix();
    let Some(u) = matrix.user_idx(user) else {
        return if rows.is_empty() {
            Ok(())
        } else {
            Err(format!("user {user} is unknown to the model but got rows"))
        };
    };
    let mut unseen = Vec::new();
    model.score_unseen_into(u, &mut unseen);
    let scores: BTreeMap<i64, f64> = unseen
        .iter()
        .map(|&(i, s)| (matrix.item_id(i), s))
        .collect();
    let best: Vec<f64> = model.top_k_unseen(u, 10).iter().map(|&(_, s)| s).collect();
    let mut got = Vec::new();
    for row in rows {
        let (Some(Value::Int(iid)), Some(Value::Float(score))) = (row.get(0), row.get(1)) else {
            return Err(format!("user {user}: malformed top-10 row {row:?}"));
        };
        match scores.get(iid) {
            Some(&s) if close(s, *score) => got.push(*score),
            Some(&s) => {
                return Err(format!(
                    "user {user} item {iid}: score {score} != model {s}"
                ))
            }
            None => return Err(format!("user {user} item {iid}: rated or unknown item")),
        }
    }
    got.sort_by(|a, b| b.total_cmp(a));
    let agree = got.len() == best.len() && got.iter().zip(&best).all(|(a, b)| close(*a, *b));
    if agree {
        Ok(())
    } else {
        Err(format!(
            "user {user} {algo}: top-10 scores {got:?} != model {best:?}"
        ))
    }
}

/// A point SELECT on `movies` must return exactly the generated row.
pub fn movie_row(data: &Dataset, mid: i64, rows: &[Tuple]) -> Result<(), String> {
    let expected: Vec<Tuple> = data
        .items
        .iter()
        .filter(|i| i.iid == mid)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i.iid),
                Value::Text(i.name.clone()),
                Value::Text(i.genre.clone()),
            ])
        })
        .collect();
    same_rows(&format!("movie {mid}"), rows, &expected)
}

/// `rows` (uid, iid, ratingval) must hold exactly `expected`, with no
/// duplicate (uid, iid).
pub fn ratings_exact(
    what: &str,
    rows: &[Tuple],
    expected: &[(i64, i64, f64)],
) -> Result<(), String> {
    let key = |t: &Tuple| match (t.get(0), t.get(1), t.get(2)) {
        (Some(Value::Int(u)), Some(Value::Int(i)), Some(Value::Float(r))) => {
            Ok((*u, *i, r.to_bits()))
        }
        _ => Err(format!("{what}: malformed ratings row {t:?}")),
    };
    let mut got = rows.iter().map(key).collect::<Result<Vec<_>, _>>()?;
    let mut pairs = HashSet::new();
    if let Some(&(u, i, _)) = got.iter().find(|&&(u, i, _)| !pairs.insert((u, i))) {
        return Err(format!("{what}: duplicate rating ({u}, {i})"));
    }
    let mut want: Vec<_> = expected
        .iter()
        .map(|&(u, i, r)| (u, i, r.to_bits()))
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} ratings rows, expected {} (seeded + acknowledged)",
            got.len(),
            want.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rating(u: i64, i: i64, r: f64) -> Tuple {
        Tuple::new(vec![Value::Int(u), Value::Int(i), Value::Float(r)])
    }

    #[test]
    fn ratings_check_catches_loss_and_duplicates() {
        let want = [(1, 1, 4.0), (1, 2, 3.5)];
        let rows = vec![rating(1, 2, 3.5), rating(1, 1, 4.0)];
        assert!(ratings_exact("t", &rows, &want).is_ok());
        assert!(ratings_exact("t", &rows[..1], &want).is_err());
        let dup = vec![rating(1, 1, 4.0), rating(1, 1, 4.0)];
        assert!(ratings_exact("t", &dup, &[(1, 1, 4.0), (1, 1, 4.0)])
            .unwrap_err()
            .contains("duplicate"));
        let changed = vec![rating(1, 1, 4.0), rating(1, 2, 3.0)];
        assert!(ratings_exact("t", &changed, &want).is_err());
    }

    #[test]
    fn checks_need_a_comparison_and_no_failure() {
        let mut c = Checks::default();
        assert!(!c.ok());
        c.expect(Ok(()));
        assert!(c.ok());
        c.expect(Err("boom".into()));
        assert!(!c.ok());
        assert_eq!(c.failures, vec!["boom".to_owned()]);
    }
}
