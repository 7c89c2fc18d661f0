//! Per-user block scoring: the online half of Algorithms 1/2.
//!
//! A [`UserScorer`] resolves one user once and then scores any number of
//! candidate items by dense index. Setting the user scatters the user's
//! CSR ratings row into a dense row indexed by item, so
//!
//! * "already rated?" is one array read instead of a binary search,
//! * ItemCF's Eq. 2 is a gather over item `i`'s neighbour list (each
//!   neighbour `l` reads `row[l]`) instead of a merge-walk of that list
//!   against the user's row,
//! * UserCF's transposed Eq. 2 gathers the user's scattered neighbour
//!   similarities along item `i`'s raters,
//! * SVD is one [`kernels::dot`] of the factor rows, and popularity one
//!   table read.
//!
//! Every arm visits the contributing terms in the same ascending order
//! the per-pair predictors ([`RecModel::predict_indexed`]) do and sums
//! them in `f64` the same way, so scores are **bit-identical** to the
//! per-pair path; only the lookups change. Switching users clears only
//! the entries the previous user set, so one scorer serves a whole
//! multi-user query.

use crate::kernels;
use crate::model::RecModel;
use std::borrow::Borrow;

/// Scores candidate items for one user at a time (see the module docs).
///
/// `M` is anything that borrows a [`RecModel`]: `&RecModel` inside this
/// crate, `Arc<RecModel>` in operators that own their model handle.
#[derive(Debug)]
pub struct UserScorer<M> {
    model: M,
    user: Option<usize>,
    /// The current user's ratings by dense item index.
    row: Vec<Option<f32>>,
    /// UserCF only: the current user's neighbour similarities by dense
    /// user index.
    sims: Vec<Option<f64>>,
}

impl<M: Borrow<RecModel>> UserScorer<M> {
    /// A scorer over `model` with no user set yet.
    pub fn new(model: M) -> Self {
        let m = model.borrow();
        let row = vec![None; m.matrix().n_items()];
        let sims = match m {
            RecModel::User(_) => vec![None; m.matrix().n_users()],
            _ => Vec::new(),
        };
        UserScorer {
            model,
            user: None,
            row,
            sims,
        }
    }

    /// The model being scored.
    pub fn model(&self) -> &RecModel {
        self.model.borrow()
    }

    /// Make dense user `u` the current user. Cost: the previous user's
    /// row (and neighbour list, for UserCF) to clear plus `u`'s to
    /// scatter; a no-op when `u` is already current.
    pub fn set_user(&mut self, u: usize) {
        if self.user == Some(u) {
            return;
        }
        let model: &RecModel = self.model.borrow();
        let csr = model.matrix().user_csr();
        if let Some(prev) = self.user.take() {
            for &i in csr.row(prev).0 {
                self.row[i as usize] = None;
            }
            if let RecModel::User(m) = model {
                for &(v, _) in m.neighborhood().neighbors(prev) {
                    self.sims[v] = None;
                }
            }
        }
        let (items, ratings) = csr.row(u);
        for (&i, &r) in items.iter().zip(ratings) {
            self.row[i as usize] = Some(r);
        }
        if let RecModel::User(m) = model {
            for &(v, sim) in m.neighborhood().neighbors(u) {
                self.sims[v] = Some(sim);
            }
        }
        self.user = Some(u);
    }

    /// Whether the current user rated dense item `i`.
    pub fn is_rated(&self, i: usize) -> bool {
        self.row[i].is_some()
    }

    /// The prediction for dense item `i` and the current user: `None`
    /// when the pair is rated or has no model signal. Bit-identical to
    /// [`RecModel::predict_indexed`].
    ///
    /// # Panics
    /// Panics if no user is set.
    pub fn predict(&self, i: usize) -> Option<f64> {
        if self.is_rated(i) {
            return None;
        }
        let u = self.user.expect("UserScorer::predict before set_user");
        match self.model.borrow() {
            RecModel::Item(m) => {
                let (mut num, mut den) = (0.0, 0.0);
                for &(l, sim) in m.neighborhood().neighbors(i) {
                    if let Some(r) = self.row[l] {
                        num += sim * f64::from(r);
                        den += sim.abs();
                    }
                }
                (den != 0.0).then(|| num / den)
            }
            RecModel::User(m) => {
                let (mut num, mut den) = (0.0, 0.0);
                let (raters, ratings) = m.matrix().item_csr().row(i);
                for (&v, &r) in raters.iter().zip(ratings) {
                    if let Some(sim) = self.sims[v as usize] {
                        num += sim * f64::from(r);
                        den += sim.abs();
                    }
                }
                (den != 0.0).then(|| num / den)
            }
            RecModel::Factors(m) => {
                Some(f64::from(kernels::dot(m.user_vector(u), m.item_vector(i))))
            }
            RecModel::Popular(m) => Some(m.item_score(i)),
        }
    }

    /// Score every candidate in `items` the current user has not rated,
    /// appending `(item_idx, score)` in candidate order. No-signal pairs
    /// score 0 (Algorithm 1 line 14).
    pub fn score_unseen(
        &self,
        items: impl IntoIterator<Item = usize>,
        out: &mut Vec<(usize, f64)>,
    ) {
        for i in items {
            if !self.is_rated(i) {
                out.push((i, self.predict(i).unwrap_or(0.0)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::model::{Algorithm, RecModel, TrainConfig};
    use crate::ratings::{Rating, RatingsMatrix};

    /// Items 0 and 1 are rated in opposite directions by every user, so
    /// their Pearson similarity is negative.
    fn anti_correlated() -> RatingsMatrix {
        let mut ratings = Vec::new();
        for u in 0..6i64 {
            let r = 1.0 + u as f64 * 0.5;
            ratings.push(Rating::new(u, 0, r));
            ratings.push(Rating::new(u, 1, 5.0 - r + 1.0));
            if u % 2 == 0 {
                ratings.push(Rating::new(u, 2, 3.0 + (u % 3) as f64));
            }
        }
        // User 7 rated item 0 only, so items 1 and 2 are unseen for it.
        ratings.push(Rating::new(7, 0, 4.0));
        RatingsMatrix::from_ratings(ratings)
    }

    #[test]
    fn scorer_matches_per_pair_predictions_for_every_algorithm() {
        let m = anti_correlated();
        for algo in Algorithm::ALL {
            let model = RecModel::train(algo, m.clone(), &TrainConfig::default());
            if let RecModel::Item(im) = &model {
                if algo == Algorithm::ItemPearCF {
                    let (i0, i1) = (m.item_idx(0).unwrap(), m.item_idx(1).unwrap());
                    assert!(im.neighborhood().sim(i0, i1).unwrap() < 0.0);
                }
            }
            let mut scorer = model.scorer();
            for u in (0..m.n_users()).chain(0..m.n_users()) {
                scorer.set_user(u);
                for i in 0..m.n_items() {
                    assert_eq!(
                        scorer.predict(i).map(f64::to_bits),
                        model.predict_indexed(u, i).map(f64::to_bits),
                        "{algo} ({u}, {i})"
                    );
                }
            }
        }
    }

    #[test]
    fn score_unseen_skips_rated_and_keeps_candidate_order() {
        let m = anti_correlated();
        let model = RecModel::train(Algorithm::ItemPearCF, m.clone(), &TrainConfig::default());
        let mut scorer = model.scorer();
        let u = m.user_idx(7).unwrap();
        scorer.set_user(u);
        let candidates = [2usize, 0, 1, 2];
        let mut out = Vec::new();
        scorer.score_unseen(candidates, &mut out);
        let expected: Vec<(usize, f64)> = candidates
            .iter()
            .filter(|&&i| m.rating_at(u, i).is_none())
            .map(|&i| (i, model.predict_indexed(u, i).unwrap_or(0.0)))
            .collect();
        assert_eq!(out, expected);
        assert!(out.iter().all(|&(i, _)| i != m.item_idx(0).unwrap()));
    }
}
