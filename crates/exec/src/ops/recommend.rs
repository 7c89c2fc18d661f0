//! The recommendation-aware operator family (§IV).
//!
//! * [`RecommendOp`] — Algorithms 1/2: score user/item pairs from the
//!   trained model. With uid/iid/ratingval predicates pushed into it, it is
//!   the paper's FILTERRECOMMEND: only the requested users/items are
//!   scored, so cost scales with the predicate selectivity instead of
//!   `|U| × |I|`.
//! * [`JoinRecommendOp`] — §IV-B2: streams the (already filtered) outer
//!   relation and predicts a score only for items that survive the join
//!   predicate.
//! * [`IndexRecommendOp`] — Algorithm 3: serves pre-computed scores from
//!   the [`RecScoreIndex`] in descending score order per user (Phase I
//!   user filter → Phase II rating-range tree traversal → Phase III item
//!   filter).
//!
//! All three emit `〈user, item, ratingval〉` tuples for items **unseen** by
//! the user ("each tuple represents ... item i (unseen by user uid)");
//! pairs with no model signal score 0 (Algorithm 1 line 14). The two
//! online operators score in blocks of [`SCORE_BLOCK`] candidates through
//! a [`UserScorer`], as the paper's Algorithms 1/2 do, and still hand
//! tuples downstream one at a time.

use super::PhysicalOp;
use crate::error::{ExecError, ExecResult};
use crate::rec_index::RecScoreIndex;
use recdb_algo::{RecModel, TopK, UserScorer};
use recdb_guard::{GuardError, QueryGuard};
use recdb_storage::{Schema, Tuple, Value};
use std::collections::HashSet;
use std::collections::VecDeque;
use std::sync::Arc;

/// Candidate `(user, item)` pairs the online operators score per block:
/// one guard tick (charging every candidate, rated pairs included) and
/// one buffer refill per block.
pub const SCORE_BLOCK: usize = 256;

fn in_bounds(score: f64, min: Option<f64>, max: Option<f64>) -> bool {
    min.is_none_or(|m| score >= m) && max.is_none_or(|m| score <= m)
}

/// Resolve a pushed-down id list to the model's dense indexes: ids the
/// recommender never saw are dropped, duplicates collapse (an `IN (8, 8)`
/// list must not double-count item 8), and the result is in ascending
/// dense order — the order the unfiltered operator visits ids in, so a
/// filtered plan emits its rows in the same relative order as the naive
/// plan. `None` means every id (`0..n`).
fn resolve_ids(
    list: Option<Vec<i64>>,
    n: usize,
    lookup: impl Fn(i64) -> Option<usize>,
) -> Vec<usize> {
    let Some(list) = list else {
        return (0..n).collect();
    };
    let mut dense: Vec<usize> = list.into_iter().filter_map(lookup).collect();
    dense.sort_unstable();
    dense.dedup();
    dense
}

/// The `〈user, item, ratingval〉` output row for dense indexes.
fn rec_tuple(model: &RecModel, u: usize, i: usize, score: f64) -> Tuple {
    let m = model.matrix();
    Tuple::new(vec![
        Value::Int(m.user_id(u)),
        Value::Int(m.item_id(i)),
        Value::Float(score),
    ])
}

// -------------------------------------------------------------- Recommend

/// The RECOMMEND / FILTERRECOMMEND operator.
///
/// Scores `users × items` in blocks of [`SCORE_BLOCK`] candidates through
/// one [`UserScorer`]: each user is resolved once, and a block is one
/// flat `(user, item, score)` buffer from which tuples are built as they
/// are pulled. With [`with_top_k`](Self::with_top_k) (the planner's fused
/// `ORDER BY <rating> DESC LIMIT k`) the blocks stream through a
/// `k`-bounded heap instead and only the `k` best rows ever become
/// tuples, emitted in descending score order.
pub struct RecommendOp {
    scorer: UserScorer<Arc<RecModel>>,
    schema: Schema,
    users: Vec<usize>,
    items: Vec<usize>,
    min_rating: Option<f64>,
    max_rating: Option<f64>,
    /// The next candidate is `users[u_cursor] × items[i_cursor]`.
    u_cursor: usize,
    i_cursor: usize,
    /// The current block of unseen, in-bounds `(user, item, score)`
    /// rows, emitted from `pos` on.
    block: Vec<(usize, usize, f64)>,
    pos: usize,
    /// Fused top-k: rank the whole output before emitting the first row.
    top_k: Option<usize>,
    guard: QueryGuard,
    /// Whether any predicate was pushed into the operator — decides the
    /// FILTERRECOMMEND vs RECOMMEND display name. Captured at build time
    /// because `users`/`items` are normalized to concrete lists.
    filtered: bool,
    /// Peak encoded bytes the fused top-k held.
    buffered_bytes: u64,
}

impl RecommendOp {
    /// Build the operator. `users`/`items` of `None` mean "all users/items
    /// known to the model" (the plain RECOMMEND of Algorithm 1); lists
    /// implement the pushed-down `uPred`/`iPred` of FILTERRECOMMEND.
    ///
    /// The operator's domain is the recommender's input data: ids that
    /// never appeared in the ratings table are not part of `U × I` and
    /// produce no rows (a filter on them intersects to nothing). Rows come
    /// out user-major in the model's dense id order.
    pub fn new(
        model: Arc<RecModel>,
        schema: Schema,
        users: Option<Vec<i64>>,
        items: Option<Vec<i64>>,
        min_rating: Option<f64>,
        max_rating: Option<f64>,
    ) -> Self {
        let filtered =
            users.is_some() || items.is_some() || min_rating.is_some() || max_rating.is_some();
        let m = model.matrix();
        let users = resolve_ids(users, m.n_users(), |u| m.user_idx(u));
        let items = resolve_ids(items, m.n_items(), |i| m.item_idx(i));
        RecommendOp {
            scorer: UserScorer::new(model),
            schema,
            users,
            items,
            min_rating,
            max_rating,
            u_cursor: 0,
            i_cursor: 0,
            block: Vec::new(),
            pos: 0,
            top_k: None,
            guard: QueryGuard::unlimited(),
            filtered,
            buffered_bytes: 0,
        }
    }

    /// Emit only the `k` highest-scoring rows, best first; ties keep the
    /// emission order of the unranked operator (the stable tie-break of
    /// a `TopKSort` over it). The memory budget is charged for the rows
    /// the heap retains.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Attach a resource governor. Every block of candidates is charged
    /// in full — including pairs skipped as already-rated or
    /// out-of-bounds — so a runaway RECOMMEND is cancellable within one
    /// block.
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = guard;
        self
    }

    /// Score the next block of candidates into `block`; `false` once
    /// every candidate has been scored.
    fn fill_block(&mut self) -> Result<bool, GuardError> {
        self.block.clear();
        self.pos = 0;
        if self.items.is_empty() {
            self.u_cursor = self.users.len();
        }
        let mut examined = 0;
        while examined < SCORE_BLOCK && self.u_cursor < self.users.len() {
            let u = self.users[self.u_cursor];
            self.scorer.set_user(u);
            let end = (self.i_cursor + SCORE_BLOCK - examined).min(self.items.len());
            for &i in &self.items[self.i_cursor..end] {
                // Unseen items only; rated pairs are not recommendations.
                if self.scorer.is_rated(i) {
                    continue;
                }
                let score = self.scorer.predict(i).unwrap_or(0.0);
                if in_bounds(score, self.min_rating, self.max_rating) {
                    self.block.push((u, i, score));
                }
            }
            examined += end - self.i_cursor;
            if end == self.items.len() {
                self.u_cursor += 1;
                self.i_cursor = 0;
            } else {
                self.i_cursor = end;
            }
        }
        self.guard.tick_n(examined as u64)?;
        Ok(examined > 0)
    }

    /// The fused top-k: stream every block through a `k`-bounded heap,
    /// then leave the `k` best, sorted, as the block to emit.
    fn rank(&mut self, k: usize) -> Result<(), GuardError> {
        let row_bytes =
            Tuple::new(vec![Value::Int(0), Value::Int(0), Value::Float(0.0)]).encoded_size() as u64;
        let mut top = TopK::new(k, |a: &(usize, usize, f64), b: &(usize, usize, f64)| {
            b.2.total_cmp(&a.2)
        });
        while self.fill_block()? {
            for &row in &self.block {
                top.push(row);
            }
            let held = top.len() as u64 * row_bytes;
            if held > self.buffered_bytes {
                self.guard.charge_mem(held - self.buffered_bytes)?;
                self.buffered_bytes = held;
            }
        }
        self.block = top.into_sorted();
        self.pos = 0;
        Ok(())
    }
}

impl PhysicalOp for RecommendOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        loop {
            if let Some(&(u, i, score)) = self.block.get(self.pos) {
                self.pos += 1;
                return Some(Ok(rec_tuple(self.scorer.model(), u, i, score)));
            }
            let step = match self.top_k.take() {
                Some(k) => self.rank(k).map(|()| true),
                None => self.fill_block(),
            };
            match step {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => return Some(Err(e.into())),
            }
        }
    }

    fn name(&self) -> &'static str {
        if self.filtered {
            "FilterRecommend"
        } else {
            "Recommend"
        }
    }

    fn buffered_bytes(&self) -> u64 {
        self.buffered_bytes
    }
}

// ---------------------------------------------------------- JoinRecommend

/// The JOINRECOMMEND operator: predicts scores only for the items flowing
/// out of the outer relation. Output tuples are `rec ++ outer`, outer-row
/// major, users in dense id order within a row.
///
/// Outer rows are pulled in blocks of about [`SCORE_BLOCK`] candidate
/// pairs; each block is scored user by user through one [`UserScorer`]
/// (so a single-user query resolves its user once for the whole join)
/// and then emitted in outer-row order.
pub struct JoinRecommendOp<'a> {
    scorer: UserScorer<Arc<RecModel>>,
    schema: Schema,
    outer: Box<dyn PhysicalOp + 'a>,
    /// Ordinal of the item-id column in the outer schema.
    outer_item_ordinal: usize,
    users: Vec<usize>,
    min_rating: Option<f64>,
    max_rating: Option<f64>,
    /// The current block: outer rows with their dense item (`None` when
    /// the join key is NULL, non-integer or unknown to the model).
    rows: Vec<(Tuple, Option<usize>)>,
    /// `scores[r * users.len() + k]`: the in-bounds score of user `k` for
    /// row `r`'s item, `None` when rated, unmatched or out of bounds.
    scores: Vec<Option<f64>>,
    pending: VecDeque<Tuple>,
    /// An outer error, surfaced after the rows pulled before it.
    error: Option<ExecError>,
    outer_done: bool,
    guard: QueryGuard,
}

impl<'a> JoinRecommendOp<'a> {
    /// Build the operator. `rec_schema` is the recommend leaf's 3-column
    /// schema; the output schema is `rec_schema ⊕ outer.schema()`.
    pub fn new(
        model: Arc<RecModel>,
        rec_schema: Schema,
        outer: Box<dyn PhysicalOp + 'a>,
        outer_item_ordinal: usize,
        users: Option<Vec<i64>>,
        min_rating: Option<f64>,
        max_rating: Option<f64>,
    ) -> Self {
        let m = model.matrix();
        let users = resolve_ids(users, m.n_users(), |u| m.user_idx(u));
        let schema = rec_schema.join(outer.schema());
        JoinRecommendOp {
            scorer: UserScorer::new(model),
            schema,
            outer,
            outer_item_ordinal,
            users,
            min_rating,
            max_rating,
            rows: Vec::new(),
            scores: Vec::new(),
            pending: VecDeque::new(),
            error: None,
            outer_done: false,
            guard: QueryGuard::unlimited(),
        }
    }

    /// Attach a resource governor (charged once per block with every
    /// candidate pair of the block).
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = guard;
        self
    }

    /// Pull, score and queue the next block of outer rows.
    fn fill_block(&mut self) -> Result<(), GuardError> {
        let n_users = self.users.len();
        while self.rows.len() * n_users < SCORE_BLOCK {
            match self.outer.next() {
                None => {
                    self.outer_done = true;
                    break;
                }
                Some(Err(e)) => {
                    self.error = Some(e);
                    self.outer_done = true;
                    break;
                }
                Some(Ok(t)) => {
                    // NULL / non-integer join keys never match, and items
                    // outside the recommender's universe are skipped.
                    let item = t
                        .get(self.outer_item_ordinal)
                        .and_then(Value::as_int)
                        .and_then(|id| self.scorer.model().matrix().item_idx(id));
                    self.rows.push((t, item));
                }
            }
        }
        self.guard.tick_n((self.rows.len() * n_users) as u64)?;
        self.scores.clear();
        self.scores.resize(self.rows.len() * n_users, None);
        for (k, &u) in self.users.iter().enumerate() {
            self.scorer.set_user(u);
            for (r, &(_, item)) in self.rows.iter().enumerate() {
                let Some(i) = item else { continue };
                if self.scorer.is_rated(i) {
                    continue;
                }
                let score = self.scorer.predict(i).unwrap_or(0.0);
                if in_bounds(score, self.min_rating, self.max_rating) {
                    self.scores[r * n_users + k] = Some(score);
                }
            }
        }
        for (r, (outer_tuple, item)) in self.rows.drain(..).enumerate() {
            for (k, &u) in self.users.iter().enumerate() {
                if let (Some(i), Some(score)) = (item, self.scores[r * n_users + k]) {
                    let rec = rec_tuple(self.scorer.model(), u, i, score);
                    self.pending.push_back(rec.join(&outer_tuple));
                }
            }
        }
        Ok(())
    }
}

impl PhysicalOp for JoinRecommendOp<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        loop {
            if let Some(t) = self.pending.pop_front() {
                return Some(Ok(t));
            }
            if let Some(e) = self.error.take() {
                return Some(Err(e));
            }
            if self.outer_done || self.users.is_empty() {
                return None;
            }
            if let Err(e) = self.fill_block() {
                self.outer_done = true;
                return Some(Err(e.into()));
            }
        }
    }

    fn name(&self) -> &'static str {
        "JoinRecommend"
    }
}

// --------------------------------------------------------- IndexRecommend

/// The INDEXRECOMMEND operator (Algorithm 3).
pub struct IndexRecommendOp {
    index: Arc<RecScoreIndex>,
    schema: Schema,
    users: Vec<i64>,
    item_filter: Option<HashSet<i64>>,
    min_rating: Option<f64>,
    max_rating: Option<f64>,
    u_cursor: usize,
    /// Per-user buffered descending entries (Phase II output).
    buffer: VecDeque<(i64, i64, f64)>,
    guard: QueryGuard,
}

impl IndexRecommendOp {
    /// Build the operator for the given (Phase I) user list. `item_filter`
    /// is the Phase III `iPred`; the rating bounds are the Phase II
    /// `rPred`.
    pub fn new(
        index: Arc<RecScoreIndex>,
        schema: Schema,
        users: Vec<i64>,
        item_filter: Option<Vec<i64>>,
        min_rating: Option<f64>,
        max_rating: Option<f64>,
    ) -> Self {
        IndexRecommendOp {
            index,
            schema,
            users,
            item_filter: item_filter.map(|v| v.into_iter().collect()),
            min_rating,
            max_rating,
            u_cursor: 0,
            buffer: VecDeque::new(),
            guard: QueryGuard::unlimited(),
        }
    }

    /// Attach a resource governor (checked once per emitted tuple /
    /// per-user index traversal).
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = guard;
        self
    }
}

impl PhysicalOp for IndexRecommendOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<ExecResult<Tuple>> {
        loop {
            if let Err(e) = self.guard.tick() {
                return Some(Err(e.into()));
            }
            if let Some((user, item, score)) = self.buffer.pop_front() {
                return Some(Ok(Tuple::new(vec![
                    Value::Int(user),
                    Value::Int(item),
                    Value::Float(score),
                ])));
            }
            if self.u_cursor >= self.users.len() {
                return None;
            }
            let user = self.users[self.u_cursor];
            self.u_cursor += 1;
            // Phase II: rating-range tree traversal, descending.
            for (item, score) in self.index.iter_desc(user, self.min_rating, self.max_rating) {
                // Phase III: item-id filtering.
                if self
                    .item_filter
                    .as_ref()
                    .is_none_or(|set| set.contains(&item))
                {
                    self.buffer.push_back((user, item, score));
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "IndexRecommend"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{drain, ValuesOp};
    use recdb_algo::{Algorithm, Rating, RatingsMatrix};
    use recdb_storage::{Column, DataType};

    fn rec_schema() -> Schema {
        Schema::new(vec![
            Column::qualified("R", "uid", DataType::Int),
            Column::qualified("R", "iid", DataType::Int),
            Column::qualified("R", "ratingval", DataType::Float),
        ])
    }

    /// Figure 1 data: users 1–4, items 1–3.
    fn model() -> Arc<RecModel> {
        Arc::new(RecModel::train(
            Algorithm::ItemCosCF,
            RatingsMatrix::from_ratings(vec![
                Rating::new(1, 1, 1.5),
                Rating::new(2, 2, 3.5),
                Rating::new(2, 1, 4.5),
                Rating::new(2, 3, 2.0),
                Rating::new(3, 2, 1.0),
                Rating::new(3, 1, 2.0),
                Rating::new(4, 2, 1.0),
            ]),
            &Default::default(),
        ))
    }

    #[test]
    fn full_recommend_covers_all_unseen_pairs() {
        let mut op = RecommendOp::new(model(), rec_schema(), None, None, None, None);
        let got = drain(&mut op).unwrap();
        // 4 users × 3 items = 12 pairs, 7 rated → 5 unseen.
        assert_eq!(got.len(), 5);
        for t in &got {
            let u = t.get(0).unwrap().as_int().unwrap();
            let i = t.get(1).unwrap().as_int().unwrap();
            assert!(
                model().matrix().rating_of(u, i).is_none(),
                "({u},{i}) rated"
            );
        }
    }

    #[test]
    fn filter_recommend_scopes_to_user() {
        let mut op = RecommendOp::new(model(), rec_schema(), Some(vec![1]), None, None, None);
        let got = drain(&mut op).unwrap();
        // User 1 rated item 1 only → items 2, 3 unseen.
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|t| t.get(0).unwrap() == &Value::Int(1)));
    }

    #[test]
    fn filter_recommend_scopes_to_items() {
        let mut op = RecommendOp::new(
            model(),
            rec_schema(),
            Some(vec![1]),
            Some(vec![2]),
            None,
            None,
        );
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get(1).unwrap(), &Value::Int(2));
        // Predicted value matches the model's Eq. 2 output.
        let expected = model().predict(1, 2).unwrap();
        assert_eq!(got[0].get(2).unwrap().as_f64().unwrap(), expected);
    }

    #[test]
    fn rating_bounds_prune_output() {
        let mut op = RecommendOp::new(model(), rec_schema(), None, None, Some(0.5), None);
        let got = drain(&mut op).unwrap();
        assert!(got
            .iter()
            .all(|t| t.get(2).unwrap().as_f64().unwrap() >= 0.5));
        let mut unbounded = RecommendOp::new(model(), rec_schema(), None, None, None, None);
        assert!(drain(&mut unbounded).unwrap().len() >= got.len());
    }

    #[test]
    fn unknown_ids_are_outside_the_domain() {
        // Users/items that never appear in the ratings table are not part
        // of the recommender's U × I and yield no rows.
        let mut op = RecommendOp::new(model(), rec_schema(), Some(vec![99]), None, None, None);
        assert!(drain(&mut op).unwrap().is_empty());
        let mut op = RecommendOp::new(
            model(),
            rec_schema(),
            Some(vec![1]),
            Some(vec![2, 44, 45]),
            None,
            None,
        );
        let got = drain(&mut op).unwrap();
        assert_eq!(got.len(), 1, "only the known item 2 survives");
    }

    #[test]
    fn duplicate_filter_ids_do_not_duplicate_output() {
        let mut op = RecommendOp::new(
            model(),
            rec_schema(),
            Some(vec![1, 1]),
            Some(vec![2, 2, 2]),
            None,
            None,
        );
        assert_eq!(drain(&mut op).unwrap().len(), 1);
    }

    #[test]
    fn join_recommend_scores_only_outer_items() {
        let outer_schema = Schema::new(vec![
            Column::qualified("M", "mid", DataType::Int),
            Column::qualified("M", "name", DataType::Text),
        ]);
        let outer = Box::new(ValuesOp::new(
            outer_schema,
            vec![
                Tuple::new(vec![Value::Int(2), Value::Text("Inception".into())]),
                Tuple::new(vec![Value::Int(3), Value::Text("The Matrix".into())]),
                Tuple::new(vec![Value::Null, Value::Text("ghost".into())]),
            ],
        ));
        let mut op =
            JoinRecommendOp::new(model(), rec_schema(), outer, 0, Some(vec![1]), None, None);
        let got = drain(&mut op).unwrap();
        // User 1: items 2 and 3 are unseen → two joined tuples.
        assert_eq!(got.len(), 2);
        for t in &got {
            assert_eq!(t.arity(), 5);
            assert_eq!(t.get(1), t.get(3), "item id equals outer mid");
        }
        assert_eq!(got[0].get(4).unwrap().as_text(), Some("Inception"));
    }

    #[test]
    fn join_recommend_skips_rated_pairs() {
        let outer_schema = Schema::new(vec![Column::qualified("M", "mid", DataType::Int)]);
        let outer = Box::new(ValuesOp::new(
            outer_schema,
            vec![Tuple::new(vec![Value::Int(1)])], // user 1 already rated item 1
        ));
        let mut op =
            JoinRecommendOp::new(model(), rec_schema(), outer, 0, Some(vec![1]), None, None);
        assert!(drain(&mut op).unwrap().is_empty());
    }

    fn sample_index() -> Arc<RecScoreIndex> {
        let mut idx = RecScoreIndex::new();
        idx.insert(1, 10, 4.5);
        idx.insert(1, 11, 2.0);
        idx.insert(1, 12, 5.0);
        idx.insert(2, 10, 3.0);
        idx.mark_complete(1);
        idx.mark_complete(2);
        Arc::new(idx)
    }

    #[test]
    fn index_recommend_emits_descending() {
        let mut op = IndexRecommendOp::new(sample_index(), rec_schema(), vec![1], None, None, None);
        let got = drain(&mut op).unwrap();
        let items: Vec<i64> = got
            .iter()
            .map(|t| t.get(1).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(items, vec![12, 10, 11]);
        let scores: Vec<f64> = got
            .iter()
            .map(|t| t.get(2).unwrap().as_f64().unwrap())
            .collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn index_recommend_three_phase_filtering() {
        // Phase I: users [1, 2]; Phase II: rating ≥ 3; Phase III: items {10, 12}.
        let mut op = IndexRecommendOp::new(
            sample_index(),
            rec_schema(),
            vec![1, 2],
            Some(vec![10, 12]),
            Some(3.0),
            None,
        );
        let got = drain(&mut op).unwrap();
        let triples: Vec<(i64, i64, f64)> = got
            .iter()
            .map(|t| {
                (
                    t.get(0).unwrap().as_int().unwrap(),
                    t.get(1).unwrap().as_int().unwrap(),
                    t.get(2).unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        assert_eq!(triples, vec![(1, 12, 5.0), (1, 10, 4.5), (2, 10, 3.0)]);
    }

    #[test]
    fn index_recommend_unknown_user_is_empty() {
        let mut op =
            IndexRecommendOp::new(sample_index(), rec_schema(), vec![42], None, None, None);
        assert!(drain(&mut op).unwrap().is_empty());
    }

    #[test]
    fn filter_recommend_does_less_prediction_work_than_full() {
        // Cost-shape assertion: the filtered operator emits (and therefore
        // scored) a small fraction of what the full operator does.
        let full = drain(&mut RecommendOp::new(
            model(),
            rec_schema(),
            None,
            None,
            None,
            None,
        ))
        .unwrap()
        .len();
        let filtered = drain(&mut RecommendOp::new(
            model(),
            rec_schema(),
            Some(vec![1]),
            Some(vec![2]),
            None,
            None,
        ))
        .unwrap()
        .len();
        assert!(filtered * 2 <= full, "filtered {filtered} vs full {full}");
    }

    /// A model big enough that one query spans several score blocks:
    /// 40 users × 50 items at ~50% density with half-star ratings (many
    /// tied predictions).
    fn big_model(algorithm: Algorithm) -> Arc<RecModel> {
        let mut ratings = Vec::new();
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for u in 0..40i64 {
            for i in 0..50i64 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s % 10 < 5 {
                    ratings.push(Rating::new(u, i, 1.0 + (s % 9) as f64 / 2.0));
                }
            }
        }
        Arc::new(RecModel::train(
            algorithm,
            RatingsMatrix::from_ratings(ratings),
            &Default::default(),
        ))
    }

    fn triples(rows: &[Tuple]) -> Vec<(i64, i64, u64)> {
        rows.iter()
            .map(|t| {
                (
                    t.get(0).unwrap().as_int().unwrap(),
                    t.get(1).unwrap().as_int().unwrap(),
                    t.get(2).unwrap().as_f64().unwrap().to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn block_scoring_matches_per_pair_predictions() {
        for algorithm in Algorithm::ALL {
            let model = big_model(algorithm);
            let m = model.matrix();
            let mut op = RecommendOp::new(Arc::clone(&model), rec_schema(), None, None, None, None);
            let got = triples(&drain(&mut op).unwrap());
            let mut want = Vec::new();
            for &u in m.user_ids() {
                for &i in m.item_ids() {
                    if m.rating_of(u, i).is_none() {
                        let score = model.predict(u, i).unwrap_or(0.0);
                        want.push((u, i, score.to_bits()));
                    }
                }
            }
            assert!(want.len() > 2 * SCORE_BLOCK, "spans several blocks");
            assert_eq!(got, want, "{algorithm}");
        }
    }

    #[test]
    fn fused_top_k_equals_stable_sort_of_the_stream() {
        for algorithm in [Algorithm::ItemCosCF, Algorithm::Popularity, Algorithm::Svd] {
            let model = big_model(algorithm);
            let users = Some(vec![3, 1, 7, 3, 99]);
            let stream = RecommendOp::new(
                Arc::clone(&model),
                rec_schema(),
                users.clone(),
                None,
                None,
                None,
            );
            let mut all = drain(&mut { stream }).unwrap();
            // A stable sort by score descending keeps emission order on ties.
            all.sort_by(|a, b| b.get(2).unwrap().total_cmp(a.get(2).unwrap()));
            for k in [0usize, 1, 3, 10, all.len(), all.len() + 5] {
                let mut op = RecommendOp::new(
                    Arc::clone(&model),
                    rec_schema(),
                    users.clone(),
                    None,
                    None,
                    None,
                )
                .with_top_k(k);
                let got = drain(&mut op).unwrap();
                assert_eq!(
                    triples(&got),
                    triples(&all[..k.min(all.len())]),
                    "{algorithm} k {k}"
                );
                let row_bytes = all.first().map_or(0, |t| t.encoded_size() as u64);
                assert_eq!(op.buffered_bytes(), k.min(all.len()) as u64 * row_bytes);
            }
        }
    }

    #[test]
    fn guard_is_charged_for_every_candidate() {
        let model = big_model(Algorithm::ItemCosCF);
        let candidates = (model.matrix().n_users() * model.matrix().n_items()) as u64;
        let run = |budget: u64| {
            let guard = QueryGuard::with_limits(None, Some(budget), None);
            let mut op = RecommendOp::new(Arc::clone(&model), rec_schema(), None, None, None, None)
                .with_guard(guard);
            drain(&mut op)
        };
        run(candidates).expect("a budget of exactly every candidate suffices");
        assert!(run(candidates - 1).is_err(), "rated pairs are charged too");
        // The fused top-k charges the same candidates, and a row-sized
        // memory budget per kept row.
        let guard = QueryGuard::with_limits(None, Some(candidates - 1), None);
        let mut op = RecommendOp::new(Arc::clone(&model), rec_schema(), None, None, None, None)
            .with_guard(guard)
            .with_top_k(5);
        assert!(drain(&mut op).is_err());
    }

    #[test]
    fn join_recommend_blocks_match_per_pair_predictions() {
        let model = big_model(Algorithm::UserCosCF);
        let outer_schema = Schema::new(vec![Column::qualified("M", "mid", DataType::Int)]);
        // Every item twice, plus NULL and unknown join keys, across
        // several blocks.
        let mut outer_rows = Vec::new();
        for round in 0..6 {
            for i in 0..50i64 {
                outer_rows.push(Tuple::new(vec![Value::Int(i)]));
                if i % 9 == round {
                    outer_rows.push(Tuple::new(vec![Value::Null]));
                    outer_rows.push(Tuple::new(vec![Value::Int(1000 + i)]));
                }
            }
        }
        let users = vec![5, 2, 5, 17];
        let outer = Box::new(ValuesOp::new(outer_schema, outer_rows.clone()));
        let mut op = JoinRecommendOp::new(
            Arc::clone(&model),
            rec_schema(),
            outer,
            0,
            Some(users),
            None,
            None,
        );
        let got = triples(&drain(&mut op).unwrap());
        let m = model.matrix();
        let mut dense_users: Vec<i64> = vec![5, 2, 17];
        dense_users.sort_by_key(|&u| m.user_idx(u).unwrap());
        let mut want = Vec::new();
        for row in &outer_rows {
            let Some(item) = row.get(0).unwrap().as_int() else {
                continue;
            };
            if m.item_idx(item).is_none() {
                continue;
            }
            for &u in &dense_users {
                if m.rating_of(u, item).is_none() {
                    want.push((u, item, model.predict(u, item).unwrap_or(0.0).to_bits()));
                }
            }
        }
        assert!(want.len() > SCORE_BLOCK);
        assert_eq!(got, want);
    }
}
