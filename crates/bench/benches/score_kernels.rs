//! Score-kernel microbenchmarks: the flat-f32 `dot` from
//! `recdb_algo::kernels`, at the two factor widths the system actually
//! runs (16 = accuracy-eval default, 64 ≈ the bench config's 50 rounded
//! up to a lane multiple). Each iteration scores one user vector against
//! a 1000-item factor block — the materialization unit shape.
//!
//! The `user_scorer` group scores every unseen item of one MovieLens-shape
//! user with ItemCosCF (`max_neighbors = 64`, the bench configuration):
//! `itemcf_dense_row` through the dense-row `UserScorer` (the online
//! operators' path), `itemcf_per_pair` through the per-pair merge-walk
//! `predict_indexed`, for the same user and the same bit-identical scores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recdb_algo::kernels::dot;
use recdb_algo::{Algorithm, RatingsMatrix, RecModel};
use recdb_bench::bench_config;
use recdb_datasets::SyntheticSpec;
use std::time::Duration;

/// Items per scored block (the materialization loop's unit of work).
const BLOCK_ITEMS: usize = 1000;

/// Deterministic xorshift64 fill in [0, 1) — no RNG dependency.
fn factors(f: usize, n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.max(1);
    (0..n * f)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        })
        .collect()
}

fn bench_score_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("score_kernels");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for f in [16usize, 64] {
        let user = factors(f, 1, 1);
        let items = factors(f, BLOCK_ITEMS, 2);
        group.bench_with_input(BenchmarkId::new("dot", format!("f{f}")), &f, |b, &f| {
            b.iter(|| {
                let mut acc = 0.0f32;
                for chunk in items.chunks_exact(f) {
                    acc += dot(&user, chunk);
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_user_scorer(c: &mut Criterion) {
    let dataset = recdb_datasets::generate(&SyntheticSpec::movielens());
    let matrix = RatingsMatrix::from_ratings(dataset.algo_ratings());
    let model = RecModel::train(Algorithm::ItemCosCF, matrix, &bench_config().train);
    let m = model.matrix();
    // The most active user: the longest row, so the most neighbours hit.
    let u = (0..m.n_users())
        .max_by_key(|&u| m.user_csr().row(u).0.len())
        .expect("dataset has users");
    let mut group = c.benchmark_group("user_scorer");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let mut out = Vec::with_capacity(m.n_items());
    group.bench_function("itemcf_dense_row", |b| {
        b.iter(|| {
            out.clear();
            model.score_unseen_into(u, &mut out);
            out.len()
        })
    });
    group.bench_function("itemcf_per_pair", |b| {
        b.iter(|| {
            out.clear();
            for i in 0..m.n_items() {
                if m.rating_at(u, i).is_none() {
                    out.push((i, model.predict_indexed(u, i).unwrap_or(0.0)));
                }
            }
            out.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_score_kernels, bench_user_scorer);
criterion_main!(benches);
