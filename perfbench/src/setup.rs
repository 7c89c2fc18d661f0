//! Building an engine the way an application would: generate the data,
//! load it through SQL, create the recommenders and, where the workload
//! asks for it, materialize the RecScoreIndex.

use crate::spans::Recorder;
use crate::workload::{self, Params};
use recdb_algo::model::{NeighborhoodKnobs, TrainConfig};
use recdb_algo::SvdParams;
use recdb_core::{RecDb, RecDbConfig};
use recdb_datasets::Dataset;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Engine configuration for every workload: neighbour lists truncated to
/// 64 and SVD at 50 factors x 120 epochs (EXPERIMENTS.md), the N% rule on
/// at its default 10%, the default 1,024-frame buffer pool and, for
/// durable engines, the default fsync on every commit.
pub fn config(data_dir: Option<PathBuf>) -> RecDbConfig {
    RecDbConfig {
        train: TrainConfig {
            neighborhood: NeighborhoodKnobs {
                max_neighbors: Some(64),
                min_abs_sim: 0.0,
                ..NeighborhoodKnobs::default()
            },
            svd: SvdParams {
                factors: 50,
                epochs: 120,
                ..SvdParams::default()
            },
        },
        data_dir,
        ..RecDbConfig::default()
    }
}

/// An engine ready to serve, and what building it cost.
pub struct Built {
    /// The engine.
    pub db: RecDb,
    /// The generated data it holds.
    pub data: Dataset,
    /// Generate + load + CREATE RECOMMENDER + materialize, in seconds.
    pub setup_s: f64,
    /// Wall time of the CREATE RECOMMENDER statements, in seconds.
    pub model_build_s: f64,
}

/// Build an engine for `p`: in memory, or durable in `dir` when given.
/// Every step runs inside a span under one `setup` root span.
pub fn build(p: &Params, dir: Option<&Path>, spans: &Recorder) -> Result<Built, String> {
    let started = Instant::now();
    let root = spans.start("setup", None, 0);
    let parent = Some(root.id());
    let (data, _) = spans.time("data.generate", parent, 0, || {
        recdb_datasets::generate(&workload::spec(p))
    });
    let db = match dir {
        None => RecDb::with_config(config(None)),
        Some(d) => RecDb::open_with_config(config(Some(d.to_path_buf())))
            .map_err(|e| format!("open {}: {e}", d.display()))?,
    };
    let (loaded, _) = spans.time("sql.load", parent, 0, || {
        workload::load_sql(&data)
            .iter()
            .try_for_each(|sql| db.execute(sql).map(drop))
    });
    loaded.map_err(|e| format!("load: {e}"))?;
    let mut build_us = 0.0;
    for &algo in p.workload.algorithms() {
        let (created, micros) = spans.time(&format!("algo.build.{algo}"), parent, 0, || {
            db.execute(&workload::create_recommender_sql(algo))
        });
        created.map_err(|e| format!("create recommender {algo}: {e}"))?;
        build_us += micros;
    }
    if let Some(algo) = p.workload.materialized() {
        let (done, _) = spans.time("core.materialize", parent, 0, || {
            db.materialize(&workload::recommender_name(algo))
        });
        done.map_err(|e| format!("materialize: {e}"))?;
    }
    spans.end(root);
    Ok(Built {
        db,
        data,
        setup_s: started.elapsed().as_secs_f64(),
        model_build_s: build_us / 1e6,
    })
}
