//! Inspecting a query: `EXPLAIN ANALYZE` plan trees and engine metrics.
//!
//! Builds the quickstart's Figure 1 movie world, then profiles the paper's
//! top-k query twice — once served online (a `Limit` over a
//! `FilterRecommend` that ranks its own scores, so no sort node) and once
//! from the materialized RecScoreIndex (`IndexRecommend`) — so the plan
//! trees show both access paths with their actual row counts and timings.
//! A genre join then shows `JoinRecommend` over a `SeqScan` with the genre
//! filter fused into it. Ends with the engine-wide Prometheus metrics dump.
//!
//! ```text
//! cargo run --example explain_analyze
//! ```

use recdb::core::RecDb;

fn print_plan(db: &mut RecDb, sql: &str) {
    let plan = db.query(sql).expect("explain analyze");
    for i in 0..plan.len() {
        println!("{}", plan.value(i, "plan").expect("plan column"));
    }
}

fn main() {
    let mut db = RecDb::new();
    db.execute_script(
        "CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
         INSERT INTO ratings VALUES
            (1, 1, 1.5), (2, 2, 3.5), (2, 1, 4.5), (2, 3, 2.0),
            (3, 2, 1.0), (3, 1, 2.0), (4, 2, 1.0);
         CREATE TABLE movies (mid INT, name TEXT, genre TEXT);
         INSERT INTO movies VALUES
            (1, 'Spartacus', 'Action'), (2, 'Inception', 'Suspense'),
            (3, 'The Matrix', 'Sci-Fi');
         CREATE RECOMMENDER GeneralRec ON ratings \
            USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval \
            USING ItemCosCF;",
    )
    .expect("schema + recommender");

    let sql = "EXPLAIN ANALYZE SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
               RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
               WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10";

    // Online path: scores are computed per query and ranked by the
    // recommend operator itself (fused top-k; the sort is elided).
    println!("-- {sql}\n");
    println!("Before materialization (online FilterRecommend):");
    print_plan(&mut db, sql);

    // Materialize the score index; the optimizer now picks IndexRecommend,
    // which serves pre-computed scores in descending order (no sort).
    db.materialize("GeneralRec").expect("materialize");
    println!("\nAfter materialization (IndexRecommend):");
    print_plan(&mut db, sql);

    // Paper Query 4's shape: only Sci-Fi movies are scored. The genre
    // predicate runs inside the scan of `movies`.
    let join = "EXPLAIN ANALYZE SELECT R.uid, M.name, R.ratingval \
                FROM ratings AS R, movies AS M \
                RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                WHERE R.uid = 4 AND M.mid = R.iid AND M.genre = 'Sci-Fi'";
    println!("\n-- {join}\n");
    print_plan(&mut db, join);

    // Everything the engine counted along the way, in Prometheus text
    // format: statements by kind, index hits/misses, model build times...
    println!("\n-- RecDb::render_metrics()\n");
    print!("{}", db.render_metrics());
}
