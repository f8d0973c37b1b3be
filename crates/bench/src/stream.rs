//! Streaming-engine experiment: incremental ingest vs batch rebuild.
//!
//! Replays one synthetic dataset through [`disc_core::DiscEngine`] in
//! micro-batches, and separately re-runs the batch pipeline from scratch
//! on every prefix (what a consumer without the engine would do to keep
//! a repaired view current). Work is compared by the *rows visited*
//! observability counters of the neighbor indexes — a wall-clock-free
//! measure — plus wall time for color. The two final datasets must be
//! identical (the engine's equivalence contract).

use std::time::Instant;

use disc_core::{DiscEngine, DistanceConstraints, SaverConfig};
use disc_data::{bit_equal, ClusterSpec, Dataset, ErrorInjector};
use disc_distance::TupleDistance;
use disc_obs::Snapshot;

use crate::suite::auto_constraints;
use crate::table::Table;

/// Sum of the per-backend `rows_visited` counters in a snapshot delta:
/// the total number of candidate rows any neighbor index touched.
pub fn rows_visited(delta: &Snapshot) -> u64 {
    delta.get("index.brute.rows_visited")
        + delta.get("index.grid.rows_visited")
        + delta.get("index.vptree.rows_visited")
}

/// The `stream_ingest` workload: 1,500 clustered rows (m = 3, four
/// classes) with 5% dirty and 1% natural errors.
pub fn ingest_workload() -> Dataset {
    let n = 1500;
    let mut ds = ClusterSpec::new(n, 3, 4, 11).generate();
    ErrorInjector::new(n / 20, n / 100, 13).inject(&mut ds);
    ds
}

/// The `stream_ingest` saver: ε = 2.5, η = 5, κ = 2 over `m` numeric
/// attributes.
pub fn ingest_saver(m: usize) -> SaverConfig {
    SaverConfig::new(DistanceConstraints::new(2.5, 5), TupleDistance::numeric(m)).kappa(2)
}

/// Streams `ds` through a fresh engine in `batch`-row ingests and checks
/// the engine's search work against one batch `save_all` over the same
/// rows. Panics unless the two results are bit-equal, the stream
/// evaluated at most `max_ratio` times the batch run's
/// `search.candidates`, and `engine.resaves ≤ engine.dirty_rows`.
/// Returns the `search.candidates` of the stream and of the batch run.
///
/// The counters are process-global, so the caller must not run other
/// saves concurrently (the `stream_search_work` test binary holds a
/// single test for that reason).
pub fn check_search_work(ds: &Dataset, batch: usize, max_ratio: u64) -> (u64, u64) {
    let config = ingest_saver(ds.arity());
    let before = Snapshot::take();
    let mut engine = DiscEngine::new(
        ds.schema().clone(),
        Box::new(config.clone().build_approx().unwrap()),
    );
    for chunk in ds.rows().chunks(batch) {
        engine
            .ingest(chunk.to_vec())
            .expect("finite synthetic data");
    }
    let streamed = Snapshot::take().delta_since(&before);
    let mut batch_ds = ds.clone();
    let before = Snapshot::take();
    config.build_approx().unwrap().save_all(&mut batch_ds);
    let batch_run = Snapshot::take().delta_since(&before);
    assert!(
        bit_equal(engine.dataset().rows(), batch_ds.rows()),
        "streamed ingest must equal one batch save_all bit for bit"
    );
    let (resaves, dirty) = (
        streamed.get("engine.resaves"),
        streamed.get("engine.dirty_rows"),
    );
    assert!(
        resaves <= dirty,
        "engine.resaves {resaves} > engine.dirty_rows {dirty}"
    );
    let (streamed, batched) = (
        streamed.get("search.candidates"),
        batch_run.get("search.candidates"),
    );
    assert!(
        streamed <= max_ratio * batched,
        "{batch}-row ingests evaluated {streamed} candidates, more than {max_ratio}x the batch run's {batched}"
    );
    (streamed, batched)
}

/// Runs the comparison on `n` rows split into `batches` micro-batches;
/// returns `(streamed_rows_visited, rebuild_rows_visited)` along with
/// the rendered table. Panics if the streamed and rebuilt datasets
/// diverge.
pub fn compare(n: usize, batches: usize, seed: u64) -> (u64, u64, String) {
    let spec = ClusterSpec::new(n, 4, 3, seed);
    let mut dirty = spec.generate();
    ErrorInjector::new(n / 20, n / 100, seed ^ 0x5EED).inject(&mut dirty);
    let dist = TupleDistance::numeric(dirty.arity());
    let c = auto_constraints(&dirty, &dist);
    let config = SaverConfig::new(c, dist).kappa(2);
    let batch_size = dirty.len().div_ceil(batches.max(1));

    // Streamed: one engine, `batches` ingests.
    let before = Snapshot::take();
    let t0 = Instant::now();
    let saver = config.clone().build_approx().unwrap();
    let mut engine = DiscEngine::new(dirty.schema().clone(), Box::new(saver));
    for chunk in dirty.rows().chunks(batch_size) {
        engine
            .ingest(chunk.to_vec())
            .expect("finite synthetic data");
    }
    let streamed_time = t0.elapsed();
    let streamed = rows_visited(&Snapshot::take().delta_since(&before));

    // Baseline: rebuild from scratch after every batch (save_all over
    // each prefix).
    let before = Snapshot::take();
    let t0 = Instant::now();
    let mut rebuilt: Option<Dataset> = None;
    let mut upto = 0;
    while upto < dirty.len() {
        upto = (upto + batch_size).min(dirty.len());
        let mut prefix = dirty.select(&(0..upto).collect::<Vec<_>>());
        let saver = config.clone().build_approx().unwrap();
        saver.save_all(&mut prefix);
        rebuilt = Some(prefix);
    }
    let rebuild_time = t0.elapsed();
    let rebuild = rows_visited(&Snapshot::take().delta_since(&before));

    let rebuilt = rebuilt.expect("at least one batch");
    assert_eq!(
        engine.dataset().rows(),
        rebuilt.rows(),
        "streamed ingest must equal a batch rebuild on the full data"
    );

    let mut table = Table::new(vec!["mode", "rows visited", "time (s)"]);
    table.row(vec![
        format!("engine ({batches} ingests)"),
        streamed.to_string(),
        format!("{:.4}", streamed_time.as_secs_f64()),
    ]);
    table.row(vec![
        format!("rebuild ({batches} save_all)"),
        rebuild.to_string(),
        format!("{:.4}", rebuild_time.as_secs_f64()),
    ]);
    (streamed, rebuild, table.render())
}

/// The `repro stream` experiment: a small and a medium replay, each in
/// `batches` micro-batches.
pub fn run_with(frac: f64, batches: usize, seed: u64) -> String {
    let mut out = String::from("Streaming ingest vs per-batch rebuild (rows visited)\n");
    for n in [600usize, 2000] {
        let n = ((n as f64 * frac.max(0.2)).round() as usize).max(200);
        let (streamed, rebuild, table) = compare(n, batches, seed);
        out.push_str(&format!("\nn = {n}, {batches} batches:\n{table}"));
        assert!(
            streamed < rebuild,
            "streamed ingest ({streamed}) must visit strictly fewer rows than rebuild ({rebuild})"
        );
        out.push_str(&format!(
            "work saved: {:.1}%\n",
            100.0 * (1.0 - streamed as f64 / rebuild as f64)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn streamed_ingest_beats_rebuild_and_matches() {
        // `compare` internally asserts dataset equality; the work claim
        // is asserted here.
        let (streamed, rebuild, _) = super::compare(400, 4, 7);
        assert!(
            streamed < rebuild,
            "streamed {streamed} >= rebuild {rebuild}"
        );
    }
}
