//! What a publish costs. Taking a view copies no row, and the ingests
//! after it copy only the table chunks they write that the view still
//! holds (`engine.chunks_copied`). On a stream of constant density (the
//! classes grow with n), the chunks an 8-row ingest copies while a view
//! is held stay flat when n grows 4×. This is the binary's only test, so
//! the process-wide counter is exact.

use disc_core::{EngineConfig, EngineView};
use disc_data::{ClusterSpec, ErrorInjector, Schema};
use disc_obs::counters::ENGINE_CHUNKS_COPIED;

/// The 8-row ingests measured at the end of each stream.
const MEASURED: usize = 40;

/// True when `a` and `b` read every row of `a` from the same memory:
/// the rows were shared, not copied.
fn share_rows(a: &EngineView, b: &EngineView) -> bool {
    (0..a.len()).all(|i| std::ptr::eq(a.original_row(i).unwrap(), b.original_row(i).unwrap()))
}

/// Streams about `n` rows into a one-shard engine, the last
/// `MEASURED` ingests 8 rows each with a view held across each, and
/// returns the mean chunks those ingests copied.
fn copies_per_ingest(n: usize) -> f64 {
    let mut ds = ClusterSpec::new(n, 3, n / 500, 7).spread(1.0).generate();
    ErrorInjector::new(n / 50, n / 100, 11).inject(&mut ds);
    let rows = ds.rows();
    let (bulk, tail) = rows.split_at(rows.len() - 8 * (MEASURED + 1));
    let mut engine = EngineConfig::new(3, 0.5, 4)
        .kappa(2)
        .shards(1)
        .build_engine(Schema::numeric(3))
        .unwrap();
    engine.ingest(bulk.to_vec()).unwrap();
    let mut batches = tail.chunks(8);

    // With no view held, an ingest writes every chunk in place.
    let before = ENGINE_CHUNKS_COPIED.get();
    engine.ingest(batches.next().unwrap().to_vec()).unwrap();
    assert_eq!(
        ENGINE_CHUNKS_COPIED.get(),
        before,
        "n = {n}: copies without a view"
    );

    let first = engine.view();
    let before = ENGINE_CHUNKS_COPIED.get();
    for batch in batches {
        let view = engine.view();
        engine.ingest(batch.to_vec()).unwrap();
        drop(view);
    }
    let copies = ENGINE_CHUNKS_COPIED.get() - before;

    // No row was copied since the first view: it reads every row, and
    // every output row it does not hold adjusted, from the engine's
    // row store.
    let last = engine.view();
    assert!(share_rows(&first, &last), "n = {n}: a row moved");
    for i in 0..first.len() {
        let (original, current) = (
            first.original_row(i).unwrap(),
            first.current_row(i).unwrap(),
        );
        assert!(
            std::ptr::eq(original, current) || original != current,
            "n = {n}: row {i} is held twice"
        );
    }
    copies as f64 / MEASURED as f64
}

#[test]
fn chunk_copies_per_ingest_stay_flat_in_n() {
    let small = copies_per_ingest(2_000);
    let large = copies_per_ingest(8_000);
    eprintln!("chunks copied per 8-row ingest: {small:.2} at 2,000 rows, {large:.2} at 8,000");
    assert!(small > 0.0, "a held view makes the next ingest copy");
    assert!(
        large <= 1.5 * small,
        "{large:.2} chunks per ingest at 8,000 rows against {small:.2} at 2,000"
    );
}
