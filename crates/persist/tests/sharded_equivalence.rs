//! The sharded engine's cross-layer correctness anchor: the shard count
//! is a pure execution knob, invisible in every observable result.
//!
//! * **Streaming** — for any batch split and worker count, a sharded
//!   engine's per-ingest `SaveReport`s and final state are bit-equal to
//!   the single-shard run, which in turn equals one batch `save_all`
//!   over the concatenated data (`engine_equivalence` in disc-core).
//! * **Durability** — a store written with one shard count reopens
//!   under another (here S=4 → S=1) with bit-identical state, and the
//!   resumed ingests keep producing the reports the original layout
//!   would have.
//!
//! "Bit-equal" is literal: [`DiscEngine::export_state`] compares rows
//! down to f64 bit patterns, plus cached counts, δ_η lists, pending set,
//! and generation.

use disc_core::{DiscEngine, DistanceConstraints, Parallelism, SaveReport, Saver, SaverConfig};
use disc_data::{ClusterSpec, Schema};
use disc_data::{Dataset, ErrorInjector};
use disc_distance::{TupleDistance, Value};
use disc_persist::{DurableEngine, StoreOptions};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_store(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "disc_persist_shard_tests/{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Clustered data with injected dirty and natural errors.
fn dirty_dataset(n: usize, seed: u64, dirty: usize, natural: usize) -> Dataset {
    let mut ds = ClusterSpec::new(n, 3, 2, seed).generate();
    ErrorInjector::new(dirty, natural, seed ^ 0x9E37_79B9).inject(&mut ds);
    ds
}

fn saver(workers: usize) -> Box<dyn Saver> {
    Box::new(
        SaverConfig::new(DistanceConstraints::new(2.5, 4), TupleDistance::numeric(3))
            .kappa(2)
            .parallelism(Parallelism(workers))
            .build_approx()
            .expect("valid config"),
    )
}

fn make_saver(schema: &Schema, config: &[u8]) -> Result<Box<dyn Saver>, disc_core::Error> {
    assert_eq!(schema.arity(), 3);
    Ok(saver(config[0] as usize))
}

/// Splits `rows` into `batches` runs of pseudo-random (but
/// deterministic) sizes summing to `rows.len()`; empty runs allowed.
fn split_rows(rows: &[Vec<Value>], batches: usize, seed: u64) -> Vec<Vec<Vec<Value>>> {
    let mut cuts: Vec<usize> = (0..batches.saturating_sub(1))
        .map(|i| {
            let h = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((i as u64 + 1).wrapping_mul(1442695040888963407));
            (h % (rows.len() as u64 + 1)) as usize
        })
        .collect();
    cuts.push(0);
    cuts.push(rows.len());
    cuts.sort_unstable();
    cuts.windows(2).map(|w| rows[w[0]..w[1]].to_vec()).collect()
}

/// Streams `chunks` into a fresh engine with `shards` shards and
/// `workers` save workers; returns the engine and every report.
fn stream(
    chunks: &[Vec<Vec<Value>>],
    shards: usize,
    workers: usize,
) -> (DiscEngine, Vec<SaveReport>) {
    let mut engine = DiscEngine::with_shards(Schema::numeric(3), saver(workers), shards);
    let reports = chunks
        .iter()
        .map(|chunk| engine.ingest(chunk.clone()).expect("finite data"))
        .collect();
    (engine, reports)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn sharded_streaming_matches_single_shard_batch(
        n in 40usize..90,
        seed in 0u64..1000,
        dirty in 2usize..10,
        natural in 0usize..3,
        batches in 1usize..6,
        split_seed in 0u64..1000,
    ) {
        let base = dirty_dataset(n, seed, dirty, natural);
        let chunks = split_rows(base.rows(), batches, split_seed);
        for workers in [1usize, 3, 4] {
            // The anchor: one batch save_all over everything.
            let mut batch_ds = base.clone();
            let batch_report = saver(workers).save_all(&mut batch_ds);

            let (single, single_reports) = stream(&chunks, 1, workers);
            prop_assert_eq!(
                single.dataset().rows(),
                batch_ds.rows(),
                "single-shard stream diverges from batch"
            );
            prop_assert_eq!(&single.outliers(), &batch_report.outliers);

            for shards in [2usize, 7] {
                let (sharded, reports) = stream(&chunks, shards, workers);
                prop_assert_eq!(
                    &reports,
                    &single_reports,
                    "SaveReports diverge at {} shards, {} workers",
                    shards,
                    workers
                );
                prop_assert_eq!(
                    sharded.export_state(),
                    single.export_state(),
                    "engine state diverges at {} shards, {} workers",
                    shards,
                    workers
                );
            }
        }
    }
}

/// A store written with four shards, reopened with one: state comes
/// back bit-identical, and resumed ingests report exactly what the
/// four-shard layout (never closed) reports for the same rows.
#[test]
fn durable_reopen_with_one_shard_matches_four() {
    let base = dirty_dataset(70, 21, 6, 1);
    let chunks: Vec<_> = base.rows().chunks(16).map(<[_]>::to_vec).collect();
    let (head, tail) = chunks.split_at(2);

    let dir = temp_store("reopen-4-to-1");
    let mut store = DurableEngine::create(
        &dir,
        Schema::numeric(3),
        saver(4),
        vec![4u8], // make_saver reads the worker count back from here
        StoreOptions {
            shards: Some(4),
            ..StoreOptions::default()
        },
    )
    .unwrap();
    assert_eq!(store.engine().shards(), 4);

    // The in-memory control: the same four-shard engine, never closed.
    let mut control = DiscEngine::with_shards(Schema::numeric(3), saver(4), 4);

    for chunk in head {
        let durable = store.ingest(chunk.clone()).unwrap();
        let memory = control.ingest(chunk.clone()).unwrap();
        assert_eq!(durable, memory);
    }
    store.close().unwrap();

    let (mut reopened, recovery) = DurableEngine::open(
        &dir,
        make_saver,
        StoreOptions {
            shards: Some(1),
            ..StoreOptions::default()
        },
    )
    .unwrap();
    assert_eq!(recovery.replayed_records, 0, "close checkpointed");
    assert_eq!(reopened.engine().shards(), 1, "override re-partitions");
    assert_eq!(
        reopened.engine().export_state(),
        control.export_state(),
        "reopen under a different shard count must be bit-identical"
    );

    // Resumed ingests under the new layout still match the four-shard
    // control, report for report, and land on the same final state.
    for chunk in tail {
        let durable = reopened.ingest(chunk.clone()).unwrap();
        let memory = control.ingest(chunk.clone()).unwrap();
        assert_eq!(durable, memory);
    }
    assert_eq!(reopened.engine().export_state(), control.export_state());

    reopened.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
