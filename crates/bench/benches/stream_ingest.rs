//! Criterion bench for the streaming engine: micro-batched
//! `DiscEngine::ingest` vs rebuilding the batch pipeline from scratch on
//! every prefix.
//!
//! Before timing anything, the harness asserts the efficiency claims in
//! *work* terms via the disc-obs counters (wall clock is noisy; work
//! counts are deterministic): streamed in 8-row ingests, the engine
//! evaluates at most 8× one batch run's `search.candidates` (the
//! `stream_search_work` test's gate), and the streamed replay visits
//! strictly fewer candidate rows than the per-batch rebuild, with both
//! ending on identical datasets.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use disc_bench::stream::{check_search_work, compare, ingest_saver, ingest_workload, rows_visited};
use disc_core::DiscEngine;
use disc_data::Dataset;
use disc_obs::Snapshot;

const BATCHES: usize = 6;

fn replay_streamed(ds: &Dataset) -> DiscEngine {
    let saver = ingest_saver(ds.arity()).build_approx().unwrap();
    let mut engine = DiscEngine::new(ds.schema().clone(), Box::new(saver));
    for chunk in ds.rows().chunks(ds.len().div_ceil(BATCHES)) {
        engine
            .ingest(chunk.to_vec())
            .expect("finite synthetic data");
    }
    engine
}

fn replay_rebuild(ds: &Dataset) -> Dataset {
    let batch = ds.len().div_ceil(BATCHES);
    let mut prefix = Dataset::new(ds.schema().clone(), Vec::new());
    let mut upto = 0;
    while upto < ds.len() {
        upto = (upto + batch).min(ds.len());
        prefix = ds.select(&(0..upto).collect::<Vec<_>>());
        let saver = ingest_saver(ds.arity()).build_approx().unwrap();
        saver.save_all(&mut prefix);
    }
    prefix
}

/// The work assertions: counters, not clocks.
fn assert_streamed_cheaper(ds: &Dataset) {
    check_search_work(ds, 8, 8);
    let before = Snapshot::take();
    let engine = replay_streamed(ds);
    let streamed = rows_visited(&Snapshot::take().delta_since(&before));
    let before = Snapshot::take();
    let rebuilt = replay_rebuild(ds);
    let rebuild = rows_visited(&Snapshot::take().delta_since(&before));
    assert_eq!(
        engine.dataset().rows(),
        rebuilt.rows(),
        "replays must agree"
    );
    assert!(
        streamed < rebuild,
        "streamed ingest visited {streamed} rows, rebuild {rebuild}: engine must do strictly less index work"
    );
    // The library's own small-scale check, for a second configuration.
    compare(400, 4, 3);
}

fn bench_stream_ingest(c: &mut Criterion) {
    let ds = ingest_workload();
    assert_streamed_cheaper(&ds);
    let mut group = c.benchmark_group("stream_ingest");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("engine", BATCHES), &BATCHES, |b, _| {
        b.iter_batched(
            || ds.clone(),
            |d| replay_streamed(&d),
            BatchSize::LargeInput,
        )
    });
    group.bench_with_input(BenchmarkId::new("rebuild", BATCHES), &BATCHES, |b, _| {
        b.iter_batched(|| ds.clone(), |d| replay_rebuild(&d), BatchSize::LargeInput)
    });
    group.finish();
}

criterion_group!(benches, bench_stream_ingest);
criterion_main!(benches);
