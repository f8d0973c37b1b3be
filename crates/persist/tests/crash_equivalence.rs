//! The persistence layer's correctness anchor: a crashed-and-recovered
//! run must land on state bit-identical to an uninterrupted one.
//!
//! Two layers of interruption:
//!
//! * **Ingest boundaries** (always compiled): drop the handle after any
//!   prefix of the ingests — the WAL-before-apply protocol makes every
//!   completed ingest durable, so reopening and resuming must reproduce
//!   the uninterrupted engine exactly, for any checkpoint cadence and
//!   worker count.
//! * **Any IO operation** (`--cfg disc_fault`): sweep a deterministic
//!   fault — outright failure or a torn prefix write — across *every*
//!   write/fsync/truncate/rename the workload issues, including
//!   mid-WAL-append, mid-snapshot, and mid-store-creation. After each
//!   injected crash, recovery plus resumption must still be bit-exact.
//!
//! "Bit-identical" is literal: [`DiscEngine::export_state`] compares
//! original and saved rows down to f64 bit patterns, plus the cached
//! counts, δ_η lists, pending set, and generation.

use disc_core::{DistanceConstraints, EngineState, Parallelism, Saver, SaverConfig};
use disc_data::{ClusterSpec, ErrorInjector, Schema};
use disc_distance::{TupleDistance, Value};
use disc_persist::{DurableEngine, StoreOptions};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_store(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "disc_persist_crash_tests/{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Clustered data with injected dirty and natural errors, as rows.
fn dirty_rows(n: usize, seed: u64, dirty: usize, natural: usize) -> Vec<Vec<Value>> {
    let mut ds = ClusterSpec::new(n, 3, 2, seed).generate();
    ErrorInjector::new(dirty, natural, seed ^ 0x9E37_79B9).inject(&mut ds);
    ds.rows().to_vec()
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

/// The saver factory handed to `DurableEngine::open`; the config blob
/// carries the worker count so recovery needs no out-of-band knobs.
fn make_saver(schema: &Schema, config: &[u8]) -> Result<Box<dyn Saver>, disc_core::Error> {
    assert_eq!(schema.arity(), 3);
    Ok(saver(config[0] as usize))
}

/// Splits `rows` into deterministic pseudo-random chunk sizes.
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

/// One uninterrupted run: create, ingest every chunk, return final state.
fn uninterrupted(chunks: &[Vec<Vec<Value>>], workers: usize, opts: StoreOptions) -> EngineState {
    let dir = temp_store("reference");
    let mut store = DurableEngine::create(
        &dir,
        Schema::numeric(3),
        saver(workers),
        vec![workers as u8],
        opts,
    )
    .expect("create reference store");
    for chunk in chunks {
        store.ingest(chunk.clone()).expect("finite synthetic data");
    }
    let state = store.engine().export_state();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Crash (drop the handle) after every ingest prefix, recover, resume:
    /// the final state must be bit-identical to the uninterrupted run.
    #[test]
    fn recovery_at_every_ingest_boundary_is_bit_identical(
        n in 40usize..80,
        seed in 0u64..1000,
        dirty in 2usize..8,
        batches in 2usize..5,
        split_seed in 0u64..1000,
        every in 0u64..3,
    ) {
        let rows = dirty_rows(n, seed, dirty, 1);
        let chunks = split_rows(&rows, batches, split_seed);
        let opts = StoreOptions {
            snapshot_every: (every > 0).then_some(every),
            ..StoreOptions::default()
        };
        for workers in [1usize, 4] {
            let expected = uninterrupted(&chunks, workers, opts);
            for boundary in 0..=chunks.len() {
                let dir = temp_store("boundary");
                let mut store = DurableEngine::create(
                    &dir,
                    Schema::numeric(3),
                    saver(workers),
                    vec![workers as u8],
                    opts,
                )
                .expect("create store");
                for chunk in &chunks[..boundary] {
                    store.ingest(chunk.clone()).expect("finite synthetic data");
                }
                // "Crash": the handle goes away with no shutdown protocol.
                drop(store);

                let (mut store, report) = DurableEngine::open(&dir, make_saver, opts)
                    .expect("recovery must succeed");
                prop_assert_eq!(report.torn_tail, None, "clean crash leaves no tear");
                prop_assert_eq!(report.generation, boundary as u64);
                let done = store.generation() as usize;
                prop_assert_eq!(done, boundary);
                for chunk in &chunks[done..] {
                    store.ingest(chunk.clone()).expect("finite synthetic data");
                }
                prop_assert_eq!(
                    store.engine().export_state(),
                    expected.clone(),
                    "boundary {} workers {}",
                    boundary,
                    workers
                );
                drop(store);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

/// Interrupt at *every IO operation* — mid-WAL-append, mid-snapshot
/// write, mid-rename, mid-creation — via the deterministic fault hooks.
#[cfg(disc_fault)]
mod io_faults {
    use super::*;
    use disc_core::fault::{scoped, FaultPlan};
    use disc_persist::Error;

    /// The faultable workload: create the store, ingest every chunk
    /// (auto-checkpointing), final checkpoint. Stops at the first error.
    fn workload(
        dir: &std::path::Path,
        chunks: &[Vec<Vec<Value>>],
        workers: usize,
        opts: StoreOptions,
    ) -> Result<(), Error> {
        let mut store = DurableEngine::create(
            dir,
            Schema::numeric(3),
            saver(workers),
            vec![workers as u8],
            opts,
        )?;
        for chunk in chunks {
            store.ingest(chunk.clone())?;
        }
        store.checkpoint()
    }

    /// Recovers after an injected crash and resumes the remaining
    /// ingests; returns the final state.
    fn recover_and_resume(
        dir: &std::path::Path,
        chunks: &[Vec<Vec<Value>>],
        workers: usize,
        opts: StoreOptions,
    ) -> EngineState {
        let (mut store, _report) = match DurableEngine::open(dir, make_saver, opts) {
            Ok(x) => x,
            Err(Error::StoreMissing { .. }) => {
                // The crash landed before the genesis snapshot: nothing
                // was durable, so recovery is starting over.
                std::fs::remove_dir_all(dir).ok();
                let store = DurableEngine::create(
                    dir,
                    Schema::numeric(3),
                    saver(workers),
                    vec![workers as u8],
                    opts,
                )
                .expect("re-create after pre-durability crash");
                (
                    store,
                    disc_persist::RecoveryReport {
                        snapshot_generation: 0,
                        replayed_records: 0,
                        replayed_rows: 0,
                        torn_tail: None,
                        generation: 0,
                        rows: 0,
                    },
                )
            }
            Err(e) => panic!("recovery must always succeed, got: {e}"),
        };
        // One generation per ingest: the recovered generation says
        // exactly which chunks are already applied.
        let done = store.generation() as usize;
        assert!(done <= chunks.len(), "recovered past the workload");
        for chunk in &chunks[done..] {
            store.ingest(chunk.clone()).expect("finite synthetic data");
        }
        store.checkpoint().expect("final checkpoint");
        store.engine().export_state()
    }

    /// Sweeps a fault across every IO op index until one run completes
    /// untouched; every interrupted run must recover to the exact
    /// uninterrupted state.
    fn sweep(kind: fn(u64) -> FaultPlan, workers: usize) {
        let rows = dirty_rows(50, 9, 4, 1);
        let chunks = split_rows(&rows, 5, 77);
        let opts = StoreOptions {
            snapshot_every: Some(2),
            ..StoreOptions::default()
        };
        let expected = uninterrupted(&chunks, workers, opts);
        for k in 0u64.. {
            let dir = temp_store("sweep");
            let (result, fired) = scoped(kind(k), || workload(&dir, &chunks, workers, opts));
            if !fired {
                // The fault landed past the workload's op count: this
                // run was untouched and the sweep is complete. Every
                // earlier op index was interrupted exactly once.
                result.expect("untouched workload must succeed");
                assert!(k > 10, "sweep only interrupted {k} ops — hooks not wired?");
                std::fs::remove_dir_all(&dir).ok();
                return;
            }
            result.expect_err("an injected fault must surface as an error");
            let state = recover_and_resume(&dir, &chunks, workers, opts);
            assert_eq!(state, expected, "divergence after fault at op {k}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn failed_io_at_every_op_recovers_bit_identically() {
        for workers in [1usize, 4] {
            sweep(|k| FaultPlan::new().fail_io(k), workers);
        }
    }

    #[test]
    fn torn_write_at_every_op_recovers_bit_identically() {
        for workers in [1usize, 4] {
            // Vary the surviving prefix with the op index so tears land
            // at assorted byte offsets inside headers and payloads.
            sweep(
                |k| FaultPlan::new().torn_write(k, (k as usize % 7) * 3),
                workers,
            );
        }
    }

    /// With a checkpoint after every ingest, fail each IO op in turn. An
    /// ingest that errs must not have applied its batch (the generation
    /// is unchanged), and every ingest that returned `Ok` must survive a
    /// reopen — so a failed auto-checkpoint after the apply may poison
    /// the handle but must not fail the ingest, or a client retrying the
    /// "failed" batch would apply it twice.
    #[test]
    fn an_ingest_errs_only_when_its_batch_is_not_applied() {
        let rows = dirty_rows(40, 5, 3, 1);
        let chunks = split_rows(&rows, 4, 31);
        let opts = StoreOptions {
            snapshot_every: Some(1),
            ..StoreOptions::default()
        };
        for k in 0u64.. {
            let dir = temp_store("acked");
            let (acked, fired) = scoped(FaultPlan::new().fail_io(k), || {
                let Ok(mut store) =
                    DurableEngine::create(&dir, Schema::numeric(3), saver(1), vec![1], opts)
                else {
                    return 0;
                };
                let mut acked = 0;
                for chunk in &chunks {
                    let before = store.generation();
                    match store.ingest(chunk.clone()) {
                        Ok(_) => acked = store.generation(),
                        Err(e) => assert_eq!(
                            store.generation(),
                            before,
                            "fault at op {k}: the ingest erred ({e}) after applying"
                        ),
                    }
                }
                acked
            });
            let recovered = match DurableEngine::open(&dir, make_saver, opts) {
                Ok((store, _)) => store.generation(),
                Err(Error::StoreMissing { .. }) => 0,
                Err(e) => panic!("fault at op {k}: recovery failed: {e}"),
            };
            assert!(
                recovered >= acked,
                "fault at op {k}: generation {acked} was acked, {recovered} recovered"
            );
            std::fs::remove_dir_all(&dir).ok();
            if !fired {
                assert_eq!(acked, chunks.len() as u64, "untouched run");
                assert!(k > 10, "sweep only interrupted {k} ops — hooks not wired?");
                return;
            }
        }
    }

    /// An IO failure poisons the handle: later mutations are refused
    /// rather than risking divergence from the log.
    #[test]
    fn io_failure_poisons_the_handle() {
        let rows = dirty_rows(40, 3, 3, 1);
        let dir = temp_store("poison");
        let opts = StoreOptions::default();
        let ((), fired) = scoped(FaultPlan::new().fail_io(8), || {
            let mut store =
                DurableEngine::create(&dir, Schema::numeric(3), saver(1), vec![1], opts)
                    .expect("creation takes fewer than 8 ops");
            store
                .ingest(rows[..10].to_vec())
                .expect("first append is op 6–7");
            let err = store.ingest(rows[10..20].to_vec()).map(|_| ()).unwrap_err();
            assert!(matches!(err, Error::Io { .. }), "{err}");
            assert!(store.is_poisoned());
            let err = store.ingest(rows[20..30].to_vec()).map(|_| ()).unwrap_err();
            assert!(matches!(err, Error::Poisoned), "{err}");
            let err = store.checkpoint().map(|_| ()).unwrap_err();
            assert!(matches!(err, Error::Poisoned), "{err}");
        });
        assert!(fired, "fault plan must have fired");
        // Reopening is the recovery path.
        let (store, _) = DurableEngine::open(&dir, make_saver, opts).expect("reopen recovers");
        assert!(!store.is_poisoned());
        assert_eq!(store.generation(), 1, "only the first ingest applied");
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}
