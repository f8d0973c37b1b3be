//! The durable engine: `DiscEngine` + snapshot + write-ahead log.
//!
//! A store is a directory holding two data files plus a lock:
//!
//! * `engine.snap` — the last checkpoint: full engine state at some
//!   generation `g` (atomically replaced; see [`crate::snapshot`]);
//! * `engine.wal` — the write-ahead log of every ingest batch since that
//!   checkpoint, generations `g+1, g+2, …` (see [`crate::wal`]);
//! * `engine.lock` — the exclusive-writer lock held while any handle is
//!   live, so a second process fails fast with [`Error::Locked`] instead
//!   of interleaving torn WAL records (see [`crate::lock`]).
//!
//! Ingest protocol: validate the batch (a batch the engine would reject
//! is never made durable), append it to the WAL, fsync, *then* mutate
//! the engine. Recovery therefore replays `snapshot ⊕ WAL suffix`
//! through the ordinary [`DiscEngine::ingest`] path and lands on state
//! bit-identical to the uninterrupted run — the crash-equivalence suite
//! pins this at every IO boundary under `--cfg disc_fault`.
//!
//! Failure discipline: the first IO error **poisons** the handle — the
//! on-disk suffix is in an unknown state, so every later mutation
//! returns [`Error::Poisoned`] instead of risking divergence. Reopening
//! the store recovers (torn tails are truncated, applied records are
//! replayed).

use std::path::{Path, PathBuf};

use disc_core::{resolve_shards, DiscEngine, EngineConfig, SaveReport, Saver};
use disc_data::Schema;
use disc_distance::Value;
use disc_obs::counters;

use crate::error::Error;
use crate::lock::StoreLock;
use crate::snapshot::{self, SnapshotData};
use crate::wal::{TornTail, Wal, WalFrame};

/// Store-level knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreOptions {
    /// Automatically checkpoint (snapshot + WAL reset) after this many
    /// generations accumulate in the log; `None` checkpoints only on
    /// explicit [`DurableEngine::checkpoint`] calls.
    pub snapshot_every: Option<u64>,
    /// Shard count for the engine (`Some(0)` = auto, one per core). On
    /// create, `None` means the default shard count; on open, `None`
    /// means the count recorded in the snapshot — the engine's results
    /// are bit-identical either way, so this only tunes parallel query
    /// fan-out.
    pub shards: Option<usize>,
}

/// What [`DurableEngine::open`] found and did to bring the engine back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation of the snapshot the engine was restored from.
    pub snapshot_generation: u64,
    /// Complete WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Rows those records carried.
    pub replayed_rows: u64,
    /// The torn tail truncated from the WAL, if the last append was
    /// interrupted.
    pub torn_tail: Option<TornTail>,
    /// The recovered engine's generation.
    pub generation: u64,
    /// The recovered engine's row count.
    pub rows: usize,
}

/// The WAL file within a store directory.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join("engine.wal")
}

/// The outcome of [`DurableEngine::apply_replicated`] — the follower's
/// exactly-once contract in type form. Every shipped frame lands in
/// exactly one arm, so a reconnect that redelivers frames (or a leader
/// that skipped ahead) can never double-apply or silently drop a batch.
#[derive(Debug)]
pub enum ReplApply {
    /// The frame continued the generation sequence and was durably
    /// applied (WAL append + fsync, then engine ingest). Boxed: a
    /// `SaveReport` is ~2 kB of stats, and this enum travels by value.
    Applied(Box<SaveReport>),
    /// The frame's generation is already part of this store's state — a
    /// redelivery after a reconnect. Nothing was written.
    AlreadyApplied,
    /// The frame skips ahead of this store's generation: intermediate
    /// frames are unavailable (the leader checkpointed past them), so
    /// the caller must resync via
    /// [`DurableEngine::install_snapshot`] before applying further
    /// frames. Nothing was written.
    Gap {
        /// The generation this store could have applied.
        expected: u64,
        /// The generation the frame carried.
        got: u64,
    },
}

/// A [`DiscEngine`] whose state survives crashes; see the
/// [module docs](self).
pub struct DurableEngine {
    engine: DiscEngine,
    wal: Wal,
    dir: PathBuf,
    schema: Schema,
    config: Vec<u8>,
    snapshot_every: Option<u64>,
    last_snapshot: u64,
    poisoned: bool,
    /// Held for the handle's whole lifetime; releasing it (on drop) is
    /// what lets the next opener in. See [`crate::lock`].
    _lock: StoreLock,
}

impl DurableEngine {
    /// Creates a fresh store in `dir` (created if missing) around an
    /// empty engine: a genesis snapshot at generation 0, then an empty
    /// WAL. Refuses a directory that already holds a store.
    ///
    /// `config` is an opaque blob persisted in every snapshot and handed
    /// back to [`DurableEngine::open`]'s saver factory — callers encode
    /// whatever they need to rebuild the saver (the CLI stores its
    /// `(ε, η, κ)` flags there).
    ///
    /// # Panics
    /// Panics if the schema arity differs from the saver's metric arity
    /// (same contract as [`DiscEngine::new`]).
    pub fn create(
        dir: &Path,
        schema: Schema,
        saver: Box<dyn Saver>,
        config: Vec<u8>,
        options: StoreOptions,
    ) -> Result<DurableEngine, Error> {
        if snapshot::snapshot_path(dir).exists() || wal_path(dir).exists() {
            return Err(Error::StoreExists {
                dir: dir.to_path_buf(),
            });
        }
        // Creates the directory as a side effect; taken before any store
        // file exists so a concurrent creator loses cleanly.
        let lock = StoreLock::acquire(dir)?;
        let engine = match options.shards {
            Some(s) => DiscEngine::with_shards(schema.clone(), saver, resolve_shards(s)),
            None => DiscEngine::new(schema.clone(), saver),
        };
        snapshot::write_snapshot(
            dir,
            &SnapshotData {
                schema: schema.clone(),
                config: config.clone(),
                shards: engine.shards() as u32,
                state: engine.export_state(),
            },
        )?;
        let wal = Wal::create(&wal_path(dir))?;
        Ok(DurableEngine {
            engine,
            wal,
            dir: dir.to_path_buf(),
            schema,
            config,
            snapshot_every: options.snapshot_every,
            last_snapshot: 0,
            poisoned: false,
            _lock: lock,
        })
    }

    /// Creates a fresh store from one validated [`EngineConfig`]: the
    /// saver is built from it, the config blob is its durable encoding
    /// (so `disc recover` rebuilds the same saver with no flags), and —
    /// unless [`StoreOptions::shards`] overrides it — the engine is
    /// partitioned across the configured shard count.
    ///
    /// # Errors
    /// [`Error::Engine`] when the configuration fails validation or
    /// mismatches `schema`; otherwise the [`DurableEngine::create`]
    /// contract.
    pub fn create_with_config(
        dir: &Path,
        schema: Schema,
        engine_config: &EngineConfig,
        options: StoreOptions,
    ) -> Result<DurableEngine, Error> {
        let saver = engine_config
            .build_saver_for(&schema)
            .map_err(Error::Engine)?;
        let options = StoreOptions {
            shards: options.shards.or(Some(engine_config.resolved_shards())),
            ..options
        };
        Self::create(dir, schema, saver, engine_config.encode(), options)
    }

    /// Creates a fresh store in `dir` from a shipped snapshot file image
    /// — the follower's bootstrap. The bytes are fully validated, then
    /// installed verbatim as `engine.snap` (so the follower's first
    /// checkpoint base is bit-for-bit the leader's), an empty WAL is
    /// created, and the engine is restored exactly as
    /// [`DurableEngine::open`] would after a crash at that generation.
    ///
    /// Shard count follows [`StoreOptions::shards`] when set, else the
    /// count recorded in the image — either way the restored state is
    /// bit-identical; only query fan-out differs.
    pub fn create_from_snapshot(
        dir: &Path,
        bytes: &[u8],
        make_saver: impl FnOnce(&Schema, &[u8]) -> Result<Box<dyn Saver>, disc_core::Error>,
        options: StoreOptions,
    ) -> Result<DurableEngine, Error> {
        if snapshot::snapshot_path(dir).exists() || wal_path(dir).exists() {
            return Err(Error::StoreExists {
                dir: dir.to_path_buf(),
            });
        }
        let lock = StoreLock::acquire(dir)?;
        let data = snapshot::install_snapshot_bytes(dir, bytes)?;
        let saver = make_saver(&data.schema, &data.config).map_err(Error::Engine)?;
        let shards = options
            .shards
            .map(resolve_shards)
            .unwrap_or(data.shards as usize);
        let schema = data.schema;
        let engine = DiscEngine::restore_with_shards(schema.clone(), saver, data.state, shards)
            .map_err(Error::Engine)?;
        let wal = Wal::create(&wal_path(dir))?;
        let last_snapshot = engine.generation();
        Ok(DurableEngine {
            engine,
            wal,
            dir: dir.to_path_buf(),
            schema,
            config: data.config,
            snapshot_every: options.snapshot_every,
            last_snapshot,
            poisoned: false,
            _lock: lock,
        })
    }

    /// Opens an existing store: loads the snapshot, rebuilds the saver
    /// via `make_saver(schema, config)`, restores the engine, truncates
    /// any torn WAL tail, and replays the surviving records through the
    /// ordinary ingest path.
    ///
    /// Replay is strict: records at or below the snapshot generation are
    /// skipped (the expected artifact of a crash between the snapshot
    /// rename and the WAL reset), but a record that does not continue
    /// the generation sequence exactly is [`Error::Corrupt`].
    pub fn open(
        dir: &Path,
        make_saver: impl FnOnce(&Schema, &[u8]) -> Result<Box<dyn Saver>, disc_core::Error>,
        options: StoreOptions,
    ) -> Result<(DurableEngine, RecoveryReport), Error> {
        if !snapshot::snapshot_path(dir).exists() {
            return Err(Error::StoreMissing {
                dir: dir.to_path_buf(),
            });
        }
        let lock = StoreLock::acquire(dir)?;
        // A crash mid-snapshot can leave a stale staging file; it was
        // never renamed, so it is garbage.
        let tmp = snapshot::snapshot_tmp_path(dir);
        if tmp.exists() {
            std::fs::remove_file(&tmp).map_err(|e| Error::Io {
                op: "remove",
                path: tmp,
                source: e,
            })?;
        }
        let data = snapshot::read_snapshot(dir)?;
        let snapshot_generation = data.state.generation;
        let saver = make_saver(&data.schema, &data.config).map_err(Error::Engine)?;
        // The snapshot remembers the shard count it was written with, so
        // an unconfigured reopen keeps the store's partition layout; an
        // explicit option re-partitions (the image is shard-agnostic).
        let shards = options
            .shards
            .map(resolve_shards)
            .unwrap_or(data.shards as usize);
        let mut engine =
            DiscEngine::restore_with_shards(data.schema.clone(), saver, data.state, shards)
                .map_err(Error::Engine)?;

        // A crash between the genesis snapshot and WAL creation leaves
        // no log; an empty one is equivalent.
        let path = wal_path(dir);
        let (wal, records, torn_tail) = if path.exists() {
            Wal::open(&path)?
        } else {
            (Wal::create(&path)?, Vec::new(), None)
        };

        let mut replayed_records = 0u64;
        let mut replayed_rows = 0u64;
        for record in records {
            if record.generation <= snapshot_generation {
                continue; // already in the snapshot (WAL reset never landed)
            }
            if record.generation != engine.generation() + 1 {
                return Err(Error::Corrupt {
                    path: path.clone(),
                    detail: format!(
                        "generation gap: record {} after engine generation {}",
                        record.generation,
                        engine.generation()
                    ),
                });
            }
            replayed_rows += record.rows.len() as u64;
            engine.ingest(record.rows).map_err(Error::Engine)?;
            replayed_records += 1;
        }
        counters::WAL_RECORDS_REPLAYED.add(replayed_records);
        counters::PERSIST_RECOVERIES.incr();

        let report = RecoveryReport {
            snapshot_generation,
            replayed_records,
            replayed_rows,
            torn_tail,
            generation: engine.generation(),
            rows: engine.len(),
        };
        Ok((
            DurableEngine {
                engine,
                wal,
                dir: dir.to_path_buf(),
                schema: data.schema,
                config: data.config,
                snapshot_every: options.snapshot_every,
                last_snapshot: snapshot_generation,
                poisoned: false,
                _lock: lock,
            },
            report,
        ))
    }

    /// Durably ingests one batch: validate, WAL-append + fsync, then run
    /// the ordinary [`DiscEngine::ingest`]. Auto-checkpoints afterwards
    /// when [`StoreOptions::snapshot_every`] generations have
    /// accumulated.
    ///
    /// # Errors
    /// [`Error::Engine`] for a batch the engine rejects (nothing is
    /// written); [`Error::Io`] when the append fails (the handle is then
    /// poisoned); [`Error::Poisoned`] after any earlier IO failure. An
    /// error means the batch was not applied. A failed auto-checkpoint
    /// is not an error of this call — the batch is logged and applied,
    /// so recovery replays it — but it poisons the handle.
    pub fn ingest(&mut self, batch: Vec<Vec<Value>>) -> Result<SaveReport, Error> {
        if self.poisoned {
            return Err(Error::Poisoned);
        }
        // Validate before the append so a rejected batch never becomes
        // durable — recovery must only replay batches that applied.
        self.engine.validate_batch(&batch).map_err(Error::Engine)?;
        let frame = WalFrame::encode(self.engine.generation() + 1, &batch);
        self.log_and_apply(&frame, batch)
    }

    /// The durable tail of [`DurableEngine::ingest`] and
    /// [`DurableEngine::apply_replicated`] for a validated batch: append
    /// `frame` and fsync, apply `rows`, then auto-checkpoint. A failed
    /// append or apply poisons the handle and is returned. Once applied,
    /// the batch is durable, so a failed checkpoint only poisons the
    /// handle (the next mutation gets [`Error::Poisoned`]) and the report
    /// is still returned.
    fn log_and_apply(
        &mut self,
        frame: &WalFrame,
        rows: Vec<Vec<Value>>,
    ) -> Result<SaveReport, Error> {
        if let Err(e) = self.wal.append_frame(frame) {
            self.poisoned = true;
            return Err(e);
        }
        let report = self.engine.ingest(rows).map_err(|e| {
            // The WAL now holds a record the engine rejected; the store
            // diverged from the log (unreachable given the
            // pre-validation, but fail safe).
            self.poisoned = true;
            Error::Engine(e)
        })?;
        let due = self
            .snapshot_every
            .is_some_and(|every| self.engine.generation() - self.last_snapshot >= every);
        if due {
            // A failed checkpoint poisons the handle; the batch stands.
            let _ = self.checkpoint();
        }
        Ok(report)
    }

    /// Applies one replicated WAL frame under the exactly-once rule —
    /// the follower's write path. A frame at or below the current
    /// generation is a redelivery and is skipped; the frame at
    /// `generation + 1` is decoded, validated, durably logged
    /// (byte-for-byte the leader's frame, via
    /// [`Wal::append_frame`]), and ingested; anything further ahead
    /// reports a [`ReplApply::Gap`] so the caller can resync. Because
    /// the apply path is the ordinary durable-ingest path, the
    /// follower's state at generation `g` is bit-identical to the
    /// leader's at `g`, and its own store is a valid resume point after
    /// any crash.
    ///
    /// Auto-checkpoints under the same [`StoreOptions::snapshot_every`]
    /// policy as [`DurableEngine::ingest`], and with the same outcome
    /// when only that checkpoint fails.
    ///
    /// # Errors
    /// [`Error::Corrupt`] for a frame that does not decode or carries
    /// rows the engine rejects (a correct leader never ships either);
    /// [`Error::Io`]/[`Error::Poisoned`] with the usual poisoning
    /// discipline.
    pub fn apply_replicated(&mut self, frame: &WalFrame) -> Result<ReplApply, Error> {
        if self.poisoned {
            return Err(Error::Poisoned);
        }
        let expected = self.engine.generation() + 1;
        if frame.generation < expected {
            return Ok(ReplApply::AlreadyApplied);
        }
        if frame.generation > expected {
            return Ok(ReplApply::Gap {
                expected,
                got: frame.generation,
            });
        }
        let bad_frame = |detail: String| Error::Corrupt {
            path: wal_path(&self.dir),
            detail: format!("replicated frame {}: {detail}", frame.generation),
        };
        let record = frame.decode().map_err(bad_frame)?;
        // Same invariant as local ingest: validate before the append so
        // the log never holds a batch the engine rejected.
        self.engine
            .validate_batch(&record.rows)
            .map_err(|e| bad_frame(format!("engine rejects rows: {e}")))?;
        let report = self.log_and_apply(frame, record.rows)?;
        Ok(ReplApply::Applied(Box::new(report)))
    }

    /// Replaces this store's entire state with a shipped snapshot file
    /// image — the follower's resync path after [`ReplApply::Gap`]. The
    /// bytes are validated and must strictly advance the generation
    /// (regressing would un-apply acknowledged batches); then the image
    /// is installed atomically, the WAL is reset, and the engine is
    /// rebuilt in place, keeping the current shard count. Returns the
    /// new generation.
    ///
    /// Crash-safe like [`DurableEngine::checkpoint`]: a crash between
    /// the snapshot install and the WAL reset leaves only records the
    /// new snapshot already covers, which recovery skips.
    pub fn install_snapshot(
        &mut self,
        bytes: &[u8],
        make_saver: impl FnOnce(&Schema, &[u8]) -> Result<Box<dyn Saver>, disc_core::Error>,
    ) -> Result<u64, Error> {
        if self.poisoned {
            return Err(Error::Poisoned);
        }
        let data = snapshot::snapshot_from_bytes(bytes).map_err(|detail| Error::Corrupt {
            path: snapshot::snapshot_path(&self.dir),
            detail,
        })?;
        let generation = data.state.generation;
        if generation <= self.engine.generation() {
            return Err(Error::Corrupt {
                path: snapshot::snapshot_path(&self.dir),
                detail: format!(
                    "snapshot at generation {generation} would regress engine at {}",
                    self.engine.generation()
                ),
            });
        }
        // Build the replacement engine before touching disk, so a saver
        // or restore failure leaves the store untouched and unpoisoned.
        let saver = make_saver(&data.schema, &data.config).map_err(Error::Engine)?;
        let engine = DiscEngine::restore_with_shards(
            data.schema.clone(),
            saver,
            data.state,
            self.engine.shards(),
        )
        .map_err(Error::Engine)?;
        if let Err(e) = snapshot::install_snapshot_bytes(&self.dir, bytes) {
            self.poisoned = true;
            return Err(e);
        }
        if let Err(e) = self.wal.reset() {
            self.poisoned = true;
            return Err(e);
        }
        self.engine = engine;
        self.schema = data.schema;
        self.config = data.config;
        self.last_snapshot = generation;
        Ok(generation)
    }

    /// Writes a snapshot of the current state and resets the WAL. After
    /// a successful checkpoint the store is a single snapshot file plus
    /// an empty log.
    pub fn checkpoint(&mut self) -> Result<(), Error> {
        if self.poisoned {
            return Err(Error::Poisoned);
        }
        let data = SnapshotData {
            schema: self.schema.clone(),
            config: self.config.clone(),
            shards: self.engine.shards() as u32,
            state: self.engine.export_state(),
        };
        if let Err(e) = snapshot::write_snapshot(&self.dir, &data) {
            self.poisoned = true;
            return Err(e);
        }
        // Crash window here is safe: recovery skips WAL records at or
        // below the snapshot generation.
        if let Err(e) = self.wal.reset() {
            self.poisoned = true;
            return Err(e);
        }
        self.last_snapshot = self.engine.generation();
        Ok(())
    }

    /// The underlying engine (read-only; mutate through
    /// [`DurableEngine::ingest`]).
    pub fn engine(&self) -> &DiscEngine {
        &self.engine
    }

    /// The engine generation (successful ingests since empty).
    pub fn generation(&self) -> u64 {
        self.engine.generation()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True once an IO failure has disabled further mutation.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Consumes the handle, returning the in-memory engine (for
    /// exporting the dataset after a final checkpoint). Releases the
    /// store lock.
    pub fn into_engine(self) -> DiscEngine {
        self.engine
    }

    /// Graceful shutdown: checkpoint (snapshot the final state and reset
    /// the WAL), release the store lock, and hand back the in-memory
    /// engine. After a successful close the store reopens with zero
    /// records to replay — this is the serving layer's shutdown WAL
    /// handoff.
    ///
    /// # Errors
    /// Returns the checkpoint failure (with the engine discarded) if the
    /// final snapshot cannot be written; every acknowledged ingest is
    /// still durable in the WAL, so a subsequent open loses nothing.
    pub fn close(mut self) -> Result<DiscEngine, Error> {
        self.checkpoint()?;
        Ok(self.engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::{DistanceConstraints, SaverConfig};
    use disc_distance::TupleDistance;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "disc_persist_store_tests/{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn saver() -> Box<dyn Saver> {
        Box::new(
            SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
                .build_approx()
                .unwrap(),
        )
    }

    fn make_saver(schema: &Schema, _config: &[u8]) -> Result<Box<dyn Saver>, disc_core::Error> {
        assert_eq!(schema.arity(), 2);
        Ok(saver())
    }

    fn grid_rows() -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                rows.push(vec![Value::Num(0.2 * i as f64), Value::Num(0.2 * j as f64)]);
            }
        }
        rows.push(vec![Value::Num(0.5), Value::Num(30.0)]);
        rows
    }

    #[test]
    fn create_ingest_reopen_is_bit_identical() {
        let dir = temp_store("roundtrip");
        let mut store = DurableEngine::create(
            &dir,
            Schema::numeric(2),
            saver(),
            b"cfg".to_vec(),
            StoreOptions::default(),
        )
        .unwrap();
        let rows = grid_rows();
        for chunk in rows.chunks(10) {
            store.ingest(chunk.to_vec()).unwrap();
        }
        let live_state = store.engine().export_state();
        drop(store);

        let (reopened, report) =
            DurableEngine::open(&dir, make_saver, StoreOptions::default()).unwrap();
        assert_eq!(report.snapshot_generation, 0);
        assert_eq!(report.replayed_records, 4);
        assert_eq!(report.replayed_rows, rows.len() as u64);
        assert_eq!(report.torn_tail, None);
        assert_eq!(report.generation, 4);
        assert_eq!(reopened.engine().export_state(), live_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_resets_wal_and_preserves_state() {
        let dir = temp_store("checkpoint");
        let mut store = DurableEngine::create(
            &dir,
            Schema::numeric(2),
            saver(),
            Vec::new(),
            StoreOptions::default(),
        )
        .unwrap();
        let rows = grid_rows();
        store.ingest(rows[..20].to_vec()).unwrap();
        store.checkpoint().unwrap();
        store.ingest(rows[20..].to_vec()).unwrap();
        let live_state = store.engine().export_state();
        drop(store);

        let (reopened, report) =
            DurableEngine::open(&dir, make_saver, StoreOptions::default()).unwrap();
        assert_eq!(report.snapshot_generation, 1);
        assert_eq!(report.replayed_records, 1, "checkpointed records are gone");
        assert_eq!(reopened.engine().export_state(), live_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_checkpoint_fires_every_n_generations() {
        let dir = temp_store("auto");
        let opts = StoreOptions {
            snapshot_every: Some(2),
            ..StoreOptions::default()
        };
        let mut store =
            DurableEngine::create(&dir, Schema::numeric(2), saver(), Vec::new(), opts).unwrap();
        let rows = grid_rows();
        for chunk in rows.chunks(8) {
            store.ingest(chunk.to_vec()).unwrap();
        }
        drop(store);
        // 5 ingests with snapshot_every=2 → checkpoints at generations 2
        // and 4; the log holds only generation 5.
        let (_, report) = DurableEngine::open(&dir, make_saver, opts).unwrap();
        assert_eq!(report.snapshot_generation, 4);
        assert_eq!(report.replayed_records, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_count_survives_reopen_and_can_be_overridden() {
        let dir = temp_store("shards");
        let mut store = DurableEngine::create(
            &dir,
            Schema::numeric(2),
            saver(),
            Vec::new(),
            StoreOptions {
                shards: Some(4),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(store.engine().shards(), 4);
        store.ingest(grid_rows()).unwrap();
        let live_state = store.engine().export_state();
        drop(store);

        // Unconfigured reopen keeps the snapshot's shard count.
        let (reopened, _) = DurableEngine::open(&dir, make_saver, StoreOptions::default()).unwrap();
        assert_eq!(reopened.engine().shards(), 4);
        assert_eq!(reopened.engine().export_state(), live_state);
        drop(reopened);

        // An explicit option re-partitions without changing the state.
        let (reopened, _) = DurableEngine::open(
            &dir,
            make_saver,
            StoreOptions {
                shards: Some(1),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(reopened.engine().shards(), 1);
        assert_eq!(reopened.engine().export_state(), live_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_with_config_round_trips_through_recovery() {
        let dir = temp_store("withconfig");
        let config = EngineConfig::new(2, 0.5, 4).shards(3);
        let mut store = DurableEngine::create_with_config(
            &dir,
            Schema::numeric(2),
            &config,
            StoreOptions::default(),
        )
        .unwrap();
        assert_eq!(store.engine().shards(), 3);
        store.ingest(grid_rows()).unwrap();
        let live_state = store.engine().export_state();
        drop(store);
        // The stored blob alone rebuilds the saver.
        let (reopened, _) = DurableEngine::open(
            &dir,
            |schema, blob| EngineConfig::decode(blob)?.build_saver_for(schema),
            StoreOptions::default(),
        )
        .unwrap();
        assert_eq!(reopened.engine().shards(), 3);
        assert_eq!(reopened.engine().export_state(), live_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = temp_store("exists");
        DurableEngine::create(
            &dir,
            Schema::numeric(2),
            saver(),
            Vec::new(),
            StoreOptions::default(),
        )
        .unwrap();
        let err = DurableEngine::create(
            &dir,
            Schema::numeric(2),
            saver(),
            Vec::new(),
            StoreOptions::default(),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, Error::StoreExists { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_missing_store_fails_cleanly() {
        let dir = temp_store("missing");
        let err = DurableEngine::open(&dir, make_saver, StoreOptions::default())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::StoreMissing { .. }), "{err}");
    }

    #[test]
    fn invalid_batch_is_rejected_without_becoming_durable() {
        let dir = temp_store("reject");
        let mut store = DurableEngine::create(
            &dir,
            Schema::numeric(2),
            saver(),
            Vec::new(),
            StoreOptions::default(),
        )
        .unwrap();
        store.ingest(grid_rows()[..10].to_vec()).unwrap();
        let err = store
            .ingest(vec![vec![Value::Num(f64::NAN), Value::Num(0.0)]])
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Engine(_)), "{err}");
        assert!(!store.is_poisoned(), "validation failure must not poison");
        let generation = store.generation();
        drop(store);
        let (reopened, report) =
            DurableEngine::open(&dir, make_saver, StoreOptions::default()).unwrap();
        assert_eq!(report.replayed_records, 1, "rejected batch never logged");
        assert_eq!(reopened.generation(), generation);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_live_handle_is_locked_out() {
        let dir = temp_store("locked");
        let store = DurableEngine::create(
            &dir,
            Schema::numeric(2),
            saver(),
            Vec::new(),
            StoreOptions::default(),
        )
        .unwrap();
        // A second session pointed at the same store must fail fast with
        // the typed lock error, not interleave WAL appends.
        let err = DurableEngine::open(&dir, make_saver, StoreOptions::default())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Locked { .. }), "{err}");
        drop(store);
        // Dropping the first handle releases the lock.
        let (_reopened, _) =
            DurableEngine::open(&dir, make_saver, StoreOptions::default()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn close_checkpoints_and_releases_the_lock() {
        let dir = temp_store("close");
        let mut store = DurableEngine::create(
            &dir,
            Schema::numeric(2),
            saver(),
            Vec::new(),
            StoreOptions::default(),
        )
        .unwrap();
        store.ingest(grid_rows()).unwrap();
        let live_state = store.engine().export_state();
        let engine = store.close().unwrap();
        assert_eq!(engine.export_state(), live_state);
        // The final checkpoint absorbed the log: reopen replays nothing
        // and lands on the identical state.
        let (reopened, report) =
            DurableEngine::open(&dir, make_saver, StoreOptions::default()).unwrap();
        assert_eq!(report.replayed_records, 0);
        assert_eq!(report.snapshot_generation, 1);
        assert_eq!(reopened.engine().export_state(), live_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn follower_bootstraps_and_applies_replicated_frames() {
        let leader_dir = temp_store("repl-leader");
        let follower_dir = temp_store("repl-follower");
        let mut leader = DurableEngine::create(
            &leader_dir,
            Schema::numeric(2),
            saver(),
            b"cfg".to_vec(),
            StoreOptions::default(),
        )
        .unwrap();
        let rows = grid_rows();
        leader.ingest(rows[..12].to_vec()).unwrap();
        leader.checkpoint().unwrap();

        // Bootstrap: ship the leader's snapshot image verbatim.
        let (bytes, _) = snapshot::read_snapshot_bytes(&leader_dir).unwrap();
        let mut follower = DurableEngine::create_from_snapshot(
            &follower_dir,
            &bytes,
            make_saver,
            StoreOptions::default(),
        )
        .unwrap();
        assert_eq!(follower.generation(), 1);
        assert_eq!(
            follower.engine().export_state(),
            leader.engine().export_state()
        );

        // Catch-up: tail the leader's log and apply each frame once.
        leader.ingest(rows[12..24].to_vec()).unwrap();
        leader.ingest(rows[24..].to_vec()).unwrap();
        let frames =
            crate::wal::frames_after(&wal_path(&leader_dir), follower.generation(), 64).unwrap();
        assert_eq!(frames.len(), 2);
        for frame in &frames {
            assert!(matches!(
                follower.apply_replicated(frame).unwrap(),
                ReplApply::Applied(_)
            ));
        }
        assert_eq!(
            follower.engine().export_state(),
            leader.engine().export_state()
        );

        // A redelivery after a reconnect is a silent no-op…
        assert!(matches!(
            follower.apply_replicated(&frames[0]).unwrap(),
            ReplApply::AlreadyApplied
        ));
        // …and a skipped-ahead frame demands a resync, applying nothing.
        let ahead = WalFrame::encode(99, &rows[..1]);
        assert!(matches!(
            follower.apply_replicated(&ahead).unwrap(),
            ReplApply::Gap {
                expected: 4,
                got: 99
            }
        ));
        assert_eq!(follower.generation(), 3);

        // The follower's own store is a valid resume point: reopen
        // replays its log and lands on the leader's exact state.
        drop(follower);
        let (reopened, report) =
            DurableEngine::open(&follower_dir, make_saver, StoreOptions::default()).unwrap();
        assert_eq!(report.replayed_records, 2);
        assert_eq!(
            reopened.engine().export_state(),
            leader.engine().export_state()
        );
        std::fs::remove_dir_all(&leader_dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();
    }

    #[test]
    fn install_snapshot_resyncs_a_lagging_follower() {
        let leader_dir = temp_store("resync-leader");
        let follower_dir = temp_store("resync-follower");
        let mut leader = DurableEngine::create(
            &leader_dir,
            Schema::numeric(2),
            saver(),
            Vec::new(),
            StoreOptions::default(),
        )
        .unwrap();
        let rows = grid_rows();
        leader.ingest(rows[..12].to_vec()).unwrap();
        leader.checkpoint().unwrap();
        let (bytes, _) = snapshot::read_snapshot_bytes(&leader_dir).unwrap();
        let mut follower = DurableEngine::create_from_snapshot(
            &follower_dir,
            &bytes,
            make_saver,
            StoreOptions::default(),
        )
        .unwrap();

        // The leader moves on and checkpoints: the generation-2 frame is
        // gone from its log, so the follower can only see generation 3.
        leader.ingest(rows[12..24].to_vec()).unwrap();
        leader.checkpoint().unwrap();
        leader.ingest(rows[24..].to_vec()).unwrap();
        let frames =
            crate::wal::frames_after(&wal_path(&leader_dir), follower.generation(), 64).unwrap();
        assert_eq!(frames.len(), 1);
        assert!(matches!(
            follower.apply_replicated(&frames[0]).unwrap(),
            ReplApply::Gap {
                expected: 2,
                got: 3
            }
        ));

        // Resync from the leader's current snapshot, then the pending
        // frame continues the sequence.
        let (bytes, data) = snapshot::read_snapshot_bytes(&leader_dir).unwrap();
        assert_eq!(data.state.generation, 2);
        assert_eq!(follower.install_snapshot(&bytes, make_saver).unwrap(), 2);
        assert!(matches!(
            follower.apply_replicated(&frames[0]).unwrap(),
            ReplApply::Applied(_)
        ));
        assert_eq!(
            follower.engine().export_state(),
            leader.engine().export_state()
        );

        // A stale snapshot can never regress acknowledged state.
        let err = follower.install_snapshot(&bytes, make_saver).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "{err}");
        assert_eq!(follower.generation(), 3);
        std::fs::remove_dir_all(&leader_dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();
    }

    #[test]
    fn stale_snapshot_tmp_is_cleaned_on_open() {
        let dir = temp_store("staletmp");
        let mut store = DurableEngine::create(
            &dir,
            Schema::numeric(2),
            saver(),
            Vec::new(),
            StoreOptions::default(),
        )
        .unwrap();
        store.ingest(grid_rows()[..8].to_vec()).unwrap();
        drop(store);
        let tmp = snapshot::snapshot_tmp_path(&dir);
        std::fs::write(&tmp, b"half a snapshot").unwrap();
        let (_, report) = DurableEngine::open(&dir, make_saver, StoreOptions::default()).unwrap();
        assert_eq!(report.replayed_records, 1);
        assert!(!tmp.exists(), "stale staging file must be removed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
