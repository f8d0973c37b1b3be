//! Process-wide event counters with a fixed-order snapshot registry.
//!
//! Counters are `static` relaxed `AtomicU64`s: always on, never locked,
//! monotonically increasing for the life of the process. They answer
//! "what did this *process* do" (every index query, every prune, across
//! all concurrent pipelines and tests); per-run attribution lives in
//! [`crate::stats`], which threads deterministic totals through return
//! values instead.
//!
//! The full set is declared once in the [`ALL`] table so snapshots have a
//! stable key order — the JSON export depends on it.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
///
/// All operations use `Ordering::Relaxed`: counters are statistics, not
/// synchronization. Totals are exact (atomic adds never lose updates);
/// only cross-counter ordering is unspecified, which a snapshot taken
/// while work is in flight can observe.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A new counter at zero (usable in `static` initializers).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one event.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A process-wide level gauge (a value that can go up *and* down, e.g.
/// the serving layer's ingest-queue depth).
///
/// Like [`Counter`], all operations are `Ordering::Relaxed`: gauges are
/// statistics, not synchronization. Decrements saturate at zero so a
/// snapshot racing an inc/dec pair can never underflow to `u64::MAX`.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A new gauge at zero (usable in `static` initializers).
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Raise the level by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Lower the level by one (saturating at zero).
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Overwrite the level.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

macro_rules! declare_counters {
    ($($(#[$doc:meta])* $name:ident => $key:literal,)+) => {
        $( $(#[$doc])* pub static $name: Counter = Counter::new(); )+

        /// Every registered counter with its stable snapshot key, in
        /// declaration order.
        pub static ALL: &[(&str, &Counter)] = &[ $( ($key, &$name), )+ ];
    };
}

declare_counters! {
    /// Range-shaped calls (`range` / `count_within` / `satisfies`) on a
    /// grid-backed `Index`.
    GRID_RANGE_QUERIES => "index.grid.range_queries",
    /// `knn` / `kth_distance` calls on a grid-backed `Index` (internal
    /// expanding-radius probes additionally count as range queries).
    GRID_KNN_QUERIES => "index.grid.knn_queries",
    /// Candidate rows visited by grid cell enumeration (before the
    /// distance filter).
    GRID_ROWS_VISITED => "index.grid.rows_visited",
    /// Range-shaped calls (`range`, `count_within`, `satisfies`) on a
    /// `BruteForceIndex` or a brute-backed `Index`.
    BRUTE_RANGE_QUERIES => "index.brute.range_queries",
    /// `knn` / `kth_distance` calls on a `BruteForceIndex` or a
    /// brute-backed `Index`.
    BRUTE_KNN_QUERIES => "index.brute.knn_queries",
    /// Rows scanned by brute scans (early-exit scans count only the rows
    /// actually touched).
    BRUTE_ROWS_VISITED => "index.brute.rows_visited",
    /// Range-shaped calls on a VP-tree-backed `Index`.
    VPTREE_RANGE_QUERIES => "index.vptree.range_queries",
    /// `knn` / `kth_distance` calls on a VP-tree-backed `Index`.
    VPTREE_KNN_QUERIES => "index.vptree.knn_queries",
    /// Tree nodes visited by VP-tree searches (each node holds one row),
    /// plus the rows scanned in the tail appended since the last rebuild.
    VPTREE_ROWS_VISITED => "index.vptree.rows_visited",
    /// `SortedColumn::ball` / `ball_size` calls (κ-restricted candidate
    /// seeding).
    SORTED_BALL_QUERIES => "index.sorted.ball_queries",
    /// Full structure rebuilds performed by `DynamicIndex` (VP-tree
    /// buffer overflow or backend upgrades/migrations).
    DYNAMIC_REBUILDS => "index.dynamic.rebuilds",
    /// Search-tree nodes expanded by the approximate saver (Algorithm 1).
    SEARCH_NODES => "search.nodes",
    /// Candidate adjustments evaluated by either saver (the exact
    /// saver's domain combinations count here as well as in
    /// `search.exact_combinations`).
    SEARCH_CANDIDATES => "search.candidates",
    /// Subtrees cut by the Prop. 3 lower bound (`δ_η(t_o, A) − ε ≥ best`).
    SEARCH_LB_PRUNES => "search.lb_prunes",
    /// Nodes cut because fewer than η neighbors remain reachable.
    SEARCH_ETA_PRUNES => "search.eta_prunes",
    /// Prop. 5 incumbent improvements (upper bound tightened).
    SEARCH_UB_UPDATES => "search.ub_updates",
    /// Domain-product combinations enumerated by the exact saver.
    EXACT_COMBINATIONS => "search.exact_combinations",
    /// `run_pipeline` invocations.
    PIPELINE_RUNS => "pipeline.runs",
    /// Outliers found by the detection stage.
    OUTLIERS_DETECTED => "pipeline.outliers_detected",
    /// Outliers successfully saved (adjustment applied).
    OUTLIERS_SAVED => "pipeline.outliers_saved",
    /// Per-outlier saves abandoned by a budget deadline.
    SAVES_CANCELLED => "pipeline.saves_cancelled",
    /// Per-outlier saves that panicked and were isolated.
    SAVES_PANICKED => "pipeline.saves_panicked",
    /// `DiscEngine::ingest` calls.
    ENGINE_INGESTS => "engine.ingests",
    /// Tuples appended across all ingests.
    ENGINE_ROWS_INGESTED => "engine.rows_ingested",
    /// Rows whose cached ε-neighborhood count was reused unchanged by an
    /// ingest (no re-detection needed).
    ENGINE_CACHE_HITS => "engine.cache_hits",
    /// Rows placed in the dirty set (re-detected and, if outlying,
    /// re-saved) across all ingests.
    ENGINE_DIRTY_ROWS => "engine.dirty_rows",
    /// Save attempts the engine re-ran on previously seen outliers:
    /// pending retries plus, when the inlier set grew, the outliers not
    /// proven unchanged (every one where no stability check applies).
    ENGINE_RESAVES => "engine.resaves",
    /// Outliers promoted to inliers by later arrivals (their saved
    /// adjustment, if any, is reverted to the original values).
    ENGINE_PROMOTIONS => "engine.promotions",
    /// Tuple distances the engine's `δ_η` upkeep evaluated itself: one
    /// per wide pre-existing inlier per new inlier (narrow inliers take
    /// their distances from ε-range queries, which count under
    /// `index.*` and `kernel.*` instead).
    ENGINE_DELTA_ETA_EVALS => "engine.delta_eta_evals",
    /// Table chunks (`CHUNK` rows of counts, `δ_η` list lengths or
    /// slots, or adjusted rows) an ingest copied before writing, because
    /// a published view still held them. Zero while no view is held;
    /// with one held between ingests, the chunks each ingest writes.
    ENGINE_CHUNKS_COPIED => "engine.chunks_copied",
    /// Write-ahead-log records appended (one per durable ingest).
    WAL_APPENDS => "persist.wal.appends",
    /// Bytes written to the write-ahead log (headers + payloads).
    WAL_BYTES_WRITTEN => "persist.wal.bytes_written",
    /// `fsync` calls issued by the write-ahead log (appends and resets).
    WAL_FSYNCS => "persist.wal.fsyncs",
    /// Complete WAL records replayed into an engine during recovery.
    WAL_RECORDS_REPLAYED => "persist.wal.records_replayed",
    /// Torn WAL tails truncated during recovery (at most one per open).
    WAL_TORN_TAILS => "persist.wal.torn_tails",
    /// Snapshot files written (atomic temp-file + rename cycles).
    SNAPSHOT_WRITES => "persist.snapshot.writes",
    /// Bytes written to snapshot files.
    SNAPSHOT_BYTES_WRITTEN => "persist.snapshot.bytes_written",
    /// Snapshot files read back during store opens.
    SNAPSHOT_LOADS => "persist.snapshot.loads",
    /// Store opens that recovered an engine from disk.
    PERSIST_RECOVERIES => "persist.recoveries",
    /// Whole-row distance evaluations served by the packed numeric
    /// kernels (`disc_distance::packed`).
    KERNEL_PACKED_CALLS => "kernel.packed_calls",
    /// Whole-row distance evaluations that fell back to the
    /// per-attribute `Value` path (non-numeric metric, invalid row, or
    /// unpackable query).
    KERNEL_FALLBACK_CALLS => "kernel.fallback_calls",
    /// Packed evaluations abandoned early because the partial
    /// accumulation exceeded the threshold.
    KERNEL_EARLY_EXITS => "kernel.early_exits",
    /// TCP connections accepted by the serving layer.
    SERVE_CONNECTIONS => "serve.connections",
    /// `ingest` requests admitted to the write queue (rejected requests
    /// count under `serve.rejected_overloaded` instead).
    SERVE_REQUESTS_INGEST => "serve.requests.ingest",
    /// `query` requests served.
    SERVE_REQUESTS_QUERY => "serve.requests.query",
    /// `report` requests served.
    SERVE_REQUESTS_REPORT => "serve.requests.report",
    /// `stats` requests served.
    SERVE_REQUESTS_STATS => "serve.requests.stats",
    /// `snapshot` requests served.
    SERVE_REQUESTS_SNAPSHOT => "serve.requests.snapshot",
    /// `ingest` requests refused with a typed `overloaded` response
    /// because the bounded write queue was full (backpressure).
    SERVE_REJECTED_OVERLOAD => "serve.rejected_overloaded",
    /// Writes refused by a follower with a typed `not_leader` response
    /// naming the leader address.
    SERVE_REJECTED_NOT_LEADER => "serve.rejected_not_leader",
    /// `replicate` requests served by a leader (one per follower poll).
    REPL_REQUESTS => "repl.requests",
    /// WAL frames shipped to followers by a leader's `replicate`
    /// responses.
    REPL_FRAMES_SHIPPED => "repl.frames_shipped",
    /// Frame payload bytes shipped to followers (pre-hex, the durable
    /// byte count).
    REPL_BYTES_SHIPPED => "repl.bytes_shipped",
    /// Full snapshot images shipped to bootstrapping or fallen-behind
    /// followers.
    REPL_SNAPSHOTS_SHIPPED => "repl.snapshots_shipped",
    /// Replicated frames a follower applied through its durable ingest
    /// path (each exactly once).
    REPL_FRAMES_APPLIED => "repl.frames_applied",
    /// Replicated frames a follower skipped because their generation was
    /// already durably applied (the at-most-once half of exactly-once;
    /// expected after a resume or duplicated poll, never a data change).
    REPL_FRAMES_SKIPPED => "repl.frames_skipped",
    /// Snapshot images a follower installed (bootstrap or resync after
    /// falling behind a leader checkpoint).
    REPL_SNAPSHOTS_INSTALLED => "repl.snapshots_installed",
    /// Follower reconnect attempts after a dropped or failed replication
    /// link (exponential backoff governs their spacing).
    REPL_RECONNECTS => "repl.reconnects",
}

macro_rules! declare_gauges {
    ($($(#[$doc:meta])* $name:ident => $key:literal,)+) => {
        $( $(#[$doc])* pub static $name: Gauge = Gauge::new(); )+

        /// Every registered gauge with its stable snapshot key, in
        /// declaration order.
        pub static ALL_GAUGES: &[(&str, &Gauge)] = &[ $( ($key, &$name), )+ ];
    };
}

declare_gauges! {
    /// Ingest batches currently waiting in the serving layer's bounded
    /// write queue (admission-controlled; see `serve.rejected_overloaded`).
    SERVE_QUEUE_DEPTH => "serve.queue_depth",
    /// Client connections currently open against the serving layer.
    SERVE_OPEN_CONNECTIONS => "serve.open_connections",
    /// How many generations a follower currently trails its leader
    /// (leader generation − last durably applied generation, saturating
    /// at zero; 0 means caught up).
    REPL_LAG_GENERATIONS => "repl.lag_generations",
}

/// A point-in-time reading of every registered counter, in stable
/// declaration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    values: Vec<(&'static str, u64)>,
}

impl Snapshot {
    /// Read all counters now.
    pub fn take() -> Self {
        Snapshot {
            values: ALL.iter().map(|&(key, c)| (key, c.get())).collect(),
        }
    }

    /// Counts accumulated since `earlier` (saturating per key; a snapshot
    /// from the same process is never ahead of a later one).
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            values: self
                .values
                .iter()
                .map(|&(key, v)| (key, v.saturating_sub(earlier.get(key))))
                .collect(),
        }
    }

    /// Value for `key`, or 0 if absent.
    pub fn get(&self, key: &str) -> u64 {
        self.values
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }

    /// All `(key, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.values.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        c.add(0); // no-op, must not panic or store
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn registry_keys_are_unique_and_ordered() {
        let mut keys: Vec<&str> = ALL.iter().map(|&(k, _)| k).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate counter key in registry");
    }

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.dec(); // underflow must saturate, not wrap
        assert_eq!(g.get(), 0);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn gauge_registry_keys_are_unique() {
        let mut keys: Vec<&str> = ALL_GAUGES.iter().map(|&(k, _)| k).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate gauge key in registry");
        // Gauge keys must not collide with counter keys either: both end
        // up in the same stats JSON export.
        for (k, _) in ALL_GAUGES {
            assert!(
                ALL.iter().all(|(ck, _)| ck != k),
                "gauge key {k} collides with a counter key"
            );
        }
    }

    #[test]
    fn snapshot_delta() {
        let before = Snapshot::take();
        GRID_RANGE_QUERIES.add(3);
        SEARCH_NODES.add(7);
        let delta = Snapshot::take().delta_since(&before);
        // Counters are process-global and other tests in this binary run
        // concurrently, so assert lower bounds, not exact values.
        assert!(delta.get("index.grid.range_queries") >= 3);
        assert!(delta.get("search.nodes") >= 7);
        assert_eq!(delta.get("no.such.counter"), 0);
    }
}
