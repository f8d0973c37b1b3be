//! Hash-partitioning of rows across engine shards.
//!
//! The sharded engine assigns every global row id to a shard with a
//! fixed stateless hash ([`shard_of`]), so the partition depends only on
//! the id — never on ingest batching, worker count, or index internals.
//! Shards split index work only: each `EngineShard` owns its partition's
//! index pair and the global id of each of its rows, while every
//! per-row quantity (counts, `δ_η` lists) lives on the engine in global
//! order. Every engine fan-out goes through `fan_out`, which scatters a
//! closure across shards with [`parallel_map`] and gathers the results
//! *in shard order* — what makes merged query results deterministic for
//! any worker count — and times each call. The caller sizes it: the
//! engine runs every fan-out of an ingest below `MIN_THREADED_ROWS` rows
//! on the calling thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use disc_distance::{TupleDistance, Value};
use disc_index::{DynamicIndex, DynamicNeighborIndex, IndexActivity, NeighborIndex};
use disc_obs::counters;
use disc_obs::hist::SHARD_FANOUT_MICROS;

use crate::parallel::parallel_map;

/// SplitMix64: a fixed, high-quality 64-bit mixer. The shard of a row
/// must never change across processes or versions (snapshots record only
/// the shard *count*), so this is part of the on-disk contract.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard owning global row `global` out of `shards` partitions.
pub fn shard_of(global: usize, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    (splitmix64(global as u64) % shards as u64) as usize
}

/// The shard count used when none is configured: the `DISC_TEST_SHARDS`
/// environment override if it parses to a positive integer (CI runs the
/// tier-1 suite once with `DISC_TEST_SHARDS=3`), otherwise 1.
pub fn default_shards() -> usize {
    std::env::var("DISC_TEST_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Resolves a requested shard count: `0` means auto — one shard per
/// available core, capped at 8 (beyond that, fan-out overhead dominates
/// on the workloads this engine targets). Any other value is taken as
/// given.
pub fn resolve_shards(requested: usize) -> usize {
    if requested == 0 {
        crate::parallel::available_cores().min(8)
    } else {
        requested
    }
}

/// One partition of the sharded engine: its slice of the rows, indexed
/// two ways. Index ids are local; `globals` and `inlier_globals` map
/// them back to global row ids.
pub(crate) struct EngineShard {
    /// This shard's rows, original values — answers the ε-range
    /// sub-queries of each new row (the count update) and of each
    /// promoted row.
    pub(crate) full_index: DynamicIndex,
    /// `globals[full_index id] = global id` (ascending, because rows
    /// arrive in global order).
    pub(crate) globals: Vec<usize>,
    /// This shard's inlier rows only — answers the η-NN sub-queries that
    /// seed the `δ_η` list of a new inlier its ε-range hits leave
    /// unsettled.
    pub(crate) inlier_index: DynamicIndex,
    /// `inlier_globals[inlier_index id] = global id` (insertion order).
    pub(crate) inlier_globals: Vec<usize>,
    /// Logical range queries this shard answered (atomic so read-only
    /// fan-outs through `&self` can record them).
    pub(crate) range_queries: AtomicU64,
    /// Rebuild total already flushed to `shard.rebuilds`, so each flush
    /// adds only the delta.
    pub(crate) reported_rebuilds: u64,
}

impl EngineShard {
    pub(crate) fn new(dist: TupleDistance, eps: f64) -> Self {
        EngineShard {
            full_index: DynamicIndex::new(dist.clone(), eps),
            globals: Vec::new(),
            inlier_index: DynamicIndex::new(dist, eps),
            inlier_globals: Vec::new(),
            range_queries: AtomicU64::new(0),
            reported_rebuilds: 0,
        }
    }

    /// Adds global row `global` to the full index.
    pub(crate) fn push(&mut self, global: usize, row: Vec<Value>) {
        self.full_index.insert(row);
        self.globals.push(global);
    }

    /// Adds global row `global`, now an inlier, to the inlier index.
    pub(crate) fn push_inlier(&mut self, global: usize, row: Vec<Value>) {
        self.inlier_index.insert(row);
        self.inlier_globals.push(global);
    }

    /// This shard's ε-range hits around `query`, as `(global id,
    /// distance)`; counts the query on the shard and on
    /// `shard.range_queries`.
    pub(crate) fn range(&self, query: &[Value], eps: f64) -> Vec<(usize, f64)> {
        self.range_queries.fetch_add(1, Ordering::Relaxed);
        counters::SHARD_RANGE_QUERIES.incr();
        let hits = self.full_index.range(query, eps);
        hits.into_iter()
            .map(|(l, d)| (self.globals[l as usize], d))
            .collect()
    }

    /// Combined index activity (full + inlier index).
    pub(crate) fn activity(&self) -> IndexActivity {
        let full = self.full_index.activity();
        let inlier = self.inlier_index.activity();
        IndexActivity {
            queries: full.queries + inlier.queries,
            rows_visited: full.rows_visited + inlier.rows_visited,
            rebuilds: full.rebuilds + inlier.rebuilds,
        }
    }
}

/// Per-shard balance and effort accounting, from
/// [`ShardedEngine::shard_stats`](crate::ShardedEngine::shard_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard id, `0..shards`.
    pub shard: usize,
    /// Rows this shard owns.
    pub rows: usize,
    /// Logical range queries this shard answered.
    pub range_queries: u64,
    /// Candidate rows visited by this shard's indexes.
    pub rows_visited: u64,
    /// Index rebuilds inside this shard.
    pub rebuilds: u64,
}

/// The engine's one shard fan-out: maps `f` over `shards` (shared or
/// mutable, usually enumerated for the shard id) through
/// [`parallel_map`], so results arrive in shard order for any `workers`,
/// and records the call's wall time in `SHARD_FANOUT_MICROS` — one
/// sample per call, serial calls included.
pub(crate) fn fan_out<I, U, F>(shards: I, workers: usize, f: F) -> Vec<U>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    U: Send,
    F: Fn(I::Item) -> U + Sync,
{
    let started = Instant::now();
    let out = parallel_map(shards, workers, f);
    SHARD_FANOUT_MICROS.record(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable() {
        // Pinned: the hash is part of the on-disk contract (snapshots
        // record only the shard count, so the assignment itself must
        // never drift between versions).
        let assigned: Vec<usize> = (0..8).map(|g| shard_of(g, 3)).collect();
        assert_eq!(assigned, vec![1, 2, 1, 0, 1, 2, 2, 0]);
        for g in 0..1000 {
            assert_eq!(shard_of(g, 1), 0);
            assert!(shard_of(g, 7) < 7);
        }
    }

    #[test]
    fn shard_of_spreads_rows() {
        // Not a statistical test — just a guard against a degenerate
        // mixer leaving shards empty at realistic sizes.
        for shards in [2, 3, 7] {
            let mut per = vec![0usize; shards];
            for g in 0..1000 {
                per[shard_of(g, shards)] += 1;
            }
            let (min, max) = (per.iter().min().unwrap(), per.iter().max().unwrap());
            assert!(*min > 0, "empty shard at S={shards}: {per:?}");
            assert!(
                (*max as f64) < 2.0 * (*min as f64),
                "unbalanced at S={shards}: {per:?}"
            );
        }
    }

    #[test]
    fn resolve_and_default_shards() {
        assert_eq!(resolve_shards(5), 5);
        assert!(resolve_shards(0) >= 1);
        assert!(default_shards() >= 1);
    }

    #[test]
    fn fan_out_records_serial_and_threaded_calls() {
        let dist = TupleDistance::numeric(1);
        let mut shards: Vec<EngineShard> = (0..5)
            .map(|_| EngineShard::new(dist.clone(), 1.0))
            .collect();
        for workers in [1, 3] {
            let before = SHARD_FANOUT_MICROS.snapshot().count();
            let ids = fan_out(shards.iter_mut().enumerate(), workers, |(s, _)| s);
            assert_eq!(ids, vec![0, 1, 2, 3, 4], "workers={workers}");
            assert!(SHARD_FANOUT_MICROS.snapshot().count() > before);
        }
    }
}
