//! The incremental streaming engine: ingest micro-batches, re-save only
//! what changed — with rows hash-partitioned across shards.
//!
//! [`ShardedEngine`] owns the dataset and hash-partitions its rows
//! across `S` shards ([`crate::shard`]); each shard owns one
//! [`DynamicIndex`](disc_index::DynamicIndex) over its rows, and the
//! engine keeps every row's ε-neighbor count and `δ_η` list once, in
//! global row order (a `Vec` and a [`NearestTable`]). Each
//! [`ShardedEngine::ingest`] call:
//!
//! 1. appends the batch (each row to its hash-assigned shard) and
//!    updates counts *incrementally* — one ε-range query per new tuple,
//!    fanned out across shards and merged by summing
//!    the per-shard hit counts; every old row a query lands within ε of
//!    gets its count bumped (rows untouched by any query keep their
//!    count: `engine.cache_hits`), and the hits are kept for step 3;
//! 2. re-classifies only rows whose count changed — because counts never
//!    decrease, inliers stay inliers and the only transitions are new
//!    rows settling and old outliers being *promoted* (their adjusted
//!    values, if any, are reverted to the original ingested values);
//! 3. maintains the `δ_η` lists in one pass over the old rows in global
//!    order: each existing inlier observes its distance to the newly
//!    established inliers, noting whose `δ_η` fell. A *narrow* inlier,
//!    whose `δ_η` lies below ε by `NARROW_MARGIN`, can only be tightened
//!    by a new inlier within ε, so it observes just those: a fresh row's
//!    distances come from step 1's hits, and each promoted row gets one
//!    ε-range query per shard. A *wide* inlier (larger `δ_η`, or fewer
//!    than η inliers listed) observes every new inlier directly
//!    (`engine.delta_eta_evals`). A new inlier takes its own list from
//!    its ε-range hits (step 1's for a fresh row, its step-3 query for
//!    a promoted one), counting every inlier among them, rows of the
//!    same ingest and promoted rows included, when the η nearest lie
//!    within ε·(1 − `NARROW_MARGIN`): every inlier outside ε is farther.
//!    Only the rest get an η-NN query, fanned out over the shard
//!    indexes, each restricted to the inliers (the rows whose count
//!    reaches η, this ingest's included), merged by `(total_cmp
//!    distance, global id)` and truncated to η;
//! 4. computes the *dirty set* — the outliers whose save outcome could
//!    have changed: the new outliers, any previously skipped/failed
//!    rows, and, when the inlier set grew, every old outlier the saver
//!    cannot prove stable ([`Saver::outcome_may_change`], asked with the
//!    new inliers, the inliers whose `δ_η` fell, and the cost of the
//!    outlier's current adjustment; fanned out over outliers). The
//!    default answer re-saves every outlier; `DiscSaver` keeps an
//!    outlier clean unless a changed inlier could host it at no more
//!    than its current cost (Prop. 3/5). The saver is asked only while
//!    every inlier cell is a number, so the changed inliers are packed
//!    as `f64` once per ingest; once an inlier holds a `Null` or
//!    text cell, every old outlier is re-saved whenever r grows;
//! 5. merges the new inliers into the engine's [`RSet`] in place, at
//!    their rank in ascending row order, and rewrites the tightened
//!    `δ_η` (timed as `stages.rset_build`), then runs the ordinary
//!    budgeted / parallel / panic-isolated save machinery
//!    ([`pipeline`](crate::pipeline)) on just the dirty rows and applies
//!    the adjustments.
//!
//! The engine holds its originals once, in a write-once row store, and
//! its counts, `δ_η` lists and adjusted rows (the overlay of output rows
//! that differ from their originals) in copy-on-write chunks; see
//! [`crate::view`]. The row store and the overlay are its only record of
//! its output: [`ShardedEngine::dataset`] builds the flat output table
//! from them on the first call after an ingest. [`ShardedEngine::view`]
//! shares all of them with a read-only [`EngineView`] without copying a
//! row, so a server can publish after every ingest at the cost of the
//! chunks the next ingest writes; the view answers every other read of
//! a live engine, and [`ShardedEngine::export_state`] builds the flat
//! [`EngineState`] from one.
//!
//! The shard fan-outs of steps 1 and 3, step 4 and the save loop run on
//! the saver's worker threads only for ingests of at least
//! `MIN_THREADED_ROWS` rows; a smaller ingest runs them all on the
//! calling thread, where spawning threads would cost more than the work.
//!
//! Determinism contract: detection and saving always work on the
//! *original* ingested values (adjustments live only in the output
//! overlay), the RSet lists inliers in ascending row order and equals a
//! from-scratch build over them (`RSet::merge`), every `δ_η` list holds
//! exactly the η nearest inlier distances (the narrow rule skips only
//! pairs that cannot tighten a list), and dirty outliers are saved in
//! ascending row order — exactly the batch pipeline's conventions. The
//! dirty set depends only on state an [`EngineState`] carries (an
//! outlier's cost is read off its original and current rows), so a
//! restored engine or a replica re-saves the same rows. Sharding adds
//! nothing observable: a range count is the sum of per-shard hit counts
//! (the shards partition the rows, so hit sets union disjointly), and a
//! merged η-NN list carries the same distance *multiset* as a
//! single-shard query (each shard's contribution to the global top-η is
//! contained in its local top-η).
//! After any sequence of ingests the engine's classification and saved
//! dataset are identical to one batch `save_all` over the concatenated
//! data — **for every shard count and every worker count** (see the
//! `engine_equivalence` and `sharded_equivalence` proptests).

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use disc_data::{bit_equal_row, Dataset, Schema};
use disc_distance::{pack_values, Value};
use disc_index::NonNumericCell;
use disc_obs::{counters, PipelineStats, Snapshot};

use crate::cache::{kth_of, NearestTable};
use crate::constraints::NARROW_MARGIN;
use crate::error::Error;
use crate::parallel::parallel_map;
use crate::pipeline::{save_outlier_rows, SaveReport};
use crate::rset::RSet;
use crate::saver::Saver;
use crate::shard::{self, shard_of, EngineShard};
use crate::view::{output_rows, Chunks, EngineView, RowStore};

/// Smallest ingest, in rows, whose fan-outs run on threads. An ingest
/// below it runs its shard fan-outs, phase 4 and its save loop on the
/// calling thread: `parallel_map` spawns fresh scoped threads per call,
/// and at 8-row ingests the up to four spawns and joins per ingest cost
/// more than the work they split. Measured on 2 CPUs with `disc stream`
/// over `disc generate --n 8000 --m 3 --dirty 160 --seed 7` at
/// `--eps 0.5 --eta 4`, always threaded against always inline (wall
/// seconds): `--batch 8` 1.51–1.54 against 1.40–1.43, 16 and 24 within
/// noise, 32 0.78–0.88 against 0.85–1.01, 64 0.68 against 0.83–0.92.
const MIN_THREADED_ROWS: usize = 32;

/// A row's ε-range hits in one shard, as (global id, distance).
type Hits = Vec<(usize, f64)>;

/// The order of merged neighbour lists: `total_cmp` distance, then
/// global id.
fn by_distance(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// A long-lived incremental DISC engine; see the [module docs](self).
pub struct ShardedEngine {
    saver: Box<dyn Saver>,
    /// Original (as-ingested) values of every row, in global id order,
    /// held once and shared with every view. Detection, `δ_η`
    /// maintenance, and saving always read these.
    original: RowStore,
    /// The schema of the input and output rows.
    schema: Schema,
    /// The output rows that differ (bit for bit) from their originals,
    /// the saved outliers: with `original`, the engine's only record of
    /// its output. Written only by `set_current`.
    adjusted: Chunks<Option<Arc<[Value]>>>,
    /// The flat output dataset, built from `original` and `adjusted` by
    /// the first [`ShardedEngine::dataset`] call after an ingest; every
    /// ingest drops it.
    output: OnceLock<Dataset>,
    /// Per-row ε-neighbor count over the whole dataset, self-inclusive —
    /// the quantity detection compares against η.
    counts: Chunks<usize>,
    /// Per-row ascending distances to the row's η nearest inliers
    /// (self-inclusive, so the first is 0), η slots per row; a row with
    /// no list is an outlier. A list shorter than η means fewer than η
    /// inliers exist and `δ_η` is unbounded.
    nearest: NearestTable,
    /// The partitions: one index per shard.
    shards: Vec<EngineShard>,
    /// True while every cell of every inlier is a number. Inliers never
    /// leave r, so once false it stays false; phase 4 asks the saver to
    /// prove outliers stable only while it holds.
    numeric_inliers: bool,
    /// Outliers whose last save attempt was skipped (budget) or failed
    /// (panic); retried on the next ingest.
    pending: BTreeSet<usize>,
    /// The inlier context r the saver works against: its rows are the
    /// inliers' original values in ascending global id order, and every
    /// ingest that grows r merges the new inliers into it in place.
    rset: RSet,
    /// Global ids of r's rows, ascending: RSet row `i` is global row
    /// `inliers[i]`.
    inliers: Vec<usize>,
    /// Number of successful ingests applied since the engine was empty.
    /// The persistence layer keys snapshots and write-ahead-log records
    /// off this: snapshot generation `g` plus the WAL records for
    /// generations `g+1..` replays to the exact live state.
    generation: u64,
}

/// The sharded engine at `S = 1` behaves exactly like the original
/// single-partition engine — and produces bit-identical results at any
/// other `S` too — so the historical name is a plain alias.
pub type DiscEngine = ShardedEngine;

/// A complete, self-contained image of a [`ShardedEngine`]'s logical
/// state, produced by [`ShardedEngine::export_state`] and accepted by
/// [`ShardedEngine::restore_with_shards`].
///
/// The image holds everything that cannot be recomputed cheaply and
/// deterministically: the as-ingested rows, the output rows (original
/// values with saved adjustments applied), the per-row counts and `δ_η`
/// lists (in global id order — shard-agnostic; the lists in one
/// contiguous [`NearestTable`]), and the pending retry set. The
/// per-shard dynamic indexes and the `RSet` are deliberately *not* part
/// of the image — restore rebuilds them from the rows and lists (the
/// RSet by merging every inlier into an empty one), which keeps the
/// on-disk format independent of index-backend internals *and of the
/// shard count* (both affect only query cost, never query results).
///
/// Like the counts and `δ_η` lists, an outlier's `current` row is
/// trusted as-is: it is taken to be the outcome of saving the row
/// against the image's inliers, and later ingests re-save it only when
/// the saver cannot prove that outcome stable.
///
/// The image is the flat form the snapshot codec, equality checks and
/// benchmarks read; readers of a live engine read an [`EngineView`],
/// which builds this image on demand ([`EngineView::state`]). The
/// default image is an empty engine's at generation 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineState {
    /// The engine's [generation](ShardedEngine::generation) at export
    /// time.
    pub generation: u64,
    /// Original (as-ingested) values of every row.
    pub original: Vec<Vec<Value>>,
    /// Output values of every row (original + current adjustments).
    pub current: Vec<Vec<Value>>,
    /// Cached ε-neighbor count per row, self-inclusive.
    pub counts: Vec<usize>,
    /// Per-row ascending η-nearest-inlier distances, in one contiguous
    /// table; a row with no list is currently classified outlier.
    pub nearest: NearestTable,
    /// Outliers whose last save attempt was skipped or failed,
    /// ascending.
    pub pending: Vec<usize>,
}

impl EngineState {
    /// Number of rows in the image.
    pub fn len(&self) -> usize {
        self.original.len()
    }

    /// True when the image holds no rows.
    pub fn is_empty(&self) -> bool {
        self.original.is_empty()
    }
}

impl ShardedEngine {
    /// An empty engine over `schema`, saving with `saver`, partitioned
    /// across [`shard::default_shards`] shards.
    ///
    /// # Panics
    /// Panics if the schema arity differs from the saver's metric arity.
    pub fn new(schema: Schema, saver: Box<dyn Saver>) -> Self {
        Self::with_shards(schema, saver, shard::default_shards())
    }

    /// An empty engine partitioned across exactly `shards` shards.
    /// Results are bit-identical for every shard count; the count only
    /// changes how queries parallelize.
    ///
    /// # Panics
    /// Panics if `shards` is zero (resolve `0 = auto` with
    /// [`shard::resolve_shards`] first) or if the schema arity differs
    /// from the saver's metric arity.
    pub fn with_shards(schema: Schema, saver: Box<dyn Saver>, shards: usize) -> Self {
        assert!(shards >= 1, "a sharded engine needs at least one shard");
        assert_eq!(
            schema.arity(),
            saver.distance().arity(),
            "schema arity must match the saver's tuple metric"
        );
        let eps = saver.constraints().eps;
        let eta = saver.constraints().eta;
        let dist = saver.distance().clone();
        ShardedEngine {
            original: RowStore::default(),
            schema,
            adjusted: Chunks::with_capacity(1, 0),
            output: OnceLock::new(),
            counts: Chunks::with_capacity(1, 0),
            nearest: NearestTable::with_capacity(eta, 0),
            shards: (0..shards)
                .map(|_| EngineShard::new(dist.clone(), eps))
                .collect(),
            numeric_inliers: true,
            pending: BTreeSet::new(),
            rset: RSet::empty(dist, saver.constraints()),
            inliers: Vec::new(),
            generation: 0,
            saver,
        }
    }

    /// Number of ingested rows.
    pub fn len(&self) -> usize {
        self.original.len()
    }

    /// True before the first tuple arrives.
    pub fn is_empty(&self) -> bool {
        self.original.len() == 0
    }

    /// Number of shards rows are partitioned across.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The saver driving detection and saving.
    pub fn saver(&self) -> &dyn Saver {
        &*self.saver
    }

    /// The output dataset: ingested rows with the current adjustments
    /// applied to saved outliers. Built from the row store and the
    /// overlay by the first call after an ingest, and kept until the
    /// next one.
    pub fn dataset(&self) -> &Dataset {
        self.output.get_or_init(|| {
            Dataset::new(
                self.schema.clone(),
                output_rows(&self.original, &self.adjusted),
            )
        })
    }

    /// True when `row`'s count meets the η threshold.
    fn satisfies(&self, row: usize) -> bool {
        self.counts[row] >= self.saver.constraints().eta
    }

    /// Number of successful ingests applied since the engine was empty.
    /// Rejected batches do not advance it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Validates a batch without mutating anything — exactly the check
    /// [`ShardedEngine::ingest`] performs before touching state. The
    /// persistence layer calls this *before* appending the batch to its
    /// write-ahead log, so a batch the engine would reject is never made
    /// durable.
    ///
    /// # Errors
    /// Same contract as [`ShardedEngine::ingest`]: a wrong-arity row or
    /// a non-finite numeric cell.
    pub fn validate_batch(&self, batch: &[Vec<Value>]) -> Result<(), Error> {
        let m = self.saver.distance().arity();
        for (i, row) in batch.iter().enumerate() {
            if row.len() != m {
                return Err(Error::ArityMismatch {
                    expected: m,
                    got: row.len(),
                    row: i,
                });
            }
            for (attr, v) in row.iter().enumerate() {
                if matches!(v.as_num(), Some(x) if !x.is_finite()) {
                    return Err(Error::NonNumeric(NonNumericCell { row: i, attr }));
                }
            }
        }
        Ok(())
    }

    /// Appends `batch`, incrementally re-detects, saves the dirty
    /// outliers, and reports what happened (the report's `outliers` are
    /// the dirty rows processed *this* ingest, not the all-time set).
    ///
    /// # Errors
    /// Rejects (without mutating the engine) batches with a row of the
    /// wrong arity or with a non-finite numeric cell; text and null
    /// values are legal wherever the metric accepts them.
    pub fn ingest(&mut self, batch: Vec<Vec<Value>>) -> Result<SaveReport, Error> {
        self.validate_batch(&batch)?;
        self.output.take();
        self.generation += 1;
        let t_run = Instant::now();
        let counters_before = Snapshot::take();
        counters::ENGINE_INGESTS.incr();
        counters::ENGINE_ROWS_INGESTED.add(batch.len() as u64);
        let mut stats = PipelineStats::default();
        let constraints = self.saver.constraints();
        let eps = constraints.eps;
        let workers = if batch.len() < MIN_THREADED_ROWS {
            1
        } else {
            self.saver.parallelism().workers()
        };
        let first_new = self.original.len();

        // Phase 1: append everywhere (each row to its hash-assigned
        // shard), then one ε-range query per new tuple — fanned out
        // across shards, counts merged by summing per-shard hits —
        // updates every affected cached count.
        let t_detect = Instant::now();
        let shards = self.shards.len();
        for row in batch {
            let g = self.original.len();
            self.adjusted.push(None);
            self.shards[shard_of(g, shards)].push(g, row.clone());
            self.original.push(row);
            self.nearest.push(None);
        }
        let n = self.original.len();
        // per_shard[s][i] = new row first_new+i's hits in shard s, kept
        // whole: phase 3 reuses the old rows' distances, and a fresh
        // inlier's list usually comes from its hits.
        let per_shard: Vec<Vec<Hits>> = if n > first_new {
            let original = &self.original;
            shard::fan_out(&self.shards, workers, |shard| {
                (first_new..n)
                    .map(|g| shard.range(&original[g], eps))
                    .collect()
            })
        } else {
            Vec::new()
        };
        // Self-inclusive: the query row is in exactly one shard's index,
        // at distance 0, so the sum counts it once.
        for i in 0..n - first_new {
            self.counts
                .push(per_shard.iter().map(|rows| rows[i].len()).sum());
        }
        // The old rows within ε of a new row, ascending and distinct.
        let mut bumped: Vec<usize> = Vec::new();
        for hits in per_shard.iter().flatten() {
            for &(g, _) in hits.iter().filter(|&&(g, _)| g < first_new) {
                self.counts[g] += 1;
                bumped.push(g);
            }
        }
        bumped.sort_unstable();
        bumped.dedup();
        counters::ENGINE_CACHE_HITS.add((first_new - bumped.len()) as u64);
        #[cfg(disc_fault)]
        crate::fault::ingest(self.generation);

        // Phase 2: re-classify. Counts never decrease, so the only
        // transitions are old outliers promoted by new neighbors and new
        // rows settling into a class.
        let mut new_inliers: Vec<usize> = Vec::new();
        for &h in &bumped {
            if !self.nearest.is_listed(h) && self.satisfies(h) {
                new_inliers.push(h);
                counters::ENGINE_PROMOTIONS.incr();
                // A promoted row is no longer saved: its adjusted values
                // (if any) revert to the original ingested ones.
                self.set_current(h, None);
                self.pending.remove(&h);
            }
        }
        let promoted = new_inliers.len();
        new_inliers.extend((first_new..n).filter(|&g| self.satisfies(g)));

        // Phase 3: maintain the δ_η lists, noting which old inliers' δ_η
        // fell (phase 4 checks them as possible new hosts).
        let mut tightened: Vec<usize> = Vec::new();
        if !new_inliers.is_empty() {
            let eta = constraints.eta;
            for &i in &new_inliers {
                self.numeric_inliers &= all_numeric(&self.original[i]);
            }
            // Each new inlier's ε-range hits over every row, one list
            // per shard: a fresh row's from phase 1, a promoted row's
            // from one query per shard here.
            let promoted_hits: Vec<Vec<Hits>> = new_inliers[..promoted]
                .iter()
                .map(|&p| {
                    let row = &self.original[p];
                    self.shards
                        .iter()
                        .map(|shard| shard.range(row, eps))
                        .collect()
                })
                .collect();
            let new_hits: Vec<Vec<&Hits>> = new_inliers
                .iter()
                .enumerate()
                .map(|(k, &i)| match promoted_hits.get(k) {
                    Some(hits) => hits.iter().collect(),
                    None => per_shard.iter().map(|rows| &rows[i - first_new]).collect(),
                })
                .collect();
            // The old rows within ε of a new inlier, with their distance,
            // ordered by row.
            let mut near: Vec<(usize, f64)> = new_hits
                .iter()
                .flatten()
                .flat_map(|hits| hits.iter().filter(|&&(g, _)| g < first_new))
                .copied()
                .collect();
            near.sort_unstable_by_key(|&(g, _)| g);
            // Each pre-existing inlier observes its distance to the new
            // inliers. A narrow row (see `NARROW_MARGIN`) observes only
            // the new inliers within ε; a wide row observes every new
            // inlier directly. New inliers (promoted and fresh alike)
            // have no list yet, so a listed row here is exactly one of the
            // pre-existing ones.
            let dist = self.saver.distance();
            let narrow = eps * (1.0 - NARROW_MARGIN);
            let mut rest = near.as_slice();
            let mut evals = 0u64;
            for j in 0..first_new {
                let k = rest.partition_point(|&(h, _)| h == j);
                let (within, tail) = rest.split_at(k);
                rest = tail;
                let Some(list) = self.nearest.get(j) else {
                    continue;
                };
                let before = kth_of(list, eta);
                if before <= narrow {
                    if within.is_empty() {
                        continue;
                    }
                    for &(_, d) in within {
                        self.nearest.observe(j, d, eta);
                    }
                } else {
                    let row = &self.original[j];
                    for &i in &new_inliers {
                        let d = dist.dist(row, &self.original[i]);
                        self.nearest.observe(j, d, eta);
                    }
                    evals += new_inliers.len() as u64;
                }
                if self.nearest.kth(j, eta) != before {
                    tightened.push(j);
                }
            }
            counters::ENGINE_DELTA_ETA_EVALS.add(evals);
            // A new inlier whose η nearest inlier hits lie within
            // ε·(1 − NARROW_MARGIN) takes its list from them: every
            // inlier the range queries excluded lies farther (see
            // `NARROW_MARGIN`). Every count is final here, so
            // `satisfies` marks exactly this ingest's inliers, the
            // batch's own rows and promoted rows included.
            let mut unsettled: Vec<usize> = Vec::new();
            for (&i, hits) in new_inliers.iter().zip(&new_hits) {
                let mut inliers: Vec<(f64, usize)> = hits
                    .iter()
                    .flat_map(|hits| hits.iter())
                    .filter(|&&(g, _)| self.satisfies(g))
                    .map(|&(g, d)| (d, g))
                    .collect();
                if inliers.len() >= eta {
                    inliers.select_nth_unstable_by(eta - 1, by_distance);
                    if inliers[eta - 1].0 <= narrow {
                        let nearest = &mut inliers[..eta];
                        nearest.sort_unstable_by(by_distance);
                        let list: Vec<f64> = nearest.iter().map(|&(d, _)| d).collect();
                        self.nearest.set(i, Some(&list));
                        continue;
                    }
                }
                unsettled.push(i);
            }
            // The rest get an η-NN query: per-shard top-η among the rows
            // with `counts ≥ η` (every count is final, so exactly r),
            // merged by (total_cmp distance, global id). Each shard's
            // members of the global top-η are inside its local top-η,
            // so the merged distances equal a single-shard query's.
            if !unsettled.is_empty() {
                let (original, counts, unsettled) = (&self.original, &self.counts, &unsettled);
                let knn_parts: Vec<Vec<Vec<(f64, usize)>>> =
                    shard::fan_out(&self.shards, workers, |shard| {
                        let global = |local: u32| shard.globals[local as usize];
                        unsettled
                            .iter()
                            .map(|&i| {
                                shard
                                    .index
                                    .knn_where(&original[i], eta, |l| counts[global(l)] >= eta)
                                    .into_iter()
                                    .map(|(l, d)| (d, global(l)))
                                    .collect::<Vec<(f64, usize)>>()
                            })
                            .collect()
                    });
                for (offset, &i) in unsettled.iter().enumerate() {
                    let mut candidates: Vec<(f64, usize)> = Vec::new();
                    for part in &knn_parts {
                        candidates.extend_from_slice(&part[offset]);
                    }
                    candidates.sort_unstable_by(by_distance);
                    candidates.truncate(eta);
                    let list: Vec<f64> = candidates.into_iter().map(|(d, _)| d).collect();
                    self.nearest.set(i, Some(&list));
                }
            }
        }

        // Phase 4: the dirty set — pending retries, new outliers, and the
        // old outliers whose outcome the saver cannot prove stable under
        // this ingest's growth of r.
        let mut dirty: BTreeSet<usize> = std::mem::take(&mut self.pending);
        dirty.extend((first_new..n).filter(|&g| !self.satisfies(g)));
        if !new_inliers.is_empty() {
            let unstable =
                self.unstable_outliers(first_new, &dirty, &new_inliers, &tightened, workers);
            dirty.extend(unstable);
        }
        let dirty: Vec<usize> = dirty.into_iter().collect();
        counters::ENGINE_DIRTY_ROWS.add(dirty.len() as u64);
        counters::ENGINE_RESAVES.add(dirty.iter().filter(|&&row| row < first_new).count() as u64);
        stats.stages.detect = t_detect.elapsed();
        let t_rset = Instant::now();
        self.grow_rset(&new_inliers, &tightened);
        stats.stages.rset_build = t_rset.elapsed();

        let mut report = SaveReport {
            outliers: dirty.clone(),
            ..SaveReport::default()
        };
        if dirty.is_empty() {
            stats.stages.total = t_run.elapsed();
            stats.counters = Snapshot::take().delta_since(&counters_before);
            report.stats = stats;
            return Ok(report);
        }

        // Phase 5: save the dirty rows with the shared pipeline
        // machinery (panic isolation, budget, worker-count-independent
        // phase-2 absorption).
        let token = self.saver.budget().start();
        if token.is_cancelled() {
            report.skipped = dirty.clone();
            self.pending = dirty.into_iter().collect();
            report.degraded = true;
            stats.search.cancellations = report.skipped.len() as u64;
            counters::SAVES_CANCELLED.add(stats.search.cancellations);
            stats.stages.total = t_run.elapsed();
            stats.counters = Snapshot::take().delta_since(&counters_before);
            report.stats = stats;
            return Ok(report);
        }
        let t_save = Instant::now();
        let adjustments = save_outlier_rows(
            &*self.saver,
            &self.rset,
            &self.original,
            &dirty,
            workers,
            &token,
            &mut stats,
            &mut report,
        );
        stats.stages.save = t_save.elapsed();
        // A dirty row's previous adjustment (if any) is stale: a row
        // saved now takes its new values, any other its original ones.
        // The adjustments come in dirty-row order.
        let mut adjustments = adjustments.into_iter().peekable();
        for &row in &dirty {
            let values = adjustments.next_if(|(r, _)| *r == row).map(|(_, v)| v);
            self.set_current(row, values);
        }
        self.pending = report
            .skipped
            .iter()
            .copied()
            .chain(report.failed.iter().map(|f| f.row))
            .collect();
        counters::OUTLIERS_SAVED.add(report.saved.len() as u64);
        counters::SAVES_CANCELLED.add(stats.search.cancellations);
        counters::SAVES_PANICKED.add(stats.search.panics);
        report.degraded = !report.failed.is_empty() || !report.skipped.is_empty();
        stats.stages.total = t_run.elapsed();
        stats.counters = Snapshot::take().delta_since(&counters_before);
        report.stats = stats;
        Ok(report)
    }

    /// Merges the new inliers `added` (ascending global ids) into the
    /// RSet at their ranks among r's rows, and rewrites the `δ_η` of the
    /// old inliers in `tightened`; both read `δ_η` from their lists.
    fn grow_rset(&mut self, added: &[usize], tightened: &[usize]) {
        let mut rows = Vec::with_capacity(added.len());
        for &g in added {
            let rank = self.inliers.partition_point(|&i| i < g);
            self.inliers.insert(rank, g);
            rows.push((rank, self.original[g].to_vec(), self.delta_eta(g)));
        }
        let tightened: Vec<(usize, f64)> = tightened
            .iter()
            .map(|&g| (self.inliers.partition_point(|&i| i < g), self.delta_eta(g)))
            .collect();
        self.rset.merge(rows, &tightened);
    }

    /// Sets the output row of `row` to its adjusted `values`, or to its
    /// original values for `None`: the one writer of the `adjusted`
    /// overlay, which holds exactly the rows whose output differs bit for
    /// bit from their original.
    fn set_current(&mut self, row: usize, values: Option<Vec<Value>>) {
        let values = values.filter(|values| !bit_equal_row(values, &self.original[row]));
        // Without an overlay entry the output row is the original
        // already; rewriting the empty entry would copy a chunk that a
        // view may still hold.
        if values.is_some() || self.adjusted[row].is_some() {
            self.adjusted[row] = values.map(Arc::from);
        }
    }

    /// The `δ_η` of inlier `row`.
    fn delta_eta(&self, row: usize) -> f64 {
        self.nearest.kth(row, self.saver.constraints().eta)
    }

    /// The old outliers outside `dirty` whose save outcome may change now
    /// that r gained `added` and the `δ_η` of `tightened` fell, ascending:
    /// all of them once an inlier holds a non-number, else the ones the
    /// saver cannot prove stable. Each one's current cost comes from its
    /// original and output rows alone, and the numeric fact from the
    /// inliers' original rows, so a restored engine, a replica, and a
    /// store reopened at another shard count decide the same.
    fn unstable_outliers(
        &self,
        first_new: usize,
        dirty: &BTreeSet<usize>,
        added: &[usize],
        tightened: &[usize],
        workers: usize,
    ) -> Vec<usize> {
        let old: Vec<usize> = self
            .nearest
            .unlisted()
            .take_while(|&o| o < first_new)
            .filter(|o| !dirty.contains(o))
            .collect();
        if !self.numeric_inliers {
            return old;
        }
        // Every inlier cell is a finite number (`numeric_inliers`, and
        // `validate_batch` admits no other), so the hosts pack once here.
        let packed: Vec<(Vec<f64>, f64)> = added
            .iter()
            .chain(tightened)
            .map(|&g| {
                let row = pack_values(&self.original[g]).expect("inlier cells are finite numbers");
                (row, self.delta_eta(g))
            })
            .collect();
        let hosts: Vec<(&[f64], f64)> =
            packed.iter().map(|(row, d)| (row.as_slice(), *d)).collect();
        let (added, tightened) = hosts.split_at(added.len());
        let (saver, adjusted) = (&*self.saver, &self.adjusted);
        let verdicts = parallel_map(&old, workers, |&o| {
            let original = &self.original[o];
            // An overlay entry differs bit for bit; a cost needs a row
            // that differs under `Value`'s `!=`, not in a zero's sign.
            let cost = adjusted[o]
                .as_deref()
                .filter(|current| original != *current)
                .map(|current| saver.distance().dist(original, current));
            saver.outcome_may_change(original, cost, added, tightened)
        });
        old.into_iter()
            .zip(verdicts)
            .filter_map(|(o, stale)| stale.then_some(o))
            .collect()
    }

    /// A read-only view of the engine as it stands: see [`EngineView`].
    /// It clones chunk pointers and copies no row, so it costs O(n /
    /// chunk) pointer copies; the ingests after it copy only the table
    /// chunks they write that the view still holds. Taken between
    /// ingests only (the engine is never observable mid-ingest).
    pub fn view(&self) -> EngineView {
        EngineView {
            generation: self.generation,
            original: self.original.clone(),
            adjusted: self.adjusted.clone(),
            counts: self.counts.clone(),
            nearest: self.nearest.clone(),
            pending: self.pending.iter().copied().collect(),
            inliers: self.inliers.len(),
            state: OnceLock::new(),
        }
    }

    /// Captures the engine's complete logical state; see [`EngineState`].
    /// The same build as [`EngineView::state`], without the cache.
    /// Exported at ingest boundaries only, so every image satisfies the
    /// classification invariants [`ShardedEngine::restore_with_shards`]
    /// checks. The image is in global id order — independent of the
    /// shard count.
    pub fn export_state(&self) -> EngineState {
        self.view().build()
    }

    /// Rebuilds an engine from an exported [`EngineState`], partitioned
    /// across exactly `shards` shards — the image itself is
    /// shard-agnostic, so any count works and produces behaviorally
    /// identical results. Each shard's index is recomputed from the
    /// stored rows in global row order, and the `RSet` is built by
    /// merging every inlier, with the `δ_η` its list gives, into an
    /// empty one.
    ///
    /// A restored engine is *behaviorally identical* to the engine that
    /// exported the image: every subsequent [`ShardedEngine::ingest`]
    /// produces bit-identical reports and rows (the crash-equivalence
    /// suite in `disc-persist` pins this across fault-injected
    /// interruptions, and `sharded_equivalence` pins it across shard
    /// counts). That includes which outliers later ingests re-save: an
    /// outlier's `current` row is trusted as its save outcome, as the
    /// counts and `δ_η` lists are trusted, not re-derived.
    ///
    /// # Errors
    /// [`Error::State`] when the image is internally inconsistent: table
    /// lengths disagree, a row has the wrong arity or a non-finite
    /// numeric cell, a `δ_η` list is over-long or unsorted, the
    /// inlier marking contradicts the cached counts, or the pending set
    /// references inliers or out-of-range rows.
    ///
    /// # Panics
    /// Panics if `shards` is zero or if the schema arity differs from
    /// the saver's metric arity (same contract as
    /// [`ShardedEngine::with_shards`]).
    pub fn restore_with_shards(
        schema: Schema,
        saver: Box<dyn Saver>,
        state: EngineState,
        shards: usize,
    ) -> Result<ShardedEngine, Error> {
        let bad = |message: String| Err(Error::State { message });
        let n = state.original.len();
        if state.current.len() != n || state.counts.len() != n || state.nearest.len() != n {
            return bad(format!(
                "table lengths disagree: {} original, {} current, {} counts, {} nearest",
                n,
                state.current.len(),
                state.counts.len(),
                state.nearest.len()
            ));
        }
        let mut engine = ShardedEngine::with_shards(schema, saver, shards);
        let eta = engine.saver.constraints().eta;
        if let Err(e) = engine.validate_batch(&state.original) {
            return bad(format!("original rows invalid: {e}"));
        }
        if let Err(e) = engine.validate_batch(&state.current) {
            return bad(format!("current rows invalid: {e}"));
        }
        for (i, list) in state.nearest.iter().enumerate() {
            // Outlier rows (None) may legitimately carry an adjustment;
            // only inlier lists have shape constraints.
            let Some(list) = list else { continue };
            if list.len() > eta {
                return bad(format!(
                    "row {i}: δ_η list has {} entries, η is {eta}",
                    list.len()
                ));
            }
            if !list.windows(2).all(|w| w[0] <= w[1]) {
                return bad(format!("row {i}: δ_η list is not ascending"));
            }
        }
        for i in 0..n {
            let marked_inlier = state.nearest.get(i).is_some();
            if marked_inlier != (state.counts[i] >= eta) {
                return bad(format!(
                    "row {i}: inlier marking contradicts its count {} (η = {eta})",
                    state.counts[i]
                ));
            }
            if marked_inlier && state.current[i] != state.original[i] {
                return bad(format!("row {i}: an inlier carries an adjustment"));
            }
        }
        for &row in &state.pending {
            if row >= n {
                return bad(format!("pending row {row} out of range (n = {n})"));
            }
            if state.nearest.get(row).is_some() {
                return bad(format!("pending row {row} is an inlier"));
            }
        }

        // Rows go to their shards in global id order, so each shard's
        // local ids ascend with the global ones.
        let mut inliers = Vec::new();
        for (i, row) in state.original.iter().enumerate() {
            engine.shards[shard_of(i, shards)].push(i, row.clone());
            if state.nearest.get(i).is_some() {
                engine.numeric_inliers &= all_numeric(row);
                inliers.push(i);
            }
        }
        for (original, current) in state.original.into_iter().zip(state.current) {
            let adjusted = !bit_equal_row(&current, &original);
            engine.adjusted.push(adjusted.then(|| Arc::from(current)));
            engine.original.push(original);
        }
        for count in state.counts {
            engine.counts.push(count);
        }
        // A table collected from lists is only as wide as its longest
        // one; phase 3 grows lists in place up to η entries.
        engine.nearest = state.nearest;
        engine.nearest.widen(eta);
        engine.grow_rset(&inliers, &[]);
        engine.pending = state.pending.into_iter().collect();
        engine.generation = state.generation;
        Ok(engine)
    }
}

/// True when every cell of `row` is a number.
fn all_numeric(row: &[Value]) -> bool {
    row.iter().all(|v| v.as_num().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saver::SaverConfig;
    use crate::DistanceConstraints;
    use disc_distance::TupleDistance;

    fn engine(eps: f64, eta: usize) -> ShardedEngine {
        let saver = SaverConfig::new(
            DistanceConstraints::new(eps, eta),
            TupleDistance::numeric(2),
        )
        .build_approx()
        .unwrap();
        ShardedEngine::new(Schema::numeric(2), Box::new(saver))
    }

    fn engine_sharded(eps: f64, eta: usize, shards: usize) -> ShardedEngine {
        let saver = SaverConfig::new(
            DistanceConstraints::new(eps, eta),
            TupleDistance::numeric(2),
        )
        .build_approx()
        .unwrap();
        ShardedEngine::with_shards(Schema::numeric(2), Box::new(saver), shards)
    }

    fn num(xs: &[[f64; 2]]) -> Vec<Vec<Value>> {
        xs.iter()
            .map(|p| p.iter().map(|&x| Value::Num(x)).collect())
            .collect()
    }

    fn grid_rows() -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                rows.push(vec![Value::Num(0.2 * i as f64), Value::Num(0.2 * j as f64)]);
            }
        }
        rows
    }

    #[test]
    fn single_batch_matches_batch_pipeline() {
        let mut rows = grid_rows();
        rows.push(vec![Value::Num(0.5), Value::Num(30.0)]);
        let mut eng = engine(0.5, 4);
        let report = eng.ingest(rows.clone()).unwrap();
        assert_eq!(report.outliers, vec![36]);
        assert_eq!(report.saved.len(), 1);
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let mut ds = Dataset::from_rows(vec!["x".into(), "y".into()], rows);
        let batch = saver.save_all(&mut ds);
        assert_eq!(report.saved, batch.saved);
        assert_eq!(eng.dataset().rows(), ds.rows());
    }

    #[test]
    fn sharded_runs_match_single_shard_bit_for_bit() {
        let mut rows = grid_rows();
        rows.push(vec![Value::Num(0.5), Value::Num(30.0)]);
        rows.push(vec![Value::Num(-20.0), Value::Num(0.4)]);
        let mut reference = engine_sharded(0.5, 4, 1);
        let first = reference.ingest(rows[..20].to_vec()).unwrap();
        let second = reference.ingest(rows[20..].to_vec()).unwrap();
        for shards in [2, 3, 7] {
            let mut eng = engine_sharded(0.5, 4, shards);
            assert_eq!(eng.shards(), shards);
            assert_eq!(
                eng.ingest(rows[..20].to_vec()).unwrap(),
                first,
                "S={shards}"
            );
            assert_eq!(
                eng.ingest(rows[20..].to_vec()).unwrap(),
                second,
                "S={shards}"
            );
            assert_eq!(eng.dataset().rows(), reference.dataset().rows());
            assert_eq!(eng.view().outliers(), reference.view().outliers());
            assert_eq!(eng.export_state(), reference.export_state());
        }
    }

    #[test]
    fn shards_cover_all_rows() {
        let mut eng = engine_sharded(0.5, 4, 3);
        eng.ingest(grid_rows()).unwrap();
        let rows: Vec<usize> = eng.shards.iter().map(|s| s.globals.len()).collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().sum::<usize>(), 36);
        assert!(rows.iter().all(|&r| r > 0), "{rows:?}");
        // Every shard answered the 36 per-new-row range sub-queries and
        // nothing else: every new inlier's hits settle its list, so no
        // η-NN fallback fires.
        for shard in &eng.shards {
            let activity = shard.index.activity();
            assert_eq!(activity.queries, 36, "{activity:?}");
            assert!(activity.rows_visited > 0, "{activity:?}");
        }
    }

    /// The hash partition balances rows and query work across shards,
    /// and fanning out shrinks the per-thread work: over 200 ε-range
    /// queries, the busiest of 4 shards visits fewer rows than 1 shard
    /// does. At 6,000 rows every shard's index is past its brute scan.
    #[test]
    fn fan_out_balances_rows_and_shrinks_per_shard_work() {
        let mut ds = disc_data::ClusterSpec::new(6000, 3, 4, 17).generate();
        disc_data::ErrorInjector::new(300, 60, 19).inject(&mut ds);
        // (rows held, rows visited by the queries) per shard.
        let per_shard = |shards: usize| -> (Vec<u64>, Vec<u64>) {
            let saver =
                SaverConfig::new(DistanceConstraints::new(2.5, 5), TupleDistance::numeric(3))
                    .kappa(2)
                    .build_approx()
                    .unwrap();
            let mut eng = ShardedEngine::with_shards(Schema::numeric(3), Box::new(saver), shards);
            eng.ingest(ds.rows().to_vec()).unwrap();
            let visited = |eng: &ShardedEngine| -> Vec<u64> {
                let activity = eng.shards.iter().map(|s| s.index.activity());
                activity.map(|a| a.rows_visited).collect()
            };
            let before = visited(&eng);
            for row in &ds.rows()[..200] {
                for shard in &eng.shards {
                    shard.range(row, 2.5);
                }
            }
            let rows = eng.shards.iter().map(|s| s.globals.len() as u64);
            let after = visited(&eng).into_iter().zip(before);
            (rows.collect(), after.map(|(a, b)| a - b).collect())
        };
        let spread =
            |xs: &[u64]| *xs.iter().max().unwrap() as f64 / *xs.iter().min().unwrap() as f64;
        let (rows, visited) = per_shard(4);
        assert!(spread(&rows) < 2.0, "shard rows {rows:?}");
        assert!(spread(&visited) < 2.0, "rows visited per shard {visited:?}");
        let (busiest, single) = (*visited.iter().max().unwrap(), per_shard(1).1[0]);
        assert!(
            busiest < single,
            "busiest shard {busiest}, one shard {single}"
        );
    }

    /// Ingests from `MIN_THREADED_ROWS` rows on fan out on the saver's
    /// workers and smaller ones start no thread, with reports and state
    /// equal at every worker and shard count.
    #[test]
    fn only_ingests_past_the_threshold_start_threads() {
        let mut ds = disc_data::ClusterSpec::new(3000, 3, 3, 11)
            .spread(1.0)
            .generate();
        disc_data::ErrorInjector::new(60, 40, 13).inject(&mut ds);
        let (bulk, tail) = ds.rows().split_at(3000);
        let started = || crate::parallel::THREADS_STARTED.with(std::cell::Cell::get);
        let run = |workers: usize, shards: usize| {
            let saver =
                SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(3))
                    .kappa(2)
                    .parallelism(crate::Parallelism(workers))
                    .build_approx()
                    .unwrap();
            let mut eng = ShardedEngine::with_shards(Schema::numeric(3), Box::new(saver), shards);
            let before = started();
            let mut reports: Vec<SaveReport> = bulk
                .chunks(4 * MIN_THREADED_ROWS)
                .map(|batch| eng.ingest(batch.to_vec()).unwrap())
                .collect();
            let threads = started() - before;
            for batch in tail.chunks(8) {
                let before = started();
                reports.push(eng.ingest(batch.to_vec()).unwrap());
                assert_eq!(
                    started(),
                    before,
                    "8-row ingest, {workers} workers, S={shards}"
                );
            }
            (reports, eng.export_state(), threads)
        };
        let (reports, state, threads) = run(1, 1);
        assert_eq!(threads, 0);
        for (workers, shards) in [(1, 3), (2, 1), (2, 3), (4, 1), (4, 3)] {
            let got = run(workers, shards);
            assert!(got.0 == reports, "reports, {workers} workers, S={shards}");
            assert!(got.1 == state, "state, {workers} workers, S={shards}");
            assert_eq!(got.2 > 0, workers > 1, "{workers} workers, S={shards}");
        }
    }

    #[test]
    fn counts_update_incrementally() {
        let mut eng = engine(1.0, 3);
        eng.ingest(num(&[[0.0, 0.0], [0.5, 0.0]])).unwrap();
        assert_eq!(eng.counts[0], 2);
        assert!(!eng.view().is_inlier(0));
        eng.ingest(num(&[[0.0, 0.5]])).unwrap();
        assert_eq!(eng.counts[0], 3);
        assert!(eng.view().is_inlier(0));
        assert!(eng.view().is_inlier(2));
    }

    #[test]
    fn promotion_reverts_adjustments() {
        // A dense cluster plus one tuple just outside it: the outlier is
        // saved (adjusted). Then enough neighbors arrive around its
        // ORIGINAL location to promote it — the adjustment must revert.
        let mut eng = engine(0.5, 4);
        let mut rows = grid_rows();
        rows.push(vec![Value::Num(5.0), Value::Num(5.0)]);
        eng.ingest(rows).unwrap();
        assert!(!eng.view().is_inlier(36));
        let adjusted = eng.dataset().row(36).to_vec();
        assert_ne!(adjusted, eng.original[36], "outlier should have been saved");
        eng.ingest(num(&[[5.1, 5.0], [4.9, 5.0], [5.0, 5.1]]))
            .unwrap();
        assert!(
            eng.view().is_inlier(36),
            "new neighbors promote the old outlier"
        );
        assert_eq!(eng.dataset().row(36), &eng.original[36]);
    }

    #[test]
    fn arity_mismatch_rejected_without_mutation() {
        let mut eng = engine(0.5, 2);
        let err = eng
            .ingest(vec![vec![Value::Num(0.0)]])
            .expect_err("short row must be rejected");
        assert!(matches!(
            err,
            Error::ArityMismatch {
                expected: 2,
                got: 1,
                row: 0
            }
        ));
        assert!(eng.is_empty());
    }

    #[test]
    fn non_finite_cell_rejected_without_mutation() {
        let mut eng = engine(0.5, 2);
        eng.ingest(num(&[[0.0, 0.0]])).unwrap();
        let err = eng
            .ingest(vec![vec![Value::Num(1.0), Value::Num(f64::NAN)]])
            .expect_err("NaN cell must be rejected");
        assert!(matches!(
            err,
            Error::NonNumeric(NonNumericCell { row: 0, attr: 1 })
        ));
        assert_eq!(eng.len(), 1, "rejected batch leaves the engine untouched");
    }

    #[test]
    fn clean_second_batch_is_all_cache_hits() {
        let mut eng = engine(0.5, 4);
        eng.ingest(grid_rows()).unwrap();
        let counts: Vec<usize> = eng.counts.iter().copied().collect();
        // A second batch far from the grid: no old count changes.
        let report = eng.ingest(num(&[[100.0, 100.0]])).unwrap();
        assert_eq!(report.outliers, vec![36]);
        assert_eq!(
            eng.counts.iter().take(36).copied().collect::<Vec<_>>(),
            counts,
            "untouched rows keep cached counts"
        );
        // The counter is process-global and other tests ingest
        // concurrently, so the delta is exact only in isolation; all 36
        // untouched rows must be in it regardless.
        let hits = report.stats.counters.get("engine.cache_hits");
        assert!(hits >= 36, "cache hits {hits} < 36 untouched rows");
    }

    #[test]
    fn empty_ingest_is_a_no_op() {
        let mut eng = engine(0.5, 4);
        eng.ingest(grid_rows()).unwrap();
        let report = eng.ingest(Vec::new()).unwrap();
        assert!(report.outliers.is_empty());
        assert!(!report.degraded);
    }

    #[test]
    fn generation_counts_successful_ingests_only() {
        let mut eng = engine(0.5, 2);
        assert_eq!(eng.generation(), 0);
        eng.ingest(num(&[[0.0, 0.0]])).unwrap();
        eng.ingest(Vec::new()).unwrap();
        assert_eq!(eng.generation(), 2);
        eng.ingest(vec![vec![Value::Num(1.0)]])
            .expect_err("wrong arity");
        assert_eq!(eng.generation(), 2, "rejected batches don't advance");
    }

    #[test]
    fn export_restore_continues_bit_identically() {
        let mut rows = grid_rows();
        rows.push(vec![Value::Num(0.5), Value::Num(30.0)]);
        rows.push(vec![Value::Num(-20.0), Value::Num(0.4)]);

        // Uninterrupted reference.
        let mut reference = engine(0.5, 4);
        reference.ingest(rows[..20].to_vec()).unwrap();
        let ref_report = reference.ingest(rows[20..].to_vec()).unwrap();

        // Export after the first ingest, restore, resume.
        let mut eng = engine(0.5, 4);
        eng.ingest(rows[..20].to_vec()).unwrap();
        let state = eng.export_state();
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let shards = shard::default_shards();
        let mut restored = ShardedEngine::restore_with_shards(
            Schema::numeric(2),
            Box::new(saver),
            state.clone(),
            shards,
        )
        .unwrap();
        assert_eq!(restored.generation(), 1);
        assert_eq!(restored.export_state(), state, "export ∘ restore = id");
        let report = restored.ingest(rows[20..].to_vec()).unwrap();

        assert_eq!(report, ref_report);
        assert_eq!(restored.dataset().rows(), reference.dataset().rows());
        assert_eq!(restored.view().outliers(), reference.view().outliers());
        assert_eq!(restored.generation(), reference.generation());
    }

    #[test]
    fn restore_with_different_shard_count_is_behaviorally_identical() {
        let mut rows = grid_rows();
        rows.push(vec![Value::Num(0.5), Value::Num(30.0)]);
        rows.push(vec![Value::Num(-20.0), Value::Num(0.4)]);
        let mut reference = engine_sharded(0.5, 4, 1);
        reference.ingest(rows[..20].to_vec()).unwrap();
        let state = reference.export_state();
        let ref_report = reference.ingest(rows[20..].to_vec()).unwrap();
        for shards in [1, 2, 5] {
            let saver =
                SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
                    .build_approx()
                    .unwrap();
            let mut restored = ShardedEngine::restore_with_shards(
                Schema::numeric(2),
                Box::new(saver),
                state.clone(),
                shards,
            )
            .unwrap();
            assert_eq!(restored.export_state(), state, "S={shards}");
            let report = restored.ingest(rows[20..].to_vec()).unwrap();
            assert_eq!(report, ref_report, "S={shards}");
            assert_eq!(restored.dataset().rows(), reference.dataset().rows());
        }
    }

    #[test]
    fn a_non_number_in_an_inlier_resaves_every_old_outlier() {
        // L∞, m = 3, κ = 2, ε = 1, η = 3, one row per ingest. When row 9
        // (2, ∅, 1) joins r, its Null reorders a cost tie for row 1 (see
        // `approx.rs`), which no Prop. 5 host explains; from then on every
        // old outlier is re-saved whenever r grows, even by a far cluster
        // that hosts none of them, by restored engines too, and each
        // prefix matches batch.
        let config = SaverConfig::new(
            DistanceConstraints::new(1.0, 3),
            TupleDistance::new(
                vec![disc_distance::Metric::Absolute; 3],
                disc_distance::Norm::LInf,
            ),
        )
        .kappa(2)
        .parallelism(crate::Parallelism(1));
        let build = || Box::new(config.clone().build_approx().unwrap());
        let num = |xs: [f64; 3]| xs.iter().map(|&x| Value::Num(x)).collect::<Vec<_>>();
        let null_in_1 = |a: f64, c: f64| vec![Value::Num(a), Value::Null, Value::Num(c)];
        let rows = vec![
            num([2., 1., 2.]),
            num([0., 0., 0.]),
            num([1., 0., 2.]),
            num([2., 1., 1.]),
            num([2., 1., 2.]),
            num([0., 2., 0.]),
            null_in_1(0., 2.),
            num([2., 1., 1.]),
            num([2., 1., 2.]),
            null_in_1(2., 1.),
            num([2., 1., 1.]),
            num([9., 9., 9.]),
            num([9., 9., 9.]),
            num([9., 9., 9.]),
        ];
        let mut eng = ShardedEngine::with_shards(Schema::numeric(3), build(), 1);
        for (k, row) in rows.iter().enumerate() {
            let state = eng.export_state();
            let report = eng.ingest(vec![row.clone()]).unwrap();
            let mut ds = Dataset::new(Schema::numeric(3), rows[..=k].to_vec());
            build().save_all(&mut ds);
            assert_eq!(eng.dataset().rows(), ds.rows(), "after ingest {k}");
            if [9, 10, 13].contains(&k) {
                assert_eq!(report.outliers, vec![1, 5, 6], "r grew at ingest {k}");
            }
            let mut restored =
                ShardedEngine::restore_with_shards(Schema::numeric(3), build(), state, 2).unwrap();
            assert_eq!(restored.ingest(vec![row.clone()]).unwrap(), report);
        }
    }

    /// A decoded snapshot lays its lists out only as wide as the longest
    /// (`iter().collect()`); restore must give them η slots before phase 3
    /// grows them in place, or a growing list spills into the next row's.
    #[test]
    fn restored_short_lists_grow_like_the_uninterrupted_engine() {
        // Two far-apart plus shapes: only the centres (rows 0 and 1) are
        // inliers, so each lists 2 < η = 4 inliers.
        let first = num(&[
            [0.0, 0.0],
            [10.0, 10.0],
            [0.4, 0.0],
            [-0.4, 0.0],
            [0.0, 0.4],
            [0.0, -0.4],
            [10.4, 10.0],
            [9.6, 10.0],
            [10.0, 10.4],
            [10.0, 9.6],
        ]);
        // Each new row is a fresh inlier next to a centre, lengthening
        // both centres' lists to η.
        let second = num(&[[0.2, 0.2], [-0.2, -0.2], [10.2, 10.2], [9.8, 9.8]]);
        let mut reference = engine(0.5, 4);
        reference.ingest(first).unwrap();
        let mut state = reference.export_state();
        assert_eq!(reference.view().outliers(), (2..10).collect::<Vec<_>>());
        assert_eq!(state.nearest.get(0).map(<[f64]>::len), Some(2));
        state.nearest = state.nearest.iter().collect();
        let report = reference.ingest(second.clone()).unwrap();
        assert_eq!(
            reference.export_state().nearest.get(0).map(<[f64]>::len),
            Some(4)
        );
        for shards in [1, 3] {
            let saver =
                SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
                    .build_approx()
                    .unwrap();
            let mut restored = ShardedEngine::restore_with_shards(
                Schema::numeric(2),
                Box::new(saver),
                state.clone(),
                shards,
            )
            .unwrap();
            assert_eq!(
                restored.ingest(second.clone()).unwrap(),
                report,
                "S={shards}"
            );
            assert_eq!(
                restored.export_state(),
                reference.export_state(),
                "S={shards}"
            );
        }
    }

    fn image() -> EngineState {
        EngineState {
            generation: 3,
            original: vec![
                vec![Value::Num(0.0)],
                vec![Value::Num(1.0)],
                vec![Value::Num(9.0)],
            ],
            current: vec![
                vec![Value::Num(0.0)],
                vec![Value::Num(1.0)],
                vec![Value::Num(1.5)], // saved outlier: adjusted output
            ],
            counts: vec![2, 2, 1],
            nearest: [Some(&[1.0][..]), Some(&[1.0][..]), None]
                .into_iter()
                .collect(),
            pending: vec![],
        }
    }

    /// A view of an engine restored from `image()`.
    fn image_view() -> EngineView {
        let saver = SaverConfig::new(DistanceConstraints::new(1.5, 2), TupleDistance::numeric(1))
            .build_approx()
            .unwrap();
        ShardedEngine::restore_with_shards(Schema::numeric(1), Box::new(saver), image(), 1)
            .unwrap()
            .view()
    }

    #[test]
    fn view_reads_answer_from_the_image() {
        let view = image_view();
        assert_eq!((view.len(), view.generation()), (3, 3));
        assert!(view.is_inlier(0));
        assert!(!view.is_inlier(2));
        assert_eq!(view.neighbor_count(2), Some(1));
        assert_eq!(view.current_row(2), Some(&[Value::Num(1.5)][..]));
        assert_eq!(view.original_row(2), Some(&[Value::Num(9.0)][..]));
        assert_eq!(view.current_row(1), Some(&[Value::Num(1.0)][..]));
        assert_eq!(view.outliers(), vec![2]);
        assert_eq!((view.inlier_count(), view.outlier_count()), (2, 1));
        assert_eq!(*view.state(), image());
    }

    #[test]
    fn out_of_range_rows_answer_by_convention() {
        let view = image_view();
        assert!(!view.is_inlier(99));
        assert_eq!(view.neighbor_count(99), None);
        assert_eq!(view.current_row(99), None);
        assert_eq!(view.original_row(99), None);
    }

    #[test]
    fn restore_rejects_inconsistent_images() {
        let mut eng = engine(0.5, 4);
        let mut rows = grid_rows();
        rows.push(vec![Value::Num(0.5), Value::Num(30.0)]);
        eng.ingest(rows).unwrap();
        let good = eng.export_state();
        let restore = |state: EngineState| {
            let s = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
                .build_approx()
                .unwrap();
            let shards = shard::default_shards();
            ShardedEngine::restore_with_shards(Schema::numeric(2), Box::new(s), state, shards)
                .map(|_| ())
        };

        let mut broken = vec![good.clone(); 4];
        broken[0].counts.pop();
        broken[1].nearest.set(0, None); // contradicts its ≥ η count
        broken[2].pending = vec![good.original.len() + 7];
        let mut list = good.nearest.get(0).unwrap().to_vec();
        list.reverse(); // no longer ascending
        broken[3].nearest.set(0, Some(&list));
        for (k, broken) in broken.into_iter().enumerate() {
            let err = restore(broken).unwrap_err();
            assert!(matches!(err, Error::State { .. }), "image {k}: {err}");
        }

        // The untouched image restores cleanly.
        assert!(restore(good).is_ok());
    }
}
