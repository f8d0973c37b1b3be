//! Growable neighbor index for streaming ingest.
//!
//! The static backends borrow an immutable row slice, which is the right
//! shape while a batch is being saved but rules out appending tuples. The
//! [`DynamicIndex`] owns its rows and supports [`insert`]/[`extend`]
//! (via [`DynamicNeighborIndex`]) while answering the same
//! [`NeighborIndex`] queries with the same results and the same
//! observability counters as the static backend it mirrors:
//!
//! * **brute** — append is free; used below the auto-index threshold;
//! * **grid** — cell membership is per-row, so append updates one cell
//!   and the per-dimension key bounds (the norm-aware k-NN exhaustion
//!   bound is recomputed in `O(m)`);
//! * **vp** — the tree is built over a prefix of the rows; appends land
//!   in a tail buffer that queries scan linearly, and the tree is rebuilt
//!   over everything once the buffer exceeds `max(64, len/4)` rows.
//!
//! Backend choice mirrors [`crate::with_auto_index`]: a brute scan
//! up to 512 rows, then a grid for low-dimensional finite-numeric data,
//! otherwise a VP-tree. Upgrades and migrations (e.g. a non-numeric row
//! arriving at a grid) count on `index.dynamic.rebuilds`.
//!
//! [`insert`]: DynamicNeighborIndex::insert
//! [`extend`]: DynamicNeighborIndex::extend

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use disc_distance::{PackedMatrix, PackedScan, TupleDistance, Value};
use disc_obs::counters;

use crate::grid::{cell_key, for_cell_candidates, norm_diameter, CellKey};
use crate::vptree::VpNodes;
use crate::{sort_hits, NeighborIndex};

/// A [`NeighborIndex`] that additionally supports appending rows.
///
/// Row ids are assigned in insertion order, so queries issued after an
/// insert see the new row under the id `insert` returned. Implementations
/// must answer queries identically to a freshly built static index over
/// the same rows.
pub trait DynamicNeighborIndex: NeighborIndex {
    /// Appends one row and returns its id (`== len()` before the call).
    fn insert(&mut self, row: Vec<Value>) -> u32;

    /// Appends a batch of rows in order; returns the id of the first (or
    /// `None` for an empty batch).
    fn extend(&mut self, rows: Vec<Vec<Value>>) -> Option<u32> {
        let mut first = None;
        for row in rows {
            let id = self.insert(row);
            first.get_or_insert(id);
        }
        first
    }
}

/// Rows stay on the brute-force scan until the auto-index threshold
/// (mirrors `with_auto_index`).
const BRUTE_MAX: usize = 512;

/// The grid backend applies up to this arity (mirrors
/// `with_auto_index`).
const GRID_MAX_ARITY: usize = 4;

enum Backend {
    Brute,
    Grid {
        cell_width: f64,
        cells: HashMap<CellKey, Vec<u32>>,
        /// Per-dimension min/max occupied cell keys, for the norm-aware
        /// exhaustion bound (`lo[d] > hi[d]` iff the grid is empty).
        lo: Vec<i64>,
        hi: Vec<i64>,
        /// Upper bound on any point-to-point distance; see
        /// [`GridIndex`](crate::GridIndex).
        max_dist: f64,
    },
    Vp {
        /// Tree over `rows[..nodes.len()]`; the tail is scanned linearly.
        nodes: VpNodes,
    },
}

/// Cumulative per-instance effort, read via [`DynamicIndex::activity`].
///
/// The global `index.*` counters aggregate across every index in the
/// process; these cells attribute the same events to one instance so a
/// sharded engine can report per-shard balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexActivity {
    /// Range + k-NN queries answered (a grid k-NN's internal
    /// expanding-radius probes count as range queries here too, exactly
    /// as they do on the global counters).
    pub queries: u64,
    /// Candidate rows visited across all queries (same accounting as the
    /// per-backend `*.rows_visited` counters).
    pub rows_visited: u64,
    /// Full structure rebuilds (upgrades, migrations, VP-tree
    /// tail-buffer rebuilds).
    pub rebuilds: u64,
}

/// Relaxed atomics so read-only queries (`&self`) can record effort.
#[derive(Default)]
struct ActivityCells {
    queries: AtomicU64,
    rows_visited: AtomicU64,
    rebuilds: AtomicU64,
}

impl ActivityCells {
    fn record_query(&self, rows_visited: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.rows_visited.fetch_add(rows_visited, Ordering::Relaxed);
    }
}

/// An owned, growable neighbor index; see the [module docs](self).
pub struct DynamicIndex {
    rows: Vec<Vec<Value>>,
    dist: TupleDistance,
    eps_hint: f64,
    backend: Backend,
    /// Packed `f64` layout mirroring `rows` (appends go to both), kept
    /// across backend upgrades; `None` when the metric has no packed
    /// layout.
    packed: Option<PackedMatrix>,
    activity: ActivityCells,
}

impl DynamicIndex {
    /// An empty index. `eps_hint` is the expected query radius (it sizes
    /// grid cells, like the `eps_hint` of [`crate::with_auto_index`]).
    pub fn new(dist: TupleDistance, eps_hint: f64) -> Self {
        let packed = PackedMatrix::build(&[], &dist);
        DynamicIndex {
            rows: Vec::new(),
            dist,
            eps_hint,
            backend: Backend::Brute,
            packed,
            activity: ActivityCells::default(),
        }
    }

    /// An index pre-loaded with `rows` (equivalent to `new` + `extend`,
    /// without intermediate rebuilds).
    pub fn from_rows(rows: Vec<Vec<Value>>, dist: TupleDistance, eps_hint: f64) -> Self {
        let packed = PackedMatrix::build(&rows, &dist);
        let mut idx = DynamicIndex {
            rows,
            dist,
            eps_hint,
            backend: Backend::Brute,
            packed,
            activity: ActivityCells::default(),
        };
        if idx.rows.len() > BRUTE_MAX {
            idx.backend = idx.build_backend();
        }
        idx
    }

    fn scan<'q>(&'q self, query: &'q [Value]) -> PackedScan<'q> {
        PackedScan::new(self.packed.as_ref(), &self.rows, &self.dist, query)
    }

    /// The indexed rows, in insertion order.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// The tuple metric in use.
    pub fn distance(&self) -> &TupleDistance {
        &self.dist
    }

    /// Which backend currently serves queries (`"brute"`, `"grid"`, or
    /// `"vp"`) — diagnostics only.
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            Backend::Brute => "brute",
            Backend::Grid { .. } => "grid",
            Backend::Vp { .. } => "vp",
        }
    }

    /// Cumulative effort expended by *this instance* (the global
    /// `index.*` counters sum the same events process-wide).
    pub fn activity(&self) -> IndexActivity {
        IndexActivity {
            queries: self.activity.queries.load(Ordering::Relaxed),
            rows_visited: self.activity.rows_visited.load(Ordering::Relaxed),
            rebuilds: self.activity.rebuilds.load(Ordering::Relaxed),
        }
    }

    /// Picks and builds the non-brute backend for the current rows.
    fn build_backend(&self) -> Backend {
        if self.dist.arity() <= GRID_MAX_ARITY {
            if let Some(grid) = self.try_build_grid() {
                return grid;
            }
        }
        Backend::Vp {
            nodes: VpNodes::build(&self.rows, &self.dist),
        }
    }

    /// Grid over all current rows, or `None` if any row has a coordinate
    /// that is not a finite number.
    fn try_build_grid(&self) -> Option<Backend> {
        let m = self.dist.arity();
        let w = self.eps_hint.max(1e-9);
        let mut cells: HashMap<CellKey, Vec<u32>> = HashMap::new();
        let mut lo = vec![i64::MAX; m];
        let mut hi = vec![i64::MIN; m];
        for (i, row) in self.rows.iter().enumerate() {
            let key = cell_key(row, w)?;
            for d in 0..m {
                lo[d] = lo[d].min(key[d]);
                hi[d] = hi[d].max(key[d]);
            }
            cells.entry(key).or_default().push(i as u32);
        }
        let max_dist = grid_max_dist(&lo, &hi, w, &self.dist);
        Some(Backend::Grid {
            cell_width: w,
            cells,
            lo,
            hi,
            max_dist,
        })
    }

    /// Post-insert maintenance: upgrade off the brute scan past the
    /// threshold, rebuild the VP-tree when the tail buffer is too large.
    fn maintain(&mut self) {
        match &mut self.backend {
            Backend::Brute => {
                if self.rows.len() > BRUTE_MAX {
                    self.backend = self.build_backend();
                    counters::DYNAMIC_REBUILDS.incr();
                    self.activity.rebuilds.fetch_add(1, Ordering::Relaxed);
                }
            }
            Backend::Grid { .. } => {}
            Backend::Vp { nodes } => {
                let buffered = self.rows.len() - nodes.len();
                if buffered > (self.rows.len() / 4).max(64) {
                    *nodes = VpNodes::build(&self.rows, &self.dist);
                    counters::DYNAMIC_REBUILDS.incr();
                    self.activity.rebuilds.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// The grid's norm-aware k-NN exhaustion bound over the occupied key box
/// `[lo, hi]` (mirrors the static [`GridIndex`](crate::GridIndex)).
fn grid_max_dist(lo: &[i64], hi: &[i64], cell_width: f64, dist: &TupleDistance) -> f64 {
    let mut span = 0.0f64;
    for (l, h) in lo.iter().zip(hi) {
        if l <= h {
            span = span.max((h - l + 2) as f64 * cell_width);
        }
    }
    norm_diameter(span, lo.len(), dist) + cell_width
}

impl DynamicNeighborIndex for DynamicIndex {
    fn insert(&mut self, row: Vec<Value>) -> u32 {
        let id = self.rows.len() as u32;
        let mut migrate_to_vp = false;
        if let Backend::Grid {
            cell_width,
            cells,
            lo,
            hi,
            max_dist,
        } = &mut self.backend
        {
            match cell_key(&row, *cell_width) {
                Some(key) => {
                    for d in 0..key.len() {
                        lo[d] = lo[d].min(key[d]);
                        hi[d] = hi[d].max(key[d]);
                    }
                    cells.entry(key).or_default().push(id);
                    *max_dist = grid_max_dist(lo, hi, *cell_width, &self.dist);
                }
                // The new row has no grid cell — fall back to the
                // metric-only tree, as the auto-index does at build time.
                None => migrate_to_vp = true,
            }
        }
        if let Some(packed) = &mut self.packed {
            packed.push_row(&row);
        }
        self.rows.push(row);
        if migrate_to_vp {
            self.backend = Backend::Vp {
                nodes: VpNodes::build(&self.rows, &self.dist),
            };
            counters::DYNAMIC_REBUILDS.incr();
            self.activity.rebuilds.fetch_add(1, Ordering::Relaxed);
        } else {
            self.maintain();
        }
        id
    }
}

impl NeighborIndex for DynamicIndex {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn range(&self, query: &[Value], eps: f64) -> Vec<(u32, f64)> {
        let mut scan = self.scan(query);
        match &self.backend {
            Backend::Brute => {
                counters::BRUTE_RANGE_QUERIES.incr();
                counters::BRUTE_ROWS_VISITED.add(self.rows.len() as u64);
                self.activity.record_query(self.rows.len() as u64);
                let mut hits = Vec::new();
                for i in 0..self.rows.len() {
                    if let Some(d) = scan.dist_within(i as u32, eps) {
                        hits.push((i as u32, d));
                    }
                }
                hits
            }
            Backend::Grid {
                cell_width, cells, ..
            } => {
                counters::GRID_RANGE_QUERIES.incr();
                let radius_cells = (eps / cell_width).ceil() as i64 + 1;
                let m = self.dist.arity();
                let mut hits = Vec::new();
                let mut visited = 0u64;
                for_cell_candidates(cells, m, *cell_width, query, radius_cells, |id| {
                    visited += 1;
                    if let Some(d) = scan.dist_within(id, eps) {
                        hits.push((id, d));
                    }
                });
                counters::GRID_ROWS_VISITED.add(visited);
                self.activity.record_query(visited);
                hits
            }
            Backend::Vp { nodes } => {
                counters::VPTREE_RANGE_QUERIES.incr();
                let mut hits = Vec::new();
                let mut visited = 0u64;
                nodes.range_into(&mut scan, eps, &mut hits, &mut visited);
                for i in nodes.len()..self.rows.len() {
                    visited += 1;
                    if let Some(d) = scan.dist_within(i as u32, eps) {
                        hits.push((i as u32, d));
                    }
                }
                counters::VPTREE_ROWS_VISITED.add(visited);
                self.activity.record_query(visited);
                hits
            }
        }
    }

    fn knn(&self, query: &[Value], k: usize) -> Vec<(u32, f64)> {
        if k == 0 || self.rows.is_empty() {
            return Vec::new();
        }
        match &self.backend {
            Backend::Brute => {
                counters::BRUTE_KNN_QUERIES.incr();
                counters::BRUTE_ROWS_VISITED.add(self.rows.len() as u64);
                self.activity.record_query(self.rows.len() as u64);
                let mut scan = self.scan(query);
                let mut best = Vec::with_capacity(k + 1);
                merge_knn(&mut best, k, 0..self.rows.len() as u32, &mut scan);
                sort_hits(&mut best);
                best
            }
            Backend::Grid {
                cell_width,
                max_dist,
                ..
            } => {
                counters::GRID_KNN_QUERIES.incr();
                // Row visits are recorded by the internal `range` calls.
                self.activity.record_query(0);
                // Expanding-radius search, identical to the static grid:
                // grow the ball until at least k hits are found *and* the
                // k-th distance is covered by the scanned radius.
                let mut eps = *cell_width;
                loop {
                    let mut hits = self.range(query, eps);
                    if hits.len() >= k {
                        sort_hits(&mut hits);
                        if hits[k - 1].1 <= eps {
                            hits.truncate(k);
                            return hits;
                        }
                    }
                    if eps > *max_dist {
                        let anchor = self.dist.dist(query, &self.rows[0]);
                        let mut hits = self.range(query, anchor + max_dist);
                        sort_hits(&mut hits);
                        hits.truncate(k);
                        return hits;
                    }
                    eps *= 2.0;
                }
            }
            Backend::Vp { nodes } => {
                counters::VPTREE_KNN_QUERIES.incr();
                let mut scan = self.scan(query);
                let mut best = Vec::with_capacity(k + 1);
                let mut visited = 0u64;
                nodes.knn_into(&mut scan, k, &mut best, &mut visited);
                let tail = nodes.len() as u32..self.rows.len() as u32;
                visited += (self.rows.len() - nodes.len()) as u64;
                merge_knn(&mut best, k, tail, &mut scan);
                counters::VPTREE_ROWS_VISITED.add(visited);
                self.activity.record_query(visited);
                sort_hits(&mut best);
                best
            }
        }
    }
}

/// Merges the rows named by `ids` into the sorted k-best candidate list
/// `best` (ascending by distance, ties by id), using the incumbent k-th
/// distance as an early-exit threshold.
fn merge_knn(
    best: &mut Vec<(u32, f64)>,
    k: usize,
    ids: impl Iterator<Item = u32>,
    scan: &mut PackedScan<'_>,
) {
    for i in ids {
        let worst = if best.len() == k {
            best[k - 1].1
        } else {
            f64::INFINITY
        };
        if let Some(d) = scan.dist_within(i, worst) {
            let pos = best
                .binary_search_by(|p| {
                    p.1.partial_cmp(&d)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(p.0.cmp(&i))
                })
                .unwrap_or_else(|e| e);
            best.insert(pos, (i, d));
            if best.len() > k {
                best.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceIndex;

    fn scatter(n: usize, m: usize, seed: u64) -> Vec<Vec<Value>> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        Value::Num(((state >> 33) % 1000) as f64 / 50.0)
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_matches_brute(idx: &DynamicIndex, data: &[Vec<Value>], queries: &[Vec<Value>]) {
        let brute = BruteForceIndex::new(data, idx.distance().clone());
        for query in queries {
            for eps in [0.3, 2.0, 10.0] {
                let mut a = idx.range(query, eps);
                let mut b = brute.range(query, eps);
                sort_hits(&mut a);
                sort_hits(&mut b);
                assert_eq!(a, b, "range eps={eps} backend={}", idx.backend_name());
            }
            for k in [1, 5, 23] {
                let a = idx.knn(query, k);
                let b = brute.knn(query, k);
                assert_eq!(a, b, "knn k={k} backend={}", idx.backend_name());
            }
        }
    }

    #[test]
    fn brute_stage_matches_static() {
        let data = scatter(100, 2, 7);
        let mut idx = DynamicIndex::new(TupleDistance::numeric(2), 1.0);
        for row in &data {
            idx.insert(row.clone());
        }
        assert_eq!(idx.backend_name(), "brute");
        assert_matches_brute(&idx, &data, &scatter(5, 2, 99));
    }

    #[test]
    fn upgrades_to_grid_and_matches() {
        let data = scatter(700, 2, 11);
        let mut idx = DynamicIndex::new(TupleDistance::numeric(2), 1.0);
        for row in &data {
            idx.insert(row.clone());
        }
        assert_eq!(idx.backend_name(), "grid");
        assert_matches_brute(&idx, &data, &scatter(5, 2, 5));
        // Far-outside query exercises the exhaustion fallback.
        let far = vec![Value::Num(-500.0), Value::Num(900.0)];
        assert_matches_brute(&idx, &data, &[far]);
    }

    #[test]
    fn grid_incremental_inserts_keep_knn_bound_correct() {
        // Insert a far-away point after the upgrade: the exhaustion bound
        // must stretch with the occupied box.
        let mut data = scatter(600, 2, 3);
        let mut idx = DynamicIndex::new(TupleDistance::numeric(2), 1.0);
        for row in &data {
            idx.insert(row.clone());
        }
        let outpost = vec![Value::Num(5000.0), Value::Num(-4000.0)];
        idx.insert(outpost.clone());
        data.push(outpost);
        assert_eq!(idx.backend_name(), "grid");
        assert_matches_brute(
            &idx,
            &data,
            &[vec![Value::Num(2000.0), Value::Num(-2000.0)]],
        );
    }

    #[test]
    fn upgrades_to_vp_for_high_arity_and_matches() {
        let data = scatter(600, 5, 13);
        let mut idx = DynamicIndex::new(TupleDistance::numeric(5), 1.0);
        for row in &data {
            idx.insert(row.clone());
        }
        assert_eq!(idx.backend_name(), "vp");
        assert_matches_brute(&idx, &data, &scatter(4, 5, 77));
    }

    #[test]
    fn vp_buffer_and_rebuild_match() {
        let mut data = scatter(600, 5, 17);
        let dist = TupleDistance::numeric(5);
        let mut idx = DynamicIndex::from_rows(data.clone(), dist, 1.0);
        assert_eq!(idx.backend_name(), "vp");
        // Push enough rows to cross the rebuild threshold at least once,
        // checking equivalence while rows sit in the tail buffer.
        for (i, row) in scatter(300, 5, 23).into_iter().enumerate() {
            idx.insert(row.clone());
            data.push(row);
            if i % 97 == 0 {
                assert_matches_brute(&idx, &data, &scatter(2, 5, i as u64));
            }
        }
        assert_matches_brute(&idx, &data, &scatter(3, 5, 41));
    }

    #[test]
    fn grid_migrates_to_vp_on_non_numeric_row() {
        let mut data = scatter(600, 2, 19);
        let mut idx = DynamicIndex::from_rows(data.clone(), TupleDistance::numeric(2), 1.0);
        assert_eq!(idx.backend_name(), "grid");
        let bad = vec![Value::Null, Value::Num(1.0)];
        idx.insert(bad.clone());
        data.push(bad);
        assert_eq!(idx.backend_name(), "vp");
        assert_matches_brute(&idx, &data, &scatter(3, 2, 29));
    }

    #[test]
    fn extend_assigns_sequential_ids() {
        let mut idx = DynamicIndex::new(TupleDistance::numeric(1), 1.0);
        assert_eq!(idx.extend(Vec::new()), None);
        assert_eq!(
            idx.extend(vec![vec![Value::Num(1.0)], vec![Value::Num(2.0)]]),
            Some(0)
        );
        assert_eq!(idx.extend(vec![vec![Value::Num(3.0)]]), Some(2));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.kth_distance(&[Value::Num(0.0)], 2), Some(2.0));
    }

    #[test]
    fn works_on_text_data() {
        let words = ["cat", "cart", "dog", "dot", "zebra", "care", "dart"];
        let data: Vec<Vec<Value>> = words
            .iter()
            .map(|s| vec![Value::Text(s.to_string())])
            .collect();
        let mut idx = DynamicIndex::new(TupleDistance::textual(1), 1.0);
        for row in &data {
            idx.insert(row.clone());
        }
        let brute = BruteForceIndex::new(&data, TupleDistance::textual(1));
        let query = vec![Value::Text("cot".into())];
        let mut a = idx.range(&query, 1.0);
        let mut b = brute.range(&query, 1.0);
        sort_hits(&mut a);
        sort_hits(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn activity_attributes_effort_to_the_instance() {
        let data = scatter(100, 2, 7);
        let mut idx = DynamicIndex::new(TupleDistance::numeric(2), 1.0);
        for row in &data {
            idx.insert(row.clone());
        }
        assert_eq!(idx.activity(), IndexActivity::default());
        idx.range(&[Value::Num(1.0), Value::Num(2.0)], 0.5);
        idx.knn(&[Value::Num(1.0), Value::Num(2.0)], 3);
        let a = idx.activity();
        assert_eq!(a.queries, 2);
        assert_eq!(a.rows_visited, 200); // two brute scans over 100 rows
        assert_eq!(a.rebuilds, 0);
        // Crossing the brute threshold counts one rebuild on the
        // instance, mirroring `index.dynamic.rebuilds`.
        for row in scatter(500, 2, 9) {
            idx.insert(row);
        }
        assert_eq!(idx.activity().rebuilds, 1);
        // A second instance starts clean: effort is per-instance.
        let other = DynamicIndex::new(TupleDistance::numeric(2), 1.0);
        assert_eq!(other.activity(), IndexActivity::default());
    }

    #[test]
    fn empty_index_queries() {
        let idx = DynamicIndex::new(TupleDistance::numeric(2), 1.0);
        assert!(idx.is_empty());
        assert!(idx
            .range(&[Value::Num(0.0), Value::Num(0.0)], 5.0)
            .is_empty());
        assert!(idx.knn(&[Value::Num(0.0), Value::Num(0.0)], 3).is_empty());
    }
}
