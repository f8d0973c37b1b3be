//! Neighbor-search substrate for the DISC reproduction.
//!
//! Everything in the paper is phrased in terms of ε-neighborhoods
//! (`r_ε(t) = {t_i ∈ r | Δ(t, t_i) ≤ ε}`, Formula 4) and η-th nearest
//! neighbors (the lower bound of Lemma 2, the `δ_η(t)` threshold of
//! Algorithm 1, line 4). This crate answers both with one type:
//!
//! * [`Index`] — generic over borrowed rows (`&[Vec<Value>]`, the batch
//!   pipeline's dataset) or owned rows ([`DynamicIndex`], an engine
//!   shard's, which also takes appends). Besides the [`NeighborIndex`]
//!   queries it answers a k-NN restricted to the rows a predicate keeps
//!   ([`Index::knn_where`]), which the δ_η of Algorithm 1 reads over the
//!   inliers of an index that holds every row. It serves queries from
//!   one of three backends:
//!   - a linear **brute** scan, the fastest choice up to 512 rows;
//!   - a uniform **grid** over finite numeric data under `Absolute`
//!     metrics, the workhorse for the low-dimensional large datasets (GPS
//!     and Flight, m = 3);
//!   - a **VP tree** ([`VpNodes`]) for any metric, including edit
//!     distances over text, pruning with the triangle inequality alone
//!     (rows that break it, a `Null` or text in a numeric column, sit in
//!     a side list every query scans).
//!
//!   [`Index::auto`] picks one by that policy; [`Index::grid`] and
//!   [`Index::vp_tree`] name a backend.
//! * [`BruteForceIndex`] — the linear-scan reference the differential
//!   suites test every backend against;
//! * [`SortedColumn`] — per-attribute sorted projections answering
//!   single-attribute ε-balls in `O(log n)`, used by the DISC recursion to
//!   seed candidate lists for unadjusted-attribute subsets.
//!
//! Queries take `&self` and every backend is plain data, so an index is
//! `Sync` and may be shared across threads to fan queries out.

pub mod brute;
pub mod dynamic;
pub mod grid;
pub mod sorted;
pub mod vptree;

use std::sync::atomic::{AtomicU64, Ordering};

use disc_distance::{Metric, PackedMatrix, PackedScan, TupleDistance, Value};
use disc_obs::counters::{self, Counter};

pub use brute::BruteForceIndex;
pub use dynamic::DynamicIndex;
pub use grid::NonNumericCell;
pub use sorted::SortedColumn;
pub use vptree::VpNodes;

use brute::{scan_knn, scan_range};
use grid::Grid;

/// A nearest-neighbor index over a fixed set of rows.
///
/// Row identifiers are `u32` positions into the indexed slice. Distances
/// are the tuple-level metric the index was built with.
pub trait NeighborIndex {
    /// Number of indexed rows.
    fn len(&self) -> usize;

    /// True if the index contains no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All rows within distance `eps` of `query` (inclusive), with their
    /// distances, in arbitrary order.
    fn range(&self, query: &[Value], eps: f64) -> Vec<(u32, f64)>;

    /// Number of rows within `eps` of `query`.
    fn count_within(&self, query: &[Value], eps: f64) -> usize {
        self.range(query, eps).len()
    }

    /// True if at least `eta` rows lie within `eps` of `query` — the
    /// distance-constraint check `|r_ε(t)| ≥ η`. Backends may override
    /// this with an early-exit scan.
    fn satisfies(&self, query: &[Value], eps: f64, eta: usize) -> bool {
        self.count_within(query, eps) >= eta
    }

    /// The `k` nearest rows to `query`, sorted by ascending distance
    /// (fewer if the index holds fewer than `k` rows). Ties are broken by
    /// row id for determinism.
    fn knn(&self, query: &[Value], k: usize) -> Vec<(u32, f64)>;

    /// Distance to the `k`-th nearest row (1-based), if it exists — the
    /// `δ_k(t)` of Algorithm 1.
    fn kth_distance(&self, query: &[Value], k: usize) -> Option<f64> {
        if k == 0 {
            return Some(0.0);
        }
        let nn = self.knn(query, k);
        if nn.len() == k {
            Some(nn[k - 1].1)
        } else {
            None
        }
    }
}

/// [`Index::auto`] scans up to this many rows linearly.
const BRUTE_MAX: usize = 512;

/// [`Index::auto`] tries a grid up to this arity.
const GRID_MAX_ARITY: usize = 4;

/// Runs `f` with the backend [`Index::auto`] picks for `rows`.
pub fn with_auto_index<T>(
    rows: &[Vec<Value>],
    dist: &TupleDistance,
    eps_hint: f64,
    f: impl FnOnce(&(dyn NeighborIndex + Sync)) -> T,
) -> T {
    f(&Index::auto(rows, dist.clone(), eps_hint))
}

enum Backend {
    /// A linear scan. Built only by [`Index::auto`], which switches to
    /// its grid-or-tree choice with this cell width once the rows
    /// outgrow [`BRUTE_MAX`].
    Brute {
        cell_width: f64,
    },
    Grid(Grid),
    /// A tree over `rows[..nodes.len()]`; appended rows past it are
    /// scanned linearly until the next rebuild.
    Vp(VpNodes),
}

impl Backend {
    /// The policy of [`Index::auto`] for `rows`.
    fn auto(rows: &[Vec<Value>], dist: &TupleDistance, cell_width: f64) -> Backend {
        if rows.len() <= BRUTE_MAX {
            return Backend::Brute { cell_width };
        }
        // The grid's cell window holds only where a per-coordinate gap
        // bounds the distance from below, i.e. under `Absolute` metrics.
        let absolute = (0..dist.arity()).all(|a| matches!(dist.metric(a), Metric::Absolute));
        if absolute && dist.arity() <= GRID_MAX_ARITY {
            // A row with no grid cell (a Null, text, a non-finite or a
            // far-out number) leaves the VP tree.
            if let Ok(grid) = Grid::build(rows, dist, cell_width) {
                return Backend::Grid(grid);
            }
        }
        Backend::Vp(VpNodes::build(rows, dist))
    }

    /// The `index.<backend>.*` counters: range queries, k-NN queries and
    /// rows visited.
    fn counters(&self) -> (&'static Counter, &'static Counter, &'static Counter) {
        match self {
            Backend::Brute { .. } => (
                &counters::BRUTE_RANGE_QUERIES,
                &counters::BRUTE_KNN_QUERIES,
                &counters::BRUTE_ROWS_VISITED,
            ),
            Backend::Grid(_) => (
                &counters::GRID_RANGE_QUERIES,
                &counters::GRID_KNN_QUERIES,
                &counters::GRID_ROWS_VISITED,
            ),
            Backend::Vp(_) => (
                &counters::VPTREE_RANGE_QUERIES,
                &counters::VPTREE_KNN_QUERIES,
                &counters::VPTREE_ROWS_VISITED,
            ),
        }
    }
}

/// Cumulative per-instance effort, read via [`Index::activity`].
///
/// The global `index.*` counters aggregate across every index in the
/// process; these cells attribute the same events to one instance, so a
/// test can read one index's work (one engine shard's, say) while other
/// indexes run.
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

/// A neighbor index over `R`: borrowed rows (`&[Vec<Value>]`) or owned
/// ones ([`DynamicIndex`]); see the [crate docs](crate) for the backends.
pub struct Index<R> {
    rows: R,
    dist: TupleDistance,
    backend: Backend,
    /// Packed `f64` layout of `rows` for the distance kernels; `None`
    /// when the metric has no packed layout.
    packed: Option<PackedMatrix>,
    activity: ActivityCells,
}

impl<R: AsRef<[Vec<Value>]>> Index<R> {
    /// The backend the data's shape calls for: a brute scan up to 512
    /// rows; past that a grid with cell width `eps_hint` (the expected
    /// query radius) when the arity is at most 4, every attribute metric
    /// is [`Metric::Absolute`] and every row has a grid cell; otherwise a
    /// VP tree.
    pub fn auto(rows: R, dist: TupleDistance, eps_hint: f64) -> Self {
        let backend = Backend::auto(rows.as_ref(), &dist, eps_hint.max(1e-9));
        Self::with_backend(rows, dist, backend)
    }

    /// A uniform grid with side `cell_width`; any positive width is
    /// correct, and the expected query radius is a good one.
    ///
    /// # Errors
    /// Returns [`NonNumericCell`] naming the first row/attribute with no
    /// grid cell: not a finite number (`Value::Null`, text, `NaN`, `±∞`),
    /// or so far out that its cell index would reach `2^52` in magnitude.
    /// [`Index::vp_tree`] takes any rows.
    ///
    /// # Panics
    /// Panics if `cell_width ≤ 0`.
    pub fn grid(rows: R, dist: TupleDistance, cell_width: f64) -> Result<Self, NonNumericCell> {
        assert!(cell_width > 0.0, "cell width must be positive");
        let grid = Grid::build(rows.as_ref(), &dist, cell_width)?;
        Ok(Self::with_backend(rows, dist, Backend::Grid(grid)))
    }

    /// A vantage-point tree; see [`VpNodes::build`] for cost and
    /// determinism.
    pub fn vp_tree(rows: R, dist: TupleDistance) -> Self {
        let nodes = VpNodes::build(rows.as_ref(), &dist);
        Self::with_backend(rows, dist, Backend::Vp(nodes))
    }

    fn with_backend(rows: R, dist: TupleDistance, backend: Backend) -> Self {
        let packed = PackedMatrix::build(rows.as_ref(), &dist);
        Index {
            rows,
            dist,
            backend,
            packed,
            activity: ActivityCells::default(),
        }
    }

    /// The indexed rows, in id order.
    pub fn rows(&self) -> &[Vec<Value>] {
        self.rows.as_ref()
    }

    /// The tuple metric in use.
    pub fn distance(&self) -> &TupleDistance {
        &self.dist
    }

    /// Which backend currently serves queries (`"brute"`, `"grid"`, or
    /// `"vp"`) — diagnostics only.
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            Backend::Brute { .. } => "brute",
            Backend::Grid(_) => "grid",
            Backend::Vp(_) => "vp",
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

    fn scan<'q>(&'q self, query: &'q [Value]) -> PackedScan<'q> {
        PackedScan::new(self.packed.as_ref(), self.rows(), &self.dist, query)
    }

    /// [`NeighborIndex::knn`] over only the rows whose id `keep` accepts
    /// (`knn` is this with every row kept). A rejected row costs no
    /// distance evaluation and counts as no visit, except a VP-tree
    /// vantage point, which is measured to steer the search but never
    /// ranked.
    pub fn knn_where(
        &self,
        query: &[Value],
        k: usize,
        keep: impl Fn(u32) -> bool,
    ) -> Vec<(u32, f64)> {
        if k == 0 || self.rows().is_empty() {
            return Vec::new();
        }
        let tree = match &self.backend {
            Backend::Grid(grid) => {
                // Row visits are recorded by the internal range probes.
                self.record(true, 0);
                return grid.knn(k, |eps| {
                    let mut hits = Vec::new();
                    let visited = grid.range(&mut self.scan(query), query, eps, &keep, &mut hits);
                    self.record(false, visited);
                    hits
                });
            }
            Backend::Brute { .. } => None,
            Backend::Vp(nodes) => Some(nodes),
        };
        let n = self.rows().len() as u32;
        let mut scan = self.scan(query);
        let mut best = Vec::with_capacity(k + 1);
        let mut visited = 0u64;
        let tail = tree.map_or(0, |nodes| {
            nodes.knn_into(&mut scan, k, &keep, &mut best, &mut visited);
            nodes.len() as u32
        });
        visited += scan_knn(&mut scan, (tail..n).filter(|&id| keep(id)), k, &mut best);
        self.record(true, visited);
        sort_hits(&mut best);
        best
    }

    /// Counts one range (or, with `knn`, k-NN) query and its row visits,
    /// globally and on this instance.
    fn record(&self, knn: bool, rows_visited: u64) {
        let (range_queries, knn_queries, visited) = self.backend.counters();
        if knn {
            knn_queries.incr();
        } else {
            range_queries.incr();
        }
        visited.add(rows_visited);
        self.activity.queries.fetch_add(1, Ordering::Relaxed);
        self.activity
            .rows_visited
            .fetch_add(rows_visited, Ordering::Relaxed);
    }
}

impl<R: AsRef<[Vec<Value>]>> NeighborIndex for Index<R> {
    fn len(&self) -> usize {
        self.rows().len()
    }

    fn range(&self, query: &[Value], eps: f64) -> Vec<(u32, f64)> {
        let n = self.len() as u32;
        let mut scan = self.scan(query);
        let mut hits = Vec::new();
        let visited = match &self.backend {
            Backend::Brute { .. } => {
                scan_range(&mut scan, 0..n, eps, &mut hits);
                u64::from(n)
            }
            Backend::Grid(grid) => grid.range(&mut scan, query, eps, |_| true, &mut hits),
            Backend::Vp(nodes) => {
                let mut visited = 0u64;
                nodes.range_into(&mut scan, eps, &mut hits, &mut visited);
                scan_range(&mut scan, nodes.len() as u32..n, eps, &mut hits);
                visited + u64::from(n) - nodes.len() as u64
            }
        };
        self.record(false, visited);
        hits
    }

    fn knn(&self, query: &[Value], k: usize) -> Vec<(u32, f64)> {
        self.knn_where(query, k, |_| true)
    }
}

/// Sorts `(id, dist)` pairs by distance then id — the canonical result
/// ordering shared by all backends.
pub(crate) fn sort_hits(hits: &mut [(u32, f64)]) {
    hits.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
}

/// The distance a k-NN candidate must not exceed to enter `best`: the
/// incumbent k-th distance, or `∞` while fewer than `k` are held.
pub(crate) fn kth_bound(best: &[(u32, f64)], k: usize) -> f64 {
    if best.len() == k {
        best[k - 1].1
    } else {
        f64::INFINITY
    }
}

/// Inserts `(id, d)` into the k-best list `best`, kept sorted ascending by
/// distance (ties by id) and at most `k` long. `k` is small (η ≤ a few
/// dozen) in every caller, so a sorted buffer beats a heap.
pub(crate) fn push_best(best: &mut Vec<(u32, f64)>, k: usize, id: u32, d: f64) {
    let pos = best
        .binary_search_by(|p| {
            p.1.partial_cmp(&d)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(p.0.cmp(&id))
        })
        .unwrap_or_else(|e| e);
    best.insert(pos, (id, d));
    if best.len() > k {
        best.pop();
    }
}
