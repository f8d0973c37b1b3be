//! Neighbor-search substrate for the DISC reproduction.
//!
//! Everything in the paper is phrased in terms of ε-neighborhoods
//! (`r_ε(t) = {t_i ∈ r | Δ(t, t_i) ≤ ε}`, Formula 4) and η-th nearest
//! neighbors (the lower bound of Lemma 2, the `δ_η(t)` threshold of
//! Algorithm 1, line 4). This crate provides interchangeable backends for
//! those queries:
//!
//! * [`BruteForceIndex`] — linear scan with per-attribute early exit;
//!   correct for every metric, the reference implementation;
//! * [`GridIndex`] — uniform grid over numeric data; the workhorse for the
//!   low-dimensional large datasets (GPS, Flight);
//! * [`VpTree`] — vantage-point tree; works for any metric (including edit
//!   distances over text) using only the triangle inequality;
//! * [`SortedColumn`] — per-attribute sorted projections answering
//!   single-attribute ε-balls in `O(log n)`, used by the DISC recursion to
//!   seed candidate lists for unadjusted-attribute subsets.
//!
//! The static indexes borrow the row storage; the row set `r` of
//! non-outlying tuples is immutable while outliers are being saved, so no
//! backend needs interior mutability. For streaming ingest,
//! [`DynamicIndex`] owns its rows and supports appends through the
//! [`DynamicNeighborIndex`] extension trait, dispatching to the same
//! backends internally.

pub mod brute;
pub mod dynamic;
pub mod grid;
pub mod sorted;
pub mod vptree;

pub use brute::BruteForceIndex;
pub use dynamic::{DynamicIndex, DynamicNeighborIndex, IndexActivity};
pub use grid::{GridIndex, NonNumericCell};
pub use sorted::SortedColumn;
pub use vptree::{VpNodes, VpTree};

use disc_distance::Value;

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

/// Picks a backend by data shape and runs `f` with it.
///
/// Low-dimensional numeric data over ~512 rows gets the [`GridIndex`]
/// (cell width = the expected query radius); larger metric workloads get
/// the [`VpTree`]; small inputs use the [`BruteForceIndex`] linear scan.
///
/// Every backend is plain data over borrowed rows, so the index is
/// `Sync`: `f` may share it across threads to fan queries out.
pub fn with_auto_index<T>(
    rows: &[Vec<Value>],
    dist: &disc_distance::TupleDistance,
    eps_hint: f64,
    f: impl FnOnce(&(dyn NeighborIndex + Sync)) -> T,
) -> T {
    let n = rows.len();
    let m = dist.arity();
    let numeric = rows
        .first()
        .map(|r| r.iter().all(|v| v.as_num().is_some()))
        .unwrap_or(true);
    if n <= 512 {
        f(&BruteForceIndex::new(rows, dist.clone()))
    } else if numeric && m <= 4 {
        // The first-row numeric probe is only a heuristic: a later row may
        // still hold a Null (e.g. `--non-finite as-null`) or a non-finite
        // number the grid cannot host. Fall back to the metric-only tree
        // instead of panicking.
        match GridIndex::try_new(rows, dist.clone(), eps_hint.max(1e-9)) {
            Ok(grid) => f(&grid),
            Err(_) => f(&VpTree::new(rows, dist.clone())),
        }
    } else {
        f(&VpTree::new(rows, dist.clone()))
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
