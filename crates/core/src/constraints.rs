//! Distance constraints and outlier detection (Section 2 of the paper).
//!
//! Detection runs one ε-range query per row against an [`Index`] over
//! the dataset. The query counts the row's ε-neighbors and, in the same
//! pass, measures the nearest of them: the η nearest hits of every row
//! are kept in one flat table, and once every row is classified they
//! settle most inliers' `δ_η` (Algorithm 1, line 4) with no second search
//! ([`OutlierSplit`], read by [`RSet::from_split`](crate::RSet::from_split),
//! which asks the same index for the rest).

use disc_distance::{TupleDistance, Value};
use disc_index::{Index, NeighborIndex};

use crate::parallel::parallel_map;

/// Relative margin below ε under which the ε-range hits of a row settle
/// its nearest-inlier distances. Batch detection and the streaming
/// engine both read an inlier's `δ_η` off its range hits when its η
/// nearest hits are inliers and the η-th lies at or below
/// `ε·(1 − NARROW_MARGIN)`, and the engine's phase 3 lets a *narrow*
/// inlier (`δ_η` at or below that) observe only the new inliers its
/// range queries returned. Both are exact when no pair the queries
/// excluded lies nearer, i.e. when every excluded pair has `d ≥ δ_η`.
/// A range query keeps a row iff its accumulated distance `acc` passes
/// `acc ≤ to_acc(ε)` (`disc_distance::Norm`), and reports
/// `d = finish(acc)`, bit-identical to `TupleDistance::dist` (every
/// attribute metric is symmetric bit for bit, so the query's direction
/// does not matter). So an excluded pair has `acc > to_acc(ε)`:
///
/// * under L¹ and L^∞, `to_acc` and `finish` are the identity: `d > ε`;
/// * under L², `to_acc(ε) = ε·ε` rounds by at most `u = 2⁻⁵³` relative
///   (a subnormal `ε²` by half its ulp, after which `acc ≥ ε²` exactly)
///   and `sqrt` by another `u`: `d ≥ ε·(1 − 2u)`;
/// * under L^p, both steps call `powf`, which is not correctly rounded.
///   With `e` its relative error, and `1/p` itself rounded (which moves
///   `acc^{1/p}` by at most `u·|ln acc| ≤ 745u`),
///   `d ≥ ε·(1 − 2e − 746u)`.
///
/// `1e-9` exceeds these bounds by three orders of magnitude even for a
/// `powf` a thousand ulps off, so every excluded pair has
/// `d > ε·(1 − NARROW_MARGIN)`. (The grid backend's cell window reaches
/// `ε·(1 + 2⁻³⁰)` from the query in every coordinate, a margin the same
/// rounding argument covers, so its cell arithmetic never drops a pair
/// the comparison keeps; see `REACH_MARGIN` in `disc_index::grid`.) A
/// row the margin leaves out costs only the search it did before: a
/// k-NN query, or the engine's direct distance loop. The engine's
/// `delta_eta_lists_match_brute_force` and the `rset` module's
/// `hit_settled_delta_eta_matches_rset_new` pin the rule under L¹, L²,
/// L^∞ and L³ with distances at ε and one ulp either side.
pub(crate) const NARROW_MARGIN: f64 = 1e-9;

/// Rows per detection task: each task returns its rows' counts and
/// nearest hits as flat vectors, so the table allocates per block, not
/// per row.
const ROWS_PER_TASK: usize = 64;

/// The distance constraints `(ε, η)` of Definition 1: a tuple belongs to a
/// cluster (with high probability) iff it has at least `η` ε-neighbors.
///
/// Neighbor counting convention: a tuple that is itself a member of the
/// counted set contributes itself (at distance 0), matching the DBSCAN
/// MinPts convention the paper builds on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceConstraints {
    /// Distance threshold ε.
    pub eps: f64,
    /// Neighbor threshold η.
    pub eta: usize,
}

impl DistanceConstraints {
    /// Builds constraints; ε must be positive and η ≥ 1.
    ///
    /// # Panics
    /// Panics on invalid parameters; [`DistanceConstraints::try_new`] is
    /// the non-panicking form.
    pub fn new(eps: f64, eta: usize) -> Self {
        match Self::try_new(eps, eta) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds constraints, reporting invalid parameters as
    /// [`Error::Config`](crate::Error::Config) instead of panicking.
    /// ε must be a positive finite number and η ≥ 1.
    pub fn try_new(eps: f64, eta: usize) -> Result<Self, crate::Error> {
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(crate::Error::Config {
                param: "eps",
                message: format!("distance threshold ε must be positive and finite (got {eps})"),
            });
        }
        if eta < 1 {
            return Err(crate::Error::Config {
                param: "eta",
                message: "neighbor threshold η must be at least 1 (got 0)".into(),
            });
        }
        Ok(DistanceConstraints { eps, eta })
    }
}

/// The split of a dataset into non-outlying tuples `r` and outliers `s`
/// (Section 2.2: "the non-outlying r satisfying the distance constraints
/// are employed to save the outliers in s one by one").
#[derive(Debug, Clone)]
pub struct OutlierSplit {
    /// Row indices of tuples satisfying the constraints.
    pub inliers: Vec<usize>,
    /// Row indices of violating tuples.
    pub outliers: Vec<usize>,
    /// Per-row ε-neighbor counts (self-inclusive).
    pub counts: Vec<usize>,
    /// The constraints the rows were classified under.
    pub(crate) constraints: DistanceConstraints,
    /// The ids of every row's η nearest ε-range hits by `(total_cmp
    /// distance, id)`, unordered, η slots per row; a row with fewer than
    /// η hits (an outlier) leaves its slots unused.
    nearest_ids: Vec<u32>,
    /// Per row, the distance of its η-th nearest hit, or `∞` with fewer
    /// than η hits.
    kth_hit: Vec<f64>,
}

impl OutlierSplit {
    /// `δ_η` of inlier `row` read off its ε-range hits, or `None` when
    /// they do not settle it. They do when the row's η nearest hits are
    /// all inliers and the η-th lies at or below `ε·(1 − NARROW_MARGIN)`:
    /// every inlier the range query excluded lies farther (see
    /// [`NARROW_MARGIN`]), so the η-th hit is the η-th nearest inlier.
    pub(crate) fn settled_delta_eta(&self, row: usize) -> Option<f64> {
        let DistanceConstraints { eps, eta } = self.constraints;
        let kth = self.kth_hit[row];
        let settled = kth <= eps * (1.0 - NARROW_MARGIN)
            && self.nearest_ids[row * eta..][..eta]
                .iter()
                .all(|&h| self.counts[h as usize] >= eta);
        settled.then_some(kth)
    }
}

/// Detects the tuples violating the distance constraints, counting
/// neighbors against the *whole* dataset (each tuple counts itself).
pub fn detect_outliers(
    rows: &[Vec<Value>],
    dist: &TupleDistance,
    constraints: DistanceConstraints,
) -> OutlierSplit {
    detect_outliers_parallel(rows, dist, constraints, 1).0
}

/// [`detect_outliers`] with the per-row range queries fanned out over
/// `workers` scoped threads. The split is identical for every worker
/// count (each block of rows is queried against the shared read-only
/// index, and the blocks are collected in row order). Besides the
/// counts, each row keeps the ids of its η nearest hits and the η-th
/// one's distance. The index the queries ran on comes back with the
/// split: [`RSet::from_split`](crate::RSet::from_split) takes both, reads
/// most `δ_η` off the hits and asks that index for the rest.
pub fn detect_outliers_parallel<'a>(
    rows: &'a [Vec<Value>],
    dist: &TupleDistance,
    constraints: DistanceConstraints,
    workers: usize,
) -> (OutlierSplit, Index<&'a [Vec<Value>]>) {
    let DistanceConstraints { eps, eta } = constraints;
    let index = Index::auto(rows, dist.clone(), eps);
    let blocks = parallel_map(rows.chunks(ROWS_PER_TASK), workers, |block| {
        let mut counts = Vec::with_capacity(block.len());
        let mut ids = Vec::with_capacity(block.len() * eta);
        let mut kth = Vec::with_capacity(block.len());
        for q in block {
            let mut hits = index.range(q, eps);
            counts.push(hits.len());
            if hits.len() < eta {
                ids.resize(ids.len() + eta, u32::MAX);
                kth.push(f64::INFINITY);
                continue;
            }
            hits.select_nth_unstable_by(eta - 1, |a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            ids.extend(hits[..eta].iter().map(|&(id, _)| id));
            kth.push(hits[eta - 1].1);
        }
        (counts, ids, kth)
    });
    let mut split = OutlierSplit {
        inliers: Vec::new(),
        outliers: Vec::new(),
        counts: Vec::with_capacity(rows.len()),
        constraints,
        nearest_ids: Vec::with_capacity(rows.len() * eta),
        kth_hit: Vec::with_capacity(rows.len()),
    };
    for (counts, ids, kth) in blocks {
        split.counts.extend(counts);
        split.nearest_ids.extend(ids);
        split.kth_hit.extend(kth);
    }
    for (i, &c) in split.counts.iter().enumerate() {
        if c >= eta {
            split.inliers.push(i);
        } else {
            split.outliers.push(i);
        }
    }
    (split, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_index::{BruteForceIndex, NeighborIndex};

    fn rows(points: &[[f64; 2]]) -> Vec<Vec<Value>> {
        points
            .iter()
            .map(|p| p.iter().map(|&x| Value::Num(x)).collect())
            .collect()
    }

    #[test]
    fn detects_isolated_point() {
        // 5 tight points plus one far away.
        let data = rows(&[
            [0.0, 0.0],
            [0.1, 0.0],
            [0.0, 0.1],
            [0.1, 0.1],
            [0.05, 0.05],
            [10.0, 10.0],
        ]);
        let split = detect_outliers(
            &data,
            &TupleDistance::numeric(2),
            DistanceConstraints::new(0.5, 3),
        );
        assert_eq!(split.outliers, vec![5]);
        assert_eq!(split.inliers.len(), 5);
        assert_eq!(split.counts[5], 1); // only itself
        assert!(split.counts[4] >= 5);
    }

    #[test]
    fn eta_one_accepts_everything() {
        let data = rows(&[[0.0, 0.0], [100.0, 100.0]]);
        let split = detect_outliers(
            &data,
            &TupleDistance::numeric(2),
            DistanceConstraints::new(1.0, 1),
        );
        assert!(split.outliers.is_empty());
    }

    #[test]
    fn strict_eta_rejects_everything() {
        let data = rows(&[[0.0, 0.0], [100.0, 100.0]]);
        let split = detect_outliers(
            &data,
            &TupleDistance::numeric(2),
            DistanceConstraints::new(1.0, 2),
        );
        assert_eq!(split.outliers.len(), 2);
    }

    #[test]
    #[should_panic(expected = "η must be at least 1")]
    fn zero_eta_rejected() {
        DistanceConstraints::new(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "ε must be positive")]
    fn nonpositive_eps_rejected() {
        DistanceConstraints::new(0.0, 1);
    }

    #[test]
    fn large_input_uses_grid_consistently() {
        // > 512 numeric 2-D rows routes through the grid backend; the
        // result must match brute-force counting.
        let data: Vec<Vec<Value>> = (0..600)
            .map(|i| rows(&[[(i % 30) as f64, (i / 30) as f64]]).remove(0))
            .collect();
        let dist = TupleDistance::numeric(2);
        let c = DistanceConstraints::new(1.0, 4);
        let split = detect_outliers(&data, &dist, c);
        let brute = BruteForceIndex::new(&data, dist);
        for (i, row) in data.iter().enumerate() {
            assert_eq!(split.counts[i], brute.count_within(row, c.eps), "row {i}");
        }
    }
}
