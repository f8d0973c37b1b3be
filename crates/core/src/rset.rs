//! The preprocessed inlier context shared by all savers.

use disc_distance::{PackedMatrix, PackedScan, TupleDistance, Value};
use disc_index::SortedColumn;

use crate::constraints::{with_index, DistanceConstraints};
use crate::parallel::{parallel_map, Parallelism};

/// The set `r` of non-outlying tuples, preprocessed for repeated outlier
/// saving:
///
/// * `δ_η(t)` — the distance from each `t ∈ r` to its η-th nearest neighbor
///   in `r` (self-inclusive, so `δ_1(t) = 0`), the feasibility threshold of
///   Algorithm 1, line 4;
/// * per-attribute sorted projections for numeric attributes, answering the
///   single-attribute ε-balls that seed the κ-restricted recursion roots.
pub struct RSet {
    rows: Vec<Vec<Value>>,
    dist: TupleDistance,
    constraints: DistanceConstraints,
    delta_eta: Vec<f64>,
    columns: Vec<Option<SortedColumn>>,
    /// Packed `f64` layout of `rows` for candidate scoring
    /// (`disc_distance::packed`); `None` when the metric has no packed
    /// layout.
    packed: Option<PackedMatrix>,
}

impl RSet {
    /// Builds the context from the inlier rows, parallelizing the
    /// `δ_η` pass over all available cores.
    pub fn new(
        rows: Vec<Vec<Value>>,
        dist: TupleDistance,
        constraints: DistanceConstraints,
    ) -> Self {
        Self::with_parallelism(rows, dist, constraints, Parallelism::auto())
    }

    /// Builds the context with an explicit worker count for the `δ_η`
    /// preprocessing pass (one η-NN query per inlier — the hottest loop of
    /// construction). Results are identical for every worker count; see
    /// [`Parallelism`].
    pub fn with_parallelism(
        rows: Vec<Vec<Value>>,
        dist: TupleDistance,
        constraints: DistanceConstraints,
        parallelism: Parallelism,
    ) -> Self {
        let delta_eta = with_index(&rows, &dist, constraints.eps, |idx| {
            parallel_map(&rows, parallelism.workers(), |q| {
                idx.kth_distance(q, constraints.eta)
                    .unwrap_or(f64::INFINITY)
            })
        });
        let columns = (0..dist.arity())
            .map(|j| SortedColumn::new(&rows, j))
            .collect();
        let packed = PackedMatrix::build(&rows, &dist);
        RSet {
            rows,
            dist,
            constraints,
            delta_eta,
            columns,
            packed,
        }
    }

    /// Builds the context from already-known `δ_η` values, skipping the
    /// η-NN preprocessing pass entirely (only the sorted attribute
    /// projections are computed). Used by the streaming engine, which
    /// maintains the `δ_η` table incrementally across ingests.
    ///
    /// # Panics
    /// Panics unless `delta_eta` has exactly one entry per row.
    pub fn from_parts(
        rows: Vec<Vec<Value>>,
        dist: TupleDistance,
        constraints: DistanceConstraints,
        delta_eta: Vec<f64>,
    ) -> Self {
        assert_eq!(rows.len(), delta_eta.len(), "one δ_η entry per inlier row");
        let columns = (0..dist.arity())
            .map(|j| SortedColumn::new(&rows, j))
            .collect();
        let packed = PackedMatrix::build(&rows, &dist);
        RSet {
            rows,
            dist,
            constraints,
            delta_eta,
            columns,
            packed,
        }
    }

    /// The inlier rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of inlier tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no inliers.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The tuple metric.
    pub fn distance(&self) -> &TupleDistance {
        &self.dist
    }

    /// The distance constraints.
    pub fn constraints(&self) -> DistanceConstraints {
        self.constraints
    }

    /// `δ_η(t)` for row `i`: distance to its η-th nearest neighbor in `r`
    /// (counting itself). A tuple with `δ_η(t) ≤ ε − d` has η neighbors
    /// within `ε − d`, the precondition of the Proposition 5 upper bound.
    pub fn delta_eta(&self, i: usize) -> f64 {
        self.delta_eta[i]
    }

    /// The sorted projection of a numeric attribute, if available.
    pub fn column(&self, attr: usize) -> Option<&SortedColumn> {
        self.columns[attr].as_ref()
    }

    /// The packed `f64` layout of the inlier rows, when the metric admits
    /// one (`disc_distance::packed`). Used by the saver's candidate
    /// scoring loops.
    pub fn packed(&self) -> Option<&PackedMatrix> {
        self.packed.as_ref()
    }

    /// Ids of rows within `eps` of `q` on the single attribute `attr`.
    /// Falls back to a linear scan for non-numeric attributes.
    pub fn attribute_ball(&self, attr: usize, q: &Value, eps: f64) -> Vec<u32> {
        match (&self.columns[attr], q.as_num()) {
            (Some(col), Some(x)) => col.ball(x, eps).collect(),
            _ => self
                .rows
                .iter()
                .enumerate()
                .filter(|(_, row)| self.dist.attr_dist(attr, q, &row[attr]) <= eps)
                .map(|(i, _)| i as u32)
                .collect(),
        }
    }

    /// True if a candidate tuple (not a member of `r`) satisfies the
    /// distance constraints against `r` — the feasibility check
    /// `|r_ε(t)| ≥ η`. Exact linear scan with early exit; used by tests and
    /// the exact saver.
    pub fn is_feasible(&self, candidate: &[Value]) -> bool {
        let mut scan = PackedScan::new(self.packed.as_ref(), &self.rows, &self.dist, candidate);
        let mut count = 0usize;
        for i in 0..self.rows.len() {
            if scan.dist_within(i as u32, self.constraints.eps).is_some() {
                count += 1;
                if count >= self.constraints.eta {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rset(points: &[[f64; 2]], eps: f64, eta: usize) -> RSet {
        let rows: Vec<Vec<Value>> = points
            .iter()
            .map(|p| p.iter().map(|&x| Value::Num(x)).collect())
            .collect();
        RSet::new(
            rows,
            TupleDistance::numeric(2),
            DistanceConstraints::new(eps, eta),
        )
    }

    #[test]
    fn delta_eta_self_inclusive() {
        let r = rset(&[[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], 1.0, 1);
        // η = 1: the nearest neighbor of each tuple is itself.
        for i in 0..3 {
            assert_eq!(r.delta_eta(i), 0.0);
        }
    }

    #[test]
    fn delta_eta_second_neighbor() {
        let r = rset(&[[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], 1.0, 2);
        assert_eq!(r.delta_eta(0), 1.0); // self + point at distance 1
        assert_eq!(r.delta_eta(1), 1.0);
        assert_eq!(r.delta_eta(2), 2.0);
    }

    #[test]
    fn attribute_ball_numeric() {
        let r = rset(&[[0.0, 0.0], [1.0, 5.0], [2.0, 9.0]], 1.0, 1);
        let mut ids = r.attribute_ball(0, &Value::Num(1.0), 1.0);
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        let ids = r.attribute_ball(1, &Value::Num(0.0), 1.0);
        assert_eq!(ids, vec![0]);
    }

    #[test]
    fn feasibility_check() {
        let r = rset(&[[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], 1.0, 2);
        assert!(r.is_feasible(&[Value::Num(0.2), Value::Num(0.0)]));
        assert!(!r.is_feasible(&[Value::Num(50.0), Value::Num(0.0)]));
    }

    #[test]
    fn delta_eta_infinite_when_r_too_small() {
        let r = rset(&[[0.0, 0.0]], 1.0, 3);
        assert_eq!(r.delta_eta(0), f64::INFINITY);
    }
}
