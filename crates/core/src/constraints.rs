//! Distance constraints and outlier detection (Section 2 of the paper).

use disc_distance::{TupleDistance, Value};

use crate::parallel::parallel_map;

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
}

/// Chooses a neighbor-search backend by data shape and runs `f` with it.
pub(crate) use disc_index::with_auto_index as with_index;

/// Detects the tuples violating the distance constraints, counting
/// neighbors against the *whole* dataset (each tuple counts itself).
pub fn detect_outliers(
    rows: &[Vec<Value>],
    dist: &TupleDistance,
    constraints: DistanceConstraints,
) -> OutlierSplit {
    detect_outliers_parallel(rows, dist, constraints, 1)
}

/// [`detect_outliers`] with the per-row neighbor counting fanned out over
/// `workers` scoped threads. The split is identical for every worker
/// count (counts are collected in row order against a shared read-only
/// index).
pub fn detect_outliers_parallel(
    rows: &[Vec<Value>],
    dist: &TupleDistance,
    constraints: DistanceConstraints,
    workers: usize,
) -> OutlierSplit {
    let counts: Vec<usize> = with_index(rows, dist, constraints.eps, |idx| {
        parallel_map(rows, workers, |q| idx.count_within(q, constraints.eps))
    });
    let mut inliers = Vec::new();
    let mut outliers = Vec::new();
    for (i, &c) in counts.iter().enumerate() {
        if c >= constraints.eta {
            inliers.push(i);
        } else {
            outliers.push(i);
        }
    }
    OutlierSplit {
        inliers,
        outliers,
        counts,
    }
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
