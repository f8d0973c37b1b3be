//! Property tests: every index backend agrees with the brute-force
//! reference on range, count, satisfies, knn and kth-distance queries.

use disc_distance::{Metric, Norm, TupleDistance, Value};
use disc_index::{BruteForceIndex, Index, NeighborIndex, SortedColumn};
use proptest::prelude::*;

fn to_rows(points: Vec<Vec<f64>>) -> Vec<Vec<Value>> {
    points
        .into_iter()
        .map(|p| p.into_iter().map(Value::Num).collect())
        .collect()
}

/// The four norms exercised by the cross-norm agreement tests; proptest
/// draws an index into this table.
const NORMS: [Norm; 4] = [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Range results (sets of ids with distances) are identical across
    /// backends.
    #[test]
    fn range_agreement(
        points in prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 3), 1..60),
        q in prop::collection::vec(-50.0f64..50.0, 3),
        eps in 0.1f64..40.0,
        cell in 0.5f64..10.0,
    ) {
        let rows = to_rows(points);
        let query: Vec<Value> = q.into_iter().map(Value::Num).collect();
        let dist = TupleDistance::numeric(3);
        let brute = BruteForceIndex::new(&rows, dist.clone());
        let grid = Index::grid(&rows, dist.clone(), cell).unwrap();
        let tree = Index::vp_tree(&rows, dist);
        let canon = |mut v: Vec<(u32, f64)>| {
            v.sort_by_key(|a| a.0);
            v.into_iter().map(|(i, d)| (i, (d * 1e9).round())).collect::<Vec<_>>()
        };
        let want = canon(brute.range(&query, eps));
        prop_assert_eq!(canon(grid.range(&query, eps)), want.clone(), "grid");
        prop_assert_eq!(canon(tree.range(&query, eps)), want, "vptree");
    }

    /// knn distances agree across backends for every k.
    #[test]
    fn knn_agreement(
        points in prop::collection::vec(prop::collection::vec(-20.0f64..20.0, 2), 1..40),
        q in prop::collection::vec(-20.0f64..20.0, 2),
        k in 1usize..12,
    ) {
        let rows = to_rows(points);
        let query: Vec<Value> = q.into_iter().map(Value::Num).collect();
        let dist = TupleDistance::numeric(2);
        let brute = BruteForceIndex::new(&rows, dist.clone());
        let grid = Index::grid(&rows, dist.clone(), 1.0).unwrap();
        let tree = Index::vp_tree(&rows, dist);
        let want: Vec<f64> = brute.knn(&query, k).into_iter().map(|(_, d)| d).collect();
        let got_grid: Vec<f64> = grid.knn(&query, k).into_iter().map(|(_, d)| d).collect();
        let got_tree: Vec<f64> = tree.knn(&query, k).into_iter().map(|(_, d)| d).collect();
        prop_assert_eq!(want.len(), got_grid.len());
        prop_assert_eq!(want.len(), got_tree.len());
        for i in 0..want.len() {
            prop_assert!((want[i] - got_grid[i]).abs() < 1e-9, "grid k={i}");
            prop_assert!((want[i] - got_tree[i]).abs() < 1e-9, "tree k={i}");
        }
        // knn is sorted ascending.
        for w in want.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        // kth_distance consistency.
        if want.len() == k {
            prop_assert!((brute.kth_distance(&query, k).unwrap() - want[k - 1]).abs() < 1e-12);
        } else {
            prop_assert!(brute.kth_distance(&query, k).is_none());
        }
    }

    /// `satisfies` equals `count_within >= eta` on every backend.
    #[test]
    fn satisfies_agreement(
        points in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 2), 1..40),
        q in prop::collection::vec(-10.0f64..10.0, 2),
        eps in 0.5f64..10.0,
        eta in 0usize..10,
    ) {
        let rows = to_rows(points);
        let query: Vec<Value> = q.into_iter().map(Value::Num).collect();
        let dist = TupleDistance::numeric(2);
        let brute = BruteForceIndex::new(&rows, dist.clone());
        let tree = Index::vp_tree(&rows, dist);
        let want = brute.count_within(&query, eps) >= eta;
        prop_assert_eq!(brute.satisfies(&query, eps, eta), want);
        prop_assert_eq!(tree.satisfies(&query, eps, eta), want);
    }

    /// Range results agree between grid and brute force under every norm,
    /// including queries far outside the indexed bounding box. Before the
    /// norm-aware cell-span diameter this failed for L1 / Lp(3): the grid's
    /// k-NN exhaustion radius assumed L2 and stopped expanding too early.
    #[test]
    fn grid_range_agreement_all_norms(
        points in prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 3), 1..50),
        q in prop::collection::vec(-500.0f64..500.0, 3),
        eps in 0.1f64..600.0,
        cell in 0.5f64..10.0,
        norm_idx in 0usize..NORMS.len(),
    ) {
        let rows = to_rows(points);
        let query: Vec<Value> = q.into_iter().map(Value::Num).collect();
        let dist = TupleDistance::new(vec![Metric::Absolute; 3], NORMS[norm_idx]);
        let brute = BruteForceIndex::new(&rows, dist.clone());
        let grid = Index::grid(&rows, dist, cell).unwrap();
        let canon = |mut v: Vec<(u32, f64)>| {
            v.sort_by_key(|a| a.0);
            v.into_iter().map(|(i, d)| (i, (d * 1e9).round())).collect::<Vec<_>>()
        };
        prop_assert_eq!(canon(grid.range(&query, eps)), canon(brute.range(&query, eps)));
    }

    /// knn results agree between grid and brute force under every norm,
    /// including queries far outside the indexed bounding box (the grid
    /// falls back to an expanding radius search there, whose termination
    /// bound depends on a norm-correct cell-span diameter).
    #[test]
    fn grid_knn_agreement_all_norms(
        near in prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 3), 1..6),
        far in prop::collection::vec(prop::collection::vec(100.0f64..300.0, 3), 1..6),
        q in prop::collection::vec(-300.0f64..0.0, 3),
        k in 1usize..10,
        cell in 0.5f64..5.0,
        norm_idx in 0usize..NORMS.len(),
    ) {
        // Two sparse clusters with a wide gap: the geometry where an
        // underestimated exhaustion radius stops the expanding search
        // after the near cluster and silently drops the far neighbors.
        let rows = to_rows(near.into_iter().chain(far).collect());
        let query: Vec<Value> = q.into_iter().map(Value::Num).collect();
        let dist = TupleDistance::new(vec![Metric::Absolute; 3], NORMS[norm_idx]);
        let brute = BruteForceIndex::new(&rows, dist.clone());
        let grid = Index::grid(&rows, dist, cell).unwrap();
        let want: Vec<f64> = brute.knn(&query, k).into_iter().map(|(_, d)| d).collect();
        let got: Vec<f64> = grid.knn(&query, k).into_iter().map(|(_, d)| d).collect();
        prop_assert_eq!(want.len(), got.len(), "grid dropped neighbors");
        for i in 0..want.len() {
            prop_assert!((want[i] - got[i]).abs() < 1e-9, "k={i}");
        }
    }

    /// Sorted-column balls agree with a scan and distinct values are the
    /// sorted deduped column.
    #[test]
    fn sorted_column_agreement(
        vals in prop::collection::vec(-100.0f64..100.0, 1..50),
        q in -100.0f64..100.0,
        eps in 0.0f64..50.0,
    ) {
        let rows: Vec<Vec<Value>> = vals.iter().map(|&x| vec![Value::Num(x)]).collect();
        let col = SortedColumn::new(&rows, 0).unwrap();
        let mut got: Vec<u32> = col.ball(q, eps).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = vals
            .iter()
            .enumerate()
            .filter(|(_, &x)| (x - q).abs() <= eps)
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert_eq!(col.ball_size(q, eps), col.ball(q, eps).count());
        let distinct = col.distinct_values();
        for w in distinct.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }
}
