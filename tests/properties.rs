//! Property-based tests on the core invariants of the DISC system.

use disc::core::bounds::{lower_bound, upper_bound};
use disc::prelude::*;
use disc_distance::check_metric_axioms;
use proptest::prelude::*;

fn value_vec(m: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, m)
}

fn small_rset(points: Vec<Vec<f64>>, eps: f64, eta: usize) -> disc::core::RSet {
    let rows: Vec<Vec<Value>> = points
        .into_iter()
        .map(|p| p.into_iter().map(Value::Num).collect())
        .collect();
    disc::core::RSet::new(
        rows,
        TupleDistance::numeric(2),
        DistanceConstraints::new(eps, eta),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Metric axioms of every per-attribute distance on arbitrary values.
    #[test]
    fn metric_axioms_numeric(a in -1e6f64..1e6, b in -1e6f64..1e6, c in -1e6f64..1e6) {
        let (va, vb, vc) = (Value::Num(a), Value::Num(b), Value::Num(c));
        check_metric_axioms(&disc_distance::AbsoluteDiff, &va, &vb, &vc).unwrap();
        check_metric_axioms(&disc_distance::DiscreteDistance, &va, &vb, &vc).unwrap();
    }

    /// Metric axioms of string distances on arbitrary short strings.
    #[test]
    fn metric_axioms_strings(a in "[a-zA-Z0-9]{0,8}", b in "[a-zA-Z0-9]{0,8}", c in "[a-zA-Z0-9]{0,8}") {
        let (va, vb, vc) = (Value::Text(a), Value::Text(b), Value::Text(c));
        check_metric_axioms(&disc_distance::EditDistance, &va, &vb, &vc).unwrap();
        check_metric_axioms(&disc_distance::NeedlemanWunsch::default(), &va, &vb, &vc).unwrap();
    }

    /// Tuple-level triangle inequality and subset monotonicity.
    #[test]
    fn tuple_distance_properties(a in value_vec(4), b in value_vec(4), c in value_vec(4)) {
        let dist = TupleDistance::numeric(4);
        let to_row = |v: &Vec<f64>| v.iter().map(|&x| Value::Num(x)).collect::<Vec<_>>();
        let (ra, rb, rc) = (to_row(&a), to_row(&b), to_row(&c));
        let dab = dist.dist(&ra, &rb);
        let dbc = dist.dist(&rb, &rc);
        let dac = dist.dist(&ra, &rc);
        prop_assert!(dac <= dab + dbc + 1e-9);
        // Monotonicity in the attribute set.
        let x12 = AttrSet::from_indices([1, 2]);
        let x123 = AttrSet::from_indices([1, 2, 3]);
        prop_assert!(dist.dist_on(x12, &ra, &rb) <= dist.dist_on(x123, &ra, &rb) + 1e-12);
        // dist_within agrees with dist.
        match dist.dist_within(&ra, &rb, dab + 1e-9) {
            Some(d) => prop_assert!((d - dab).abs() < 1e-9),
            None => prop_assert!(false, "dist_within rejected its own distance"),
        }
    }

    /// Lower bound ≤ DISC's cost ≤ upper bound, and the returned
    /// adjustment is feasible — the ordering Algorithm 1 relies on.
    #[test]
    fn bound_sandwich(
        points in prop::collection::vec(value_vec(2), 12..30),
        out in value_vec(2),
        eps in 0.5f64..3.0,
    ) {
        let eta = 3usize;
        let r = small_rset(points, eps, eta);
        let t_o: Vec<Value> = out.into_iter().map(Value::Num).collect();
        let saver = SaverConfig::new(DistanceConstraints::new(eps, eta), TupleDistance::numeric(2)).build_approx().unwrap();
        let lb = lower_bound(&r, &t_o, AttrSet::empty());
        let ub = upper_bound(&r, &t_o, AttrSet::empty());
        if let Some(adj) = saver.save_one(&r, &t_o) {
            prop_assert!(r.is_feasible(&adj.values), "infeasible adjustment");
            if let Some(lb) = lb {
                prop_assert!(adj.cost >= lb - 1e-9, "cost {} < lower bound {lb}", adj.cost);
            }
            if let Some((_, ub_cost)) = ub {
                prop_assert!(adj.cost <= ub_cost + 1e-9, "cost {} > upper bound {ub_cost}", adj.cost);
            }
        } else {
            // No solution implies the Lemma 4 upper bound did not exist.
            prop_assert!(ub.is_none(), "saver failed although an upper bound exists");
        }
    }

    /// The exact saver never returns a worse cost than the approximation
    /// when it searches the full active domain.
    #[test]
    fn exact_at_most_approx(
        points in prop::collection::vec(value_vec(2), 10..18),
        out in value_vec(2),
    ) {
        let c = DistanceConstraints::new(1.5, 3);
        let dist = TupleDistance::numeric(2);
        let approx = SaverConfig::new(c, dist.clone()).build_approx().unwrap();
        let exact = SaverConfig::new(c, dist).domain_cap(None).build_exact().unwrap();
        let r = approx.build_rset(
            points
                .into_iter()
                .map(|p| p.into_iter().map(Value::Num).collect())
                .collect(),
        );
        let t_o: Vec<Value> = out.into_iter().map(Value::Num).collect();
        let a = approx.save_one(&r, &t_o);
        let e = exact.save_one(&r, &t_o);
        match (a, e) {
            (Some(a), Some(e)) => prop_assert!(e.cost <= a.cost + 1e-9, "exact {} > approx {}", e.cost, a.cost),
            (Some(_), None) => prop_assert!(false, "approx found a solution exact missed"),
            _ => {}
        }
    }

    /// Clustering metrics are invariant under label permutation and
    /// bounded in their documented ranges.
    #[test]
    fn clustering_metric_invariants(labels in prop::collection::vec(0u32..4, 4..40)) {
        let truth: Vec<u32> = labels.iter().map(|&l| (l + 1) % 4).collect();
        let f1 = pairwise_f1(&labels, &truth);
        let nmi = normalized_mutual_information(&labels, &truth);
        let ari = adjusted_rand_index(&labels, &truth);
        prop_assert!((0.0..=1.0).contains(&f1));
        prop_assert!((0.0..=1.0).contains(&nmi));
        prop_assert!((-1.0..=1.0).contains(&ari));
        // Relabeling is a bijection here, so the partition is identical.
        prop_assert!((f1 - 1.0).abs() < 1e-9);
        prop_assert!((nmi - 1.0).abs() < 1e-9);
    }

    /// Index backends agree with brute force on range counts.
    #[test]
    fn index_backends_agree(
        points in prop::collection::vec(value_vec(2), 5..60),
        q in value_vec(2),
        eps in 0.1f64..20.0,
    ) {
        let rows: Vec<Vec<Value>> = points
            .into_iter()
            .map(|p| p.into_iter().map(Value::Num).collect())
            .collect();
        let query: Vec<Value> = q.into_iter().map(Value::Num).collect();
        let dist = TupleDistance::numeric(2);
        let brute = BruteForceIndex::new(&rows, dist.clone());
        let grid = Index::grid(&rows, dist.clone(), 1.0).unwrap();
        let tree = Index::vp_tree(&rows, dist);
        let want = brute.count_within(&query, eps);
        prop_assert_eq!(grid.count_within(&query, eps), want);
        prop_assert_eq!(tree.count_within(&query, eps), want);
    }
}
