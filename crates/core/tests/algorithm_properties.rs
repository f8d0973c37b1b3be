//! Property tests for the DISC algorithm's core guarantees.

use disc_core::bounds::{lower_bound, upper_bound};
use disc_core::{detect_outliers, DistanceConstraints, RSet, SaverConfig};
use disc_distance::{AttrSet, Metric, Norm, TupleDistance, Value};
use proptest::prelude::*;

fn point(m: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-20.0f64..20.0, m)
}

fn to_rows(points: Vec<Vec<f64>>) -> Vec<Vec<Value>> {
    points
        .into_iter()
        .map(|p| p.into_iter().map(Value::Num).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Proposition 3 / Lemma 2: no feasible adjustment can cost less than
    /// the lower bound, verified by brute-forcing candidate adjustments
    /// from the tuple grid.
    #[test]
    fn no_feasible_adjustment_below_lower_bound(
        points in prop::collection::vec(point(2), 8..20),
        out in point(2),
    ) {
        let c = DistanceConstraints::new(1.0, 3);
        let dist = TupleDistance::numeric(2);
        let r = RSet::new(to_rows(points), dist.clone(), c);
        let t_o: Vec<Value> = out.into_iter().map(Value::Num).collect();
        if let Some(lb) = lower_bound(&r, &t_o, AttrSet::empty()) {
            // Candidate adjustments: every existing tuple and every mix of
            // the outlier's value with a tuple's value per attribute.
            for row in r.rows() {
                for mask in 0..4u8 {
                    let cand: Vec<Value> = (0..2)
                        .map(|a| if mask & (1 << a) != 0 { row[a].clone() } else { t_o[a].clone() })
                        .collect();
                    if r.is_feasible(&cand) {
                        let cost = dist.dist(&t_o, &cand);
                        prop_assert!(cost >= lb - 1e-9, "feasible candidate below lower bound");
                    }
                }
            }
        }
    }

    /// Proposition 5: the upper bound is itself feasible whenever it
    /// exists, keeps the unadjusted attributes, and Lemma 4 (X = ∅) gives
    /// the nearest feasible tuple.
    #[test]
    fn upper_bound_feasibility(
        points in prop::collection::vec(point(3), 8..24),
        out in point(3),
        x_bits in 0u64..8,
    ) {
        let c = DistanceConstraints::new(1.5, 2);
        let r = RSet::new(to_rows(points), TupleDistance::numeric(3), c);
        let t_o: Vec<Value> = out.into_iter().map(Value::Num).collect();
        let x = AttrSet(x_bits);
        if let Some((adj, cost)) = upper_bound(&r, &t_o, x) {
            prop_assert!(r.is_feasible(&adj));
            prop_assert!(cost >= 0.0);
            for a in x.iter() {
                prop_assert!(adj[a].same(&t_o[a]), "unadjusted attribute {a} changed");
            }
        }
    }

    /// Algorithm 1's result is feasible, respects κ, and its cost is
    /// bracketed by the bounds.
    #[test]
    fn saver_respects_kappa_and_bounds(
        points in prop::collection::vec(point(3), 10..24),
        out in point(3),
        kappa in 1usize..4,
    ) {
        let c = DistanceConstraints::new(1.5, 2);
        let dist = TupleDistance::numeric(3);
        let saver = SaverConfig::new(c, dist.clone()).kappa(kappa).build_approx().unwrap();
        let r = saver.build_rset(to_rows(points));
        let t_o: Vec<Value> = out.into_iter().map(Value::Num).collect();
        if let Some(adj) = saver.save_one(&r, &t_o) {
            prop_assert!(r.is_feasible(&adj.values));
            prop_assert!(adj.adjusted.len() <= kappa, "κ violated");
            prop_assert!((dist.dist(&t_o, &adj.values) - adj.cost).abs() < 1e-9);
            if let Some(lb) = lower_bound(&r, &t_o, AttrSet::empty()) {
                prop_assert!(adj.cost >= lb - 1e-9);
            }
        }
    }

    /// Larger κ never yields a worse (higher-cost) adjustment.
    #[test]
    fn kappa_monotonicity(
        points in prop::collection::vec(point(2), 10..20),
        out in point(2),
    ) {
        let c = DistanceConstraints::new(1.2, 2);
        let dist = TupleDistance::numeric(2);
        let r = SaverConfig::new(c, dist.clone()).build_approx().unwrap().build_rset(to_rows(points));
        let t_o: Vec<Value> = out.into_iter().map(Value::Num).collect();
        let c1 = SaverConfig::new(c, dist.clone()).kappa(1).build_approx().unwrap().save_one(&r, &t_o);
        let c2 = SaverConfig::new(c, dist).kappa(2).build_approx().unwrap().save_one(&r, &t_o);
        match (c1, c2) {
            (Some(a1), Some(a2)) => prop_assert!(a2.cost <= a1.cost + 1e-9),
            (Some(_), None) => prop_assert!(false, "larger κ lost a solution"),
            _ => {}
        }
    }

    /// After `save_all`, every saved row satisfies the constraints against
    /// the final dataset, and unsaved outliers are bitwise untouched.
    #[test]
    fn save_all_postconditions(
        points in prop::collection::vec(point(2), 20..40),
        outs in prop::collection::vec(point(2), 1..4),
    ) {
        let c = DistanceConstraints::new(1.2, 3);
        let dist = TupleDistance::numeric(2);
        let mut rows = to_rows(points);
        rows.extend(to_rows(outs));
        let mut ds = disc_data::Dataset::from_rows(vec!["a".into(), "b".into()], rows);
        let before = ds.rows().to_vec();
        let saver = SaverConfig::new(c, dist.clone()).kappa(2).build_approx().unwrap();
        let report = saver.save_all(&mut ds);
        let after = detect_outliers(ds.rows(), &dist, c);
        for s in &report.saved {
            prop_assert!(!after.outliers.contains(&s.row), "saved row still violates");
        }
        for &row in &report.unsaved {
            prop_assert_eq!(ds.row(row), before[row].as_slice());
        }
        // Non-outlier rows are never modified.
        for (i, original) in before.iter().enumerate() {
            if !report.outliers.contains(&i) {
                prop_assert_eq!(ds.row(i), original.as_slice());
            }
        }
    }

    /// The exact saver's result is optimal over single-tuple substitutions
    /// (it explores a superset of those candidates).
    #[test]
    fn exact_beats_all_substitutions(
        points in prop::collection::vec(point(2), 8..16),
        out in point(2),
    ) {
        let c = DistanceConstraints::new(1.5, 2);
        let dist = TupleDistance::numeric(2);
        let exact = SaverConfig::new(c, dist.clone()).domain_cap(None).build_exact().unwrap();
        let r = exact.build_rset(to_rows(points));
        let t_o: Vec<Value> = out.into_iter().map(Value::Num).collect();
        if let Some(adj) = exact.save_one(&r, &t_o) {
            for row in r.rows() {
                if r.is_feasible(row) {
                    prop_assert!(adj.cost <= dist.dist(&t_o, row) + 1e-9);
                }
            }
        }
    }
}

/// The streaming engine's stability check as it reads per pair over
/// `Value`s (for `AbsoluteDiff` metrics and a node budget above the
/// lattice): the non-number fallback, the seed-flip test, then per host
/// the `δ_η` test, Prop. 3 leaving at the first prefix whose accumulated
/// `attr_dist` passes `C + ε`, and the walk over adjusted sets.
/// `DiscSaver::outcome_may_change` packs everything as `f64` and tests
/// Prop. 3 once on the full accumulation; it must answer as this does.
fn reference_may_change(
    dist: &TupleDistance,
    eps: f64,
    kappa: usize,
    t_o: &[Value],
    cost: Option<f64>,
    added: &[(Vec<Value>, f64)],
    tightened: &[(Vec<Value>, f64)],
) -> bool {
    let (m, norm) = (dist.arity(), dist.norm());
    if t_o.iter().any(|v| v.as_num().is_none()) {
        return true;
    }
    let rel = (m as f64 + 1.0) * f64::EPSILON;
    let scale = norm.exponent().map_or(rel, |p| rel.powf(1.0 / p));
    let tol = 4.0 * rel * eps;
    let bound = cost.map(|c| c + 4.0 * scale * (c + eps));
    let near = |u: &[Value]| {
        (0..m).any(|a| {
            let scale = eps + t_o[a].as_num().map_or(0.0, f64::abs);
            dist.attr_dist(a, &t_o[a], &u[a]) <= eps + 4.0 * f64::EPSILON * scale
        })
    };
    if m - kappa >= 2 && added.iter().any(|(u, _)| near(u)) {
        return true;
    }
    let over = |d: &[f64], set: AttrSet| {
        norm.finish(
            set.iter()
                .fold(norm.init(), |acc, a| norm.accumulate(acc, d[a])),
        )
    };
    fn walk(
        over: &dyn Fn(AttrSet) -> f64,
        (m, kappa, bound, reach): (usize, usize, Option<f64>, f64),
        y: AttrSet,
        from: usize,
    ) -> bool {
        if bound.is_some_and(|bound| over(y) > bound) {
            return false;
        }
        if over(y.complement(m)) <= reach {
            return true;
        }
        let knobs = (m, kappa, bound, reach);
        y.len() < kappa && (from..m).any(|a| !y.contains(a) && walk(over, knobs, y.with(a), a + 1))
    }
    let may_host = |u: &[Value], delta_eta: f64| {
        if delta_eta > eps + tol {
            return false;
        }
        let limit = bound.map_or(f64::INFINITY, |bound| norm.to_acc(bound + eps + tol));
        let mut d = vec![0.0; m];
        let mut full = norm.init();
        for a in 0..m {
            d[a] = dist.attr_dist(a, &t_o[a], &u[a]);
            full = norm.accumulate(full, d[a]);
            if full > limit {
                return false;
            }
        }
        let reach = eps - delta_eta + tol;
        let forced: AttrSet = (0..m).filter(|&a| d[a] > reach).collect();
        forced.len() <= kappa && walk(&|set| over(&d, set), (m, kappa, bound, reach), forced, 0)
    };
    added
        .iter()
        .chain(tightened)
        .any(|(u, delta_eta)| may_host(u, *delta_eta))
}

/// Packed hosts in the borrowed form `outcome_may_change` takes.
fn borrow(hosts: &[(Vec<f64>, f64)]) -> Vec<(&[f64], f64)> {
    hosts.iter().map(|(u, d)| (u.as_slice(), *d)).collect()
}

/// `x` moved `steps` ulps (−1, 0 or +1).
fn nudge(x: f64, steps: i64) -> f64 {
    match steps {
        -1 => x.next_down(),
        1 => x.next_up(),
        _ => x,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `f64` stability check answers as the per-pair `Value`
    /// reference under L¹, L², L^∞ and L³, on hosts placed at the edges
    /// of its tests: `Δ(t_o, u)` at `C + ε + tol` on one attribute, split
    /// (under every norm) into `ε − δ_η + tol` on a kept attribute plus
    /// `C + slack` on an adjusted one, each one ulp either side; `δ_η`
    /// at `0`, at `ε + tol` and one ulp either side; an attribute at the
    /// ε-ball's edge; and random rows. Dyadic ε, `C` and `t_o` keep the
    /// sums exact, so the edges are hit, not just approached.
    #[test]
    fn f64_stability_check_matches_the_per_pair_reference(
        norm_pick in 0usize..4,
        m in 2usize..5,
        kappa_pick in 0usize..4,
        eps_pick in 0usize..4,
        eps_random in 0.05f64..2.0,
        cost_pick in 0usize..4,
        cost_eighths in 0u32..24,
        cost_random in 0.0f64..3.0,
        t_quarters in prop::collection::vec(-8i32..9, 4),
        null_at in 0usize..12,
        attrs in prop::collection::vec(0usize..4, 8),
        noise in prop::collection::vec(-3.0f64..3.0, 16),
    ) {
        let norm = [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)][norm_pick];
        let kappa = 1 + kappa_pick % m;
        let eps = [0.5, 1.0, 0.375, eps_random][eps_pick];
        let cost = [
            None,
            Some(f64::from(cost_eighths) / 8.0),
            Some(cost_random),
            Some(0.0),
        ][cost_pick];
        let dist = TupleDistance::new(vec![Metric::Absolute; m], norm);
        let saver = SaverConfig::new(DistanceConstraints::new(eps, 4), dist.clone())
            .kappa(kappa)
            .build_approx()
            .unwrap();
        let mut t_o: Vec<Value> = t_quarters[..m]
            .iter()
            .map(|&q| Value::Num(f64::from(q) / 4.0))
            .collect();
        if null_at < m {
            t_o[null_at] = Value::Null;
        }
        let t = |a: usize| t_o[a].as_num().unwrap_or(0.0);

        // The check's margins, as it computes them.
        let rel = (m as f64 + 1.0) * f64::EPSILON;
        let scale = norm.exponent().map_or(rel, |p| rel.powf(1.0 / p));
        let tol = 4.0 * rel * eps;
        let bound = cost.map(|c| c + 4.0 * scale * (c + eps));
        let far = bound.map_or(eps + tol + 1.0, |bound| bound + eps + tol);
        let (k, j) = (attrs[0] % m, (attrs[0] + 1 + attrs[1] % (m - 1)) % m);

        // (row offsets from t_o, δ_η) for every host.
        let mut hosts: Vec<(Vec<f64>, f64)> = Vec::new();
        let edge = eps + tol;
        for delta_eta in [0.0, edge.next_down(), edge, edge.next_up(), noise[0].abs() * eps] {
            for steps in -1..=1 {
                let mut single = vec![0.0; m];
                single[k] = nudge(far, steps);
                hosts.push((single, delta_eta));
                let mut split = vec![0.0; m];
                split[k] = (eps - delta_eta + tol).max(0.0);
                split[j] = nudge(bound.unwrap_or(1.0), steps);
                hosts.push((split, delta_eta));
                let mut ball = vec![2.0 * eps + 1.0; m];
                ball[k] = nudge(eps + 4.0 * f64::EPSILON * (eps + t(k).abs()), steps);
                hosts.push((ball, delta_eta));
            }
            let random: Vec<f64> = (0..m)
                .map(|a| noise[1 + (a + attrs[2]) % 15] * (eps + cost.unwrap_or(1.0)))
                .collect();
            hosts.push((random, delta_eta));
        }
        let rows: Vec<(Vec<Value>, f64)> = hosts
            .iter()
            .map(|(off, delta_eta)| {
                let u = (0..m).map(|a| Value::Num(t(a) + off[a])).collect();
                (u, *delta_eta)
            })
            .collect();
        let packed: Vec<(Vec<f64>, f64)> = rows
            .iter()
            .map(|(u, delta_eta)| (u.iter().map(|v| v.as_num().unwrap()).collect(), *delta_eta))
            .collect();
        // Each host alone, as a new inlier and as a tightened one, then
        // all of them split between the two.
        let reference = |added: &[(Vec<Value>, f64)], tightened: &[(Vec<Value>, f64)]| {
            reference_may_change(&dist, eps, kappa, &t_o, cost, added, tightened)
        };
        for (row, host) in rows.iter().zip(&packed) {
            let (row, one) = (std::slice::from_ref(row), borrow(std::slice::from_ref(host)));
            let got = saver.outcome_may_change(&t_o, cost, &one, &[]);
            prop_assert_eq!(got, reference(row, &[]), "added {:?}", row);
            let got = saver.outcome_may_change(&t_o, cost, &[], &one);
            prop_assert_eq!(got, reference(&[], row), "tightened {:?}", row);
        }
        let cut = attrs[3] % rows.len().max(1);
        let (added, tightened) = (borrow(&packed[..cut]), borrow(&packed[cut..]));
        let got = saver.outcome_may_change(&t_o, cost, &added, &tightened);
        prop_assert_eq!(got, reference(&rows[..cut], &rows[cut..]));
    }
}
