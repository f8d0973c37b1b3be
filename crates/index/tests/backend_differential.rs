//! Cross-backend differential battery for the packed numeric kernels.
//!
//! Every backend (brute, grid, VP-tree, and a `DynamicIndex` grown one
//! row at a time) must agree on range, k-NN and restricted k-NN
//! (`knn_where`) results under L1/L2/L∞/Lp(3), with the packed kernels
//! both on and off. The oracle
//! is the brute-force scan with packing disabled — the pure `Value`
//! path — so any divergence pins the kernel itself, not two backends
//! drifting together. The determinism contract: distances are
//! bitwise-equal for L1/L∞ and within 1 ulp for L2/Lp (in practice the
//! kernels mirror the `Value` path bit for bit; the looser bound is the
//! public contract).

use disc_distance::{Metric, Norm, TupleDistance, Value};
use disc_index::{BruteForceIndex, DynamicIndex, Index, NeighborIndex};
use proptest::prelude::*;

const NORMS: [Norm; 4] = [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)];

fn to_rows(flat: &[f64], m: usize) -> Vec<Vec<Value>> {
    flat.chunks_exact(m)
        .map(|chunk| chunk.iter().map(|&x| Value::Num(x)).collect())
        .collect()
}

fn with_norm(m: usize, norm: Norm) -> TupleDistance {
    TupleDistance::new(vec![Metric::Absolute; m], norm)
}

/// ≤ 1 ulp apart (valid for non-negative finite doubles).
fn within_one_ulp(a: f64, b: f64) -> bool {
    a.to_bits().abs_diff(b.to_bits()) <= 1
}

/// Asserts `got` matches the oracle `want`: same ids in the same order,
/// distances bitwise-equal for L1/L∞ and ≤ 1 ulp for L2/Lp. Inputs must
/// already be in a canonical order.
fn assert_hits_match(norm: Norm, got: &[(u32, f64)], want: &[(u32, f64)], label: &str) {
    assert_eq!(
        got.iter().map(|h| h.0).collect::<Vec<_>>(),
        want.iter().map(|h| h.0).collect::<Vec<_>>(),
        "{label} {norm:?}: id sets differ"
    );
    for (g, w) in got.iter().zip(want) {
        match norm {
            Norm::L1 | Norm::LInf => assert_eq!(
                g.1.to_bits(),
                w.1.to_bits(),
                "{label} {norm:?} id {}: {} vs {} not bitwise-equal",
                g.0,
                g.1,
                w.1
            ),
            _ => assert!(
                within_one_ulp(g.1, w.1),
                "{label} {norm:?} id {}: {} vs {} differ by > 1 ulp",
                g.0,
                g.1,
                w.1
            ),
        }
    }
}

fn sort_by_id(mut hits: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
    hits.sort_by_key(|h| h.0);
    hits
}

/// A `DynamicIndex` grown by inserting `rows` one at a time, exercising
/// the packed tail appends and any backend upgrades along the way.
fn grown(rows: &[Vec<Value>], dist: &TupleDistance, eps_hint: f64) -> DynamicIndex {
    let mut idx = DynamicIndex::new(dist.clone(), eps_hint);
    for row in rows {
        idx.insert(row.clone());
    }
    idx
}

/// Runs `check` against every backend × packed-on/off combination.
fn for_each_backend(
    rows: &[Vec<Value>],
    m: usize,
    norm: Norm,
    cell: f64,
    mut check: impl FnMut(&str, &dyn NeighborIndex),
) {
    let on = with_norm(m, norm);
    let off = on.clone().with_packed(false);
    for (mode, dist) in [("packed", &on), ("value", &off)] {
        let brute = BruteForceIndex::new(rows, dist.clone());
        check(&format!("brute/{mode}"), &brute);
        let grid = Index::grid(rows, dist.clone(), cell).unwrap();
        check(&format!("grid/{mode}"), &grid);
        let tree = Index::vp_tree(rows, dist.clone());
        check(&format!("vptree/{mode}"), &tree);
        let dynamic = grown(rows, dist, cell);
        check(&format!("dynamic/{mode}"), &dynamic);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Range queries: all backends, packed on and off, reproduce the
    /// `Value`-path brute-force oracle under every norm.
    #[test]
    fn range_differential(
        flat in prop::collection::vec(-40.0f64..40.0, 1..330),
        qf in prop::collection::vec(-40.0f64..40.0, 4),
        m in 1usize..5,
        eps in 0.05f64..30.0,
        cell in 0.3f64..5.0,
    ) {
        prop_assume!(flat.len() >= m);
        let rows = to_rows(&flat, m);
        let query: Vec<Value> = qf[..m].iter().map(|&x| Value::Num(x)).collect();
        for norm in NORMS {
            let oracle = BruteForceIndex::new(&rows, with_norm(m, norm).with_packed(false));
            let want = sort_by_id(oracle.range(&query, eps));
            for_each_backend(&rows, m, norm, cell, |label, idx| {
                let got = sort_by_id(idx.range(&query, eps));
                assert_hits_match(norm, &got, &want, label);
            });
        }
    }

    /// k-NN queries: same agreement, including the k-th distance.
    #[test]
    fn knn_differential(
        flat in prop::collection::vec(-40.0f64..40.0, 1..220),
        qf in prop::collection::vec(-40.0f64..40.0, 4),
        m in 1usize..5,
        k in 1usize..12,
        cell in 0.3f64..5.0,
    ) {
        prop_assume!(flat.len() >= m);
        let rows = to_rows(&flat, m);
        let query: Vec<Value> = qf[..m].iter().map(|&x| Value::Num(x)).collect();
        for norm in NORMS {
            let oracle = BruteForceIndex::new(&rows, with_norm(m, norm).with_packed(false));
            let want = oracle.knn(&query, k);
            for_each_backend(&rows, m, norm, cell, |label, idx| {
                let got = idx.knn(&query, k);
                assert_hits_match(norm, &got, &want, label);
                assert_eq!(
                    idx.kth_distance(&query, k).is_some(),
                    want.len() >= k,
                    "{label} {norm:?}"
                );
            });
        }
    }

    /// Mixed-validity data: rows holding nulls or non-finite numbers fall
    /// back per row, and the backends that accept such rows (brute,
    /// VP-tree, dynamic) reproduce the `Value` oracle for range and k-NN
    /// queries, also from a query holding a null. A null is at 1 from
    /// every number, which breaks the triangle inequality the tree
    /// prunes with, so the tree keeps such rows in a side list.
    #[test]
    fn range_differential_with_invalid_rows(
        flat in prop::collection::vec(-40.0f64..40.0, 2..200),
        qf in prop::collection::vec(-40.0f64..40.0, 2),
        poison in prop::collection::vec(0usize..100, 1..8),
        null_at in 0usize..4,
        eps in 0.05f64..30.0,
        k in 1usize..12,
    ) {
        let m = 2usize;
        let mut rows = to_rows(&flat, m);
        let n = rows.len();
        for (j, p) in poison.iter().enumerate() {
            let row = &mut rows[p % n];
            row[j % m] = if p % 3 == 0 {
                Value::Null
            } else if p % 3 == 1 {
                Value::Num(f64::NAN)
            } else {
                Value::Num(f64::INFINITY)
            };
        }
        let mut query: Vec<Value> = qf.iter().map(|&x| Value::Num(x)).collect();
        if let Some(cell) = query.get_mut(null_at) {
            *cell = Value::Null;
        }
        for norm in NORMS {
            let on = with_norm(m, norm);
            let off = on.clone().with_packed(false);
            let oracle = BruteForceIndex::new(&rows, off.clone());
            let want = sort_by_id(oracle.range(&query, eps));
            let want_knn = oracle.knn(&query, k);
            for (mode, dist) in [("packed", &on), ("value", &off)] {
                let brute = BruteForceIndex::new(&rows, dist.clone());
                let tree = Index::vp_tree(&rows, dist.clone());
                let dynamic = grown(&rows, dist, 1.0);
                let backends: [(&str, &dyn NeighborIndex); 3] =
                    [("brute", &brute), ("vptree", &tree), ("dynamic", &dynamic)];
                for (backend, idx) in backends {
                    let label = format!("{backend}/{mode}");
                    assert_hits_match(norm, &sort_by_id(idx.range(&query, eps)), &want, &label);
                    assert_hits_match(norm, &idx.knn(&query, k), &want_knn, &label);
                }
            }
        }
    }
}

/// Above `BRUTE_MAX` (512) and at low arity the dynamic index runs its
/// grid backend; the proptest sizes stay below that, so pin it here.
#[test]
fn dynamic_grid_backend_differential() {
    let mut state = 42u64;
    let mut flat = Vec::new();
    for _ in 0..700 * 3 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        flat.push(((state >> 33) % 2000) as f64 / 25.0);
    }
    let rows = to_rows(&flat, 3);
    let query = vec![Value::Num(40.0), Value::Num(10.0), Value::Num(70.0)];
    for norm in NORMS {
        let on = with_norm(3, norm);
        let idx = grown(&rows, &on, 1.0);
        assert_eq!(idx.backend_name(), "grid", "{norm:?}");
        let oracle = BruteForceIndex::new(&rows, on.clone().with_packed(false));
        for eps in [0.5, 4.0, 25.0] {
            let want = sort_by_id(oracle.range(&query, eps));
            let got = sort_by_id(idx.range(&query, eps));
            assert_hits_match(norm, &got, &want, "dynamic-grid");
        }
        for k in [1, 9, 40] {
            assert_hits_match(
                norm,
                &idx.knn(&query, k),
                &oracle.knn(&query, k),
                "dynamic-grid-knn",
            );
        }
    }
}

/// At arity 5 the dynamic index upgrades to its VP backend, and the last
/// rows sit in the scanned tail buffer.
#[test]
fn dynamic_vp_backend_differential() {
    let mut state = 99u64;
    let mut flat = Vec::new();
    for _ in 0..600 * 5 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        flat.push(((state >> 33) % 2000) as f64 / 25.0);
    }
    let rows = to_rows(&flat, 5);
    let query = vec![Value::Num(40.0); 5];
    for norm in NORMS {
        let on = with_norm(5, norm);
        let idx = grown(&rows, &on, 1.0);
        assert_eq!(idx.backend_name(), "vp", "{norm:?}");
        let oracle = BruteForceIndex::new(&rows, on.clone().with_packed(false));
        for eps in [1.0, 10.0, 40.0] {
            let want = sort_by_id(oracle.range(&query, eps));
            let got = sort_by_id(idx.range(&query, eps));
            assert_hits_match(norm, &got, &want, "dynamic-vp");
        }
        for k in [1, 9, 40] {
            assert_hits_match(
                norm,
                &idx.knn(&query, k),
                &oracle.knn(&query, k),
                "dynamic-vp-knn",
            );
        }
    }
}

/// Finite coordinates so far out that their grid cell index would push
/// the key arithmetic (key spans, query offsets, the radius in cells)
/// past `i64` get no grid cell: `Index::grid` refuses them, `Index::auto`
/// picks the VP tree, and a grown index migrates to it — all agreeing
/// with the oracle, as does a grid over the other rows asked about a
/// query farther out still.
#[test]
fn far_out_coordinates_have_no_grid_cell() {
    let mut rows: Vec<Vec<Value>> = (0..600)
        .map(|i| {
            vec![
                Value::Num(0.1 * (i % 30) as f64),
                Value::Num(0.1 * (i / 30) as f64),
            ]
        })
        .collect();
    rows.push(vec![Value::Num(3e18), Value::Num(0.0)]);
    rows.push(vec![Value::Num(-3e18), Value::Num(0.0)]);
    let query = vec![Value::Num(-9e18), Value::Num(0.0)];
    for norm in NORMS {
        let dist = with_norm(2, norm);
        let err = Index::grid(&rows, dist.clone(), 0.5).err();
        assert_eq!(err.map(|e| (e.row, e.attr)), Some((600, 0)), "{norm:?}");

        let auto = Index::auto(&rows, dist.clone(), 0.5);
        assert_eq!(auto.backend_name(), "vp", "{norm:?}");
        let mut grown = DynamicIndex::new(dist.clone(), 0.5);
        for (i, row) in rows.iter().enumerate() {
            if i == 600 {
                assert_eq!(grown.backend_name(), "grid", "{norm:?}");
            }
            grown.insert(row.clone());
        }
        assert_eq!(grown.backend_name(), "vp", "{norm:?}");

        let near = Index::grid(&rows[..600], dist.clone(), 0.5).unwrap();

        let oracle = BruteForceIndex::new(&rows, dist.clone().with_packed(false));
        let near_oracle = BruteForceIndex::new(&rows[..600], dist.with_packed(false));
        if norm == Norm::L2 {
            assert_eq!(
                oracle.knn(&query, 3),
                vec![(601, 6e18), (0, 9e18), (1, 9e18)]
            );
        }
        for (label, idx, oracle) in [
            ("auto", &auto as &dyn NeighborIndex, &oracle),
            ("grown", &grown, &oracle),
            ("grid", &near, &near_oracle),
        ] {
            for q in [&query, &vec![Value::Num(1.237), Value::Num(0.871)]] {
                for eps in [0.5, 6e18, 1e19] {
                    let want = sort_by_id(oracle.range(q, eps));
                    assert_hits_match(norm, &sort_by_id(idx.range(q, eps)), &want, label);
                }
                for k in [1, 3, 40] {
                    assert_hits_match(norm, &idx.knn(q, k), &oracle.knn(q, k), label);
                }
            }
        }
    }
}

/// Numbers under a `Discrete` metric have grid cells, but the grid's
/// window assumes a per-coordinate gap bounds the distance from below,
/// which `Discrete` (0 or 1, whatever the gap) does not: `Index::auto`
/// and a grown dynamic index must answer like the brute scan.
#[test]
fn auto_backend_respects_non_absolute_metrics() {
    let mut state = 5u64;
    let mut flat = Vec::new();
    for i in 0..600 * 2 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        flat.push(((state >> 33) % [10, 60][i % 2]) as f64);
    }
    let rows = to_rows(&flat, 2);
    let dist = TupleDistance::new(vec![Metric::Discrete; 2], Norm::L1);
    let query = vec![Value::Num(3.0), Value::Num(40.0)];
    let oracle = BruteForceIndex::new(&rows, dist.clone().with_packed(false));
    let want = sort_by_id(oracle.range(&query, 1.0));
    assert!(want.len() > 50, "{} hits", want.len());
    let auto = Index::auto(&rows, dist.clone(), 1.0);
    let grown = grown(&rows, &dist, 1.0);
    for (label, idx) in [("auto", &auto as &dyn NeighborIndex), ("grown", &grown)] {
        assert_hits_match(Norm::L1, &sort_by_id(idx.range(&query, 1.0)), &want, label);
        for k in [1, 9, 40] {
            assert_hits_match(Norm::L1, &idx.knn(&query, k), &oracle.knn(&query, k), label);
        }
    }
}

/// `n` rows on the lattice `{0.1, 1.1, 2.1, 3.1, 4.1}^m · s`, drawn by an
/// LCG: pairs a whole number of steps apart tie on distance, and with
/// ε a whole number of steps many lie exactly on the boundary, rounded
/// differently at each scale.
fn lattice(n: usize, m: usize, s: f64, seed: u64) -> Vec<Vec<Value>> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            (0..m)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    Value::Num(((state >> 33) % 5) as f64 * s + 0.1 * s)
                })
                .collect()
        })
        .collect()
}

/// The VP tree (built whole, and grown by a dynamic index past its brute
/// scan) returns exactly the brute scan's range and k-NN answers on the
/// lattice, where rows at exactly ε and k-th-distance ties are the rule:
/// the cases its triangle-inequality pruning must not drop under
/// rounding.
#[test]
fn vp_tree_is_exact_on_lattice_ties() {
    let norms = [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(1.5), Norm::Lp(3.0)];
    for s in [1.0, 0.1, 0.3, 1e-3, 7.0] {
        for m in [2, 3, 5, 7] {
            let rows = lattice(700, m, s, m as u64);
            let probes: Vec<&[Value]> = rows.iter().step_by(23).map(|r| &r[..]).collect();
            for norm in norms {
                let dist = with_norm(m, norm);
                let oracle = BruteForceIndex::new(&rows, dist.clone().with_packed(false));
                let tree = Index::vp_tree(&rows, dist.clone());
                let grown = grown(&rows, &dist, s);
                for (label, idx) in [("vptree", &tree as &dyn NeighborIndex), ("dynamic", &grown)] {
                    let label = format!("{label} s = {s}, m = {m}");
                    for q in &probes {
                        for eps in [s, 2.0 * s] {
                            let want = sort_by_id(oracle.range(q, eps));
                            assert_hits_match(norm, &sort_by_id(idx.range(q, eps)), &want, &label);
                        }
                        for k in [1, 6, 40] {
                            assert_hits_match(norm, &idx.knn(q, k), &oracle.knn(q, k), &label);
                        }
                    }
                }
            }
        }
    }
}

/// Asserts that `idx.knn_where` returns, for each probe and keep set, the
/// `Value`-path brute scan's k-NN over the kept rows, ids mapped back.
fn assert_knn_where<R: AsRef<[Vec<Value>]>>(
    idx: &Index<R>,
    keeps: &[Vec<bool>],
    probes: &[Vec<Value>],
    k: usize,
    label: &str,
) {
    let off = idx.distance().clone().with_packed(false);
    for keep in keeps {
        let kept: Vec<u32> = (0..keep.len() as u32)
            .filter(|&id| keep[id as usize])
            .collect();
        let rows: Vec<Vec<Value>> = kept
            .iter()
            .map(|&id| idx.rows()[id as usize].clone())
            .collect();
        let oracle = BruteForceIndex::new(&rows, off.clone());
        for q in probes {
            let want: Vec<(u32, f64)> = oracle
                .knn(q, k)
                .into_iter()
                .map(|(i, d)| (kept[i as usize], d))
                .collect();
            let got = idx.knn_where(q, k, |id| keep[id as usize]);
            let label = format!(
                "{label} {}, {} kept, query {q:?}",
                idx.backend_name(),
                kept.len()
            );
            assert_hits_match(off.norm(), &got, &want, &label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `knn_where` with a random, an empty and a full keep set returns the
    /// brute scan's k-NN over the kept rows, on lattice rows (ties at the
    /// k-th distance are the rule): brute (up to 512 rows), grid, a VP
    /// tree with `Null` and text rows on its side list, and indexes grown
    /// from either row set; one probe holds a `Null`.
    #[test]
    fn knn_where_matches_brute_force_over_the_kept_rows(
        small in 1usize..300,
        large in 530usize..700,
        m in 1usize..4,
        step in 0usize..3,
        k in 1usize..12,
        density in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let s = [1.0, 0.3, 7.0][step];
        for n in [small, large] {
            let numeric = lattice(n, m, s, seed);
            let mut mixed = numeric.clone();
            for i in (3..n).step_by(5) {
                mixed[i][i % m] = if i % 2 == 1 { Value::Null } else { Value::Text("x".into()) };
            }
            let random = lattice(n, 1, 1.0, !seed).iter().map(|c| c[0].as_num() < Some(density as f64)).collect();
            let keeps = [random, vec![false; n], vec![true; n]];
            let mut null_probe = numeric[0].clone();
            null_probe[0] = Value::Null;
            let probes = [numeric[n / 2].clone(), mixed[n - 1].clone(), vec![Value::Num(2.6 * s); m], null_probe];
            for norm in NORMS {
                let on = with_norm(m, norm);
                for (mode, dist) in [("packed", on.clone()), ("value", on.with_packed(false))] {
                    let label = format!("{mode} {norm:?}, n = {n}, m = {m}, s = {s}, k = {k}:");
                    let built = [
                        Index::auto(&numeric[..], dist.clone(), s),
                        Index::grid(&numeric[..], dist.clone(), s).unwrap(),
                        Index::vp_tree(&mixed[..], dist.clone()),
                        Index::auto(&mixed[..], dist.clone(), s),
                    ];
                    for idx in &built {
                        assert_knn_where(idx, &keeps, &probes, k, &label);
                    }
                    for rows in [&numeric, &mixed] {
                        assert_knn_where(&grown(rows, &dist, s), &keeps, &probes, k, &format!("grown {label}"));
                    }
                }
            }
        }
    }
}
