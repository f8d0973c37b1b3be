//! The streaming engine's correctness anchor: after ANY sequence of
//! ingests, the engine's classification and saved dataset must be
//! identical to one batch `save_all` over the concatenated data.
//!
//! Why this holds: ε-neighbor counts only grow as rows append, so the
//! inlier set grows monotonically; when it grows, the engine re-saves
//! every outlier whose outcome the saver cannot prove stable (the
//! Prop. 3/5 check of `DiscSaver::outcome_may_change`; other savers, and
//! every saver once an inlier holds a non-number, re-save every
//! outlier), reverts promoted rows to their original values, and always
//! detects/saves against original values — exactly what a from-scratch
//! batch run sees. The property is checked bit-exactly (same outlier
//! set, same saved adjustments, same final rows), for sequential and
//! parallel workers; the per-prefix oracle checks it after every single
//! ingest, across norms, κ, batch sizes and tie-heavy integer data, with
//! and without `Null` cells. The last tests check the state under it:
//! after every ingest, each inlier's `δ_η` list equals its η nearest
//! inlier distances by brute force, bit for bit.

use disc_core::{DiscEngine, DistanceConstraints, Parallelism, SavedOutlier, SaverConfig};
use disc_data::{bit_equal, ClusterSpec, Dataset, ErrorInjector, Schema};
use disc_distance::{Metric, Norm, TupleDistance, Value};
use proptest::prelude::*;

/// Clustered data with injected dirty and natural errors.
fn dirty_dataset(n: usize, seed: u64, dirty: usize, natural: usize) -> Dataset {
    let mut ds = ClusterSpec::new(n, 3, 2, seed).generate();
    ErrorInjector::new(dirty, natural, seed ^ 0x9E37_79B9).inject(&mut ds);
    ds
}

fn saver(c: DistanceConstraints, workers: usize) -> SaverConfig {
    SaverConfig::new(c, TupleDistance::numeric(3))
        .kappa(2)
        .parallelism(Parallelism(workers))
}

/// Splits `rows` into `batches` runs of pseudo-random (but deterministic)
/// sizes summing to `rows.len()`; empty runs are allowed.
fn split_rows(rows: &[Vec<Value>], batches: usize, seed: u64) -> Vec<Vec<Vec<Value>>> {
    let mut cuts: Vec<usize> = (0..batches.saturating_sub(1))
        .map(|i| {
            let h = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((i as u64 + 1).wrapping_mul(1442695040888963407));
            (h % (rows.len() as u64 + 1)) as usize
        })
        .collect();
    cuts.push(0);
    cuts.push(rows.len());
    cuts.sort_unstable();
    cuts.windows(2).map(|w| rows[w[0]..w[1]].to_vec()).collect()
}

fn run_equivalence(
    base: &Dataset,
    c: DistanceConstraints,
    batches: usize,
    split_seed: u64,
    workers: usize,
) {
    // Batch reference: one save_all over everything.
    let mut batch_ds = base.clone();
    let batch_report = saver(c, workers)
        .build_approx()
        .unwrap()
        .save_all(&mut batch_ds);

    // Streamed: the same rows, in `batches` ingests.
    let mut engine = DiscEngine::new(
        Schema::numeric(base.arity()),
        Box::new(saver(c, workers).build_approx().unwrap()),
    );
    let mut streamed_saved: Vec<SavedOutlier> = Vec::new();
    for chunk in split_rows(base.rows(), batches, split_seed) {
        let report = engine.ingest(chunk).expect("finite synthetic data");
        assert!(!report.degraded, "no budget/panic in this test");
        // Re-saves this ingest supersede earlier outcomes for the row.
        streamed_saved.retain(|s| !report.outliers.contains(&s.row));
        streamed_saved.extend(report.saved.iter().cloned());
    }
    // Rows promoted to inliers after being saved were reverted and are
    // no longer saved outliers.
    streamed_saved.retain(|s| !engine.is_inlier(s.row));
    streamed_saved.sort_by_key(|s| s.row);

    // Same classification...
    prop_assert_eq!(
        engine.outliers(),
        batch_report.outliers.clone(),
        "outlier sets diverge"
    );
    // ...same saved rows with identical adjustments...
    prop_assert_eq!(&streamed_saved, &batch_report.saved, "saved rows diverge");
    // ...same final dataset, bit for bit.
    prop_assert_eq!(
        engine.dataset().rows(),
        batch_ds.rows(),
        "final rows diverge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn streamed_ingests_match_batch_save_all(
        n in 40usize..90,
        seed in 0u64..1000,
        dirty in 2usize..10,
        natural in 0usize..3,
        batches in 1usize..6,
        split_seed in 0u64..1000,
    ) {
        let base = dirty_dataset(n, seed, dirty, natural);
        let c = DistanceConstraints::new(2.5, 4);
        for workers in [1usize, 4] {
            run_equivalence(&base, c, batches, split_seed, workers);
        }
    }
}

/// A packed-off engine streamed in chunks must land on the same final
/// dataset as a packed-on batch run: the kernel toggle crosses the
/// streaming/batch seam without perturbing a single decision.
#[test]
fn packed_off_engine_matches_packed_on_batch() {
    let base = dirty_dataset(60, 11, 5, 1);
    let c = DistanceConstraints::new(2.5, 4);
    let mut batch_ds = base.clone();
    let batch_report = saver(c, 4).build_approx().unwrap().save_all(&mut batch_ds);
    let off = SaverConfig::new(c, TupleDistance::numeric(3).with_packed(false))
        .kappa(2)
        .parallelism(Parallelism(4));
    let mut engine = DiscEngine::new(
        Schema::numeric(base.arity()),
        Box::new(off.build_approx().unwrap()),
    );
    for chunk in base.rows().chunks(13) {
        engine.ingest(chunk.to_vec()).unwrap();
    }
    assert_eq!(engine.outliers(), batch_report.outliers);
    assert_eq!(engine.dataset().rows(), batch_ds.rows());
}

/// One-row batches are the worst case for the incremental path (every
/// ingest re-detects); the equivalence must still be exact.
#[test]
fn row_at_a_time_matches_batch() {
    let base = dirty_dataset(45, 7, 4, 1);
    let c = DistanceConstraints::new(2.5, 4);
    let mut batch_ds = base.clone();
    saver(c, 1).build_approx().unwrap().save_all(&mut batch_ds);
    let mut engine = DiscEngine::new(
        Schema::numeric(base.arity()),
        Box::new(saver(c, 1).build_approx().unwrap()),
    );
    for row in base.rows() {
        engine.ingest(vec![row.clone()]).unwrap();
    }
    assert_eq!(engine.dataset().rows(), batch_ds.rows());
}

/// The exact saver drives the engine through the same `Saver` seam.
#[test]
fn engine_with_exact_saver_matches_batch() {
    let base = dirty_dataset(40, 3, 3, 1);
    let c = DistanceConstraints::new(2.5, 4);
    let config = SaverConfig::new(c, TupleDistance::numeric(3)).parallelism(Parallelism(2));
    let mut batch_ds = base.clone();
    config
        .clone()
        .build_exact()
        .unwrap()
        .save_all(&mut batch_ds);
    let mut engine = DiscEngine::new(
        Schema::numeric(base.arity()),
        Box::new(config.build_exact().unwrap()),
    );
    for chunk in base.rows().chunks(17) {
        engine.ingest(chunk.to_vec()).unwrap();
    }
    assert_eq!(engine.dataset().rows(), batch_ds.rows());
}

/// The `(m, κ)` shapes of the per-prefix oracle; `None` is unrestricted.
const SHAPES: [(usize, Option<usize>); 7] = [
    (3, Some(1)),
    (3, Some(2)),
    (3, None),
    (4, Some(1)),
    (4, Some(2)),
    (4, Some(3)),
    (4, None),
];

/// Ingest sizes of the per-prefix oracle.
const BATCH_SIZES: [usize; 3] = [1, 3, 8];

/// SplitMix64, for the integer-grid generator.
struct Mix(u64);

impl Mix {
    fn below(&mut self, k: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % k
    }
}

/// `n` rows on the integer grid `{0,1,2}^m` — exact distance ties and
/// duplicate rows everywhere — with about one row in six pushed off the
/// grid on one or two attributes and, with `nulls`, one in eight holding
/// a `Null` (which `AbsoluteDiff` puts at 1 from every number).
fn integer_grid(n: usize, m: usize, seed: u64, nulls: bool) -> Vec<Vec<Value>> {
    let mut mix = Mix(seed);
    (0..n)
        .map(|_| {
            let mut row: Vec<Value> = (0..m).map(|_| Value::Num(mix.below(3) as f64)).collect();
            if mix.below(6) == 0 {
                for _ in 0..=mix.below(2) {
                    let a = mix.below(m as u64) as usize;
                    row[a] = Value::Num(5.0 + mix.below(4) as f64);
                }
            }
            if nulls && mix.below(8) == 0 {
                row[mix.below(m as u64) as usize] = Value::Null;
            }
            row
        })
        .collect()
}

/// Streams `rows` in ingests of `batch` rows and, after every ingest,
/// compares the engine bit for bit with one batch `save_all` over the
/// prefix ingested so far.
fn prefix_oracle(
    rows: &[Vec<Value>],
    shape: (usize, Option<usize>),
    norm: Norm,
    c: DistanceConstraints,
    batch: usize,
    workers: usize,
) {
    let (m, kappa) = shape;
    let mut config = SaverConfig::new(c, TupleDistance::new(vec![Metric::Absolute; m], norm))
        .parallelism(Parallelism(workers));
    if let Some(kappa) = kappa {
        config = config.kappa(kappa);
    }
    let batch_saver = config.clone().build_approx().unwrap();
    let mut engine = DiscEngine::new(Schema::numeric(m), Box::new(config.build_approx().unwrap()));
    for (k, chunk) in rows.chunks(batch).enumerate() {
        let report = engine.ingest(chunk.to_vec()).expect("finite data");
        assert!(!report.degraded, "no budget/panic in this test");
        let mut prefix = Dataset::new(Schema::numeric(m), rows[..engine.len()].to_vec());
        let expected = batch_saver.save_all(&mut prefix);
        let context = format!(
            "{norm:?}, m = {m}, κ = {kappa:?}, batch {batch}, after ingest {k} ({} rows)",
            engine.len()
        );
        prop_assert_eq!(
            engine.outliers(),
            expected.outliers,
            "outliers: {}",
            context
        );
        prop_assert!(
            bit_equal(engine.dataset().rows(), prefix.rows()),
            "rows diverge: {}",
            context
        );
    }
}

/// Every shape and ingest size over clustered data (ε = 2.5, η = 4) and
/// over the integer grid (ε = 1, η = 3), without and with `Null` cells,
/// for one norm.
fn prefix_oracle_matrix(norm: Norm, n: usize, seed: u64, workers: usize) {
    for shape in SHAPES {
        let (m, _) = shape;
        let mut clustered = ClusterSpec::new(n, m, 2, seed).generate();
        ErrorInjector::new(n / 8, 1, seed ^ 0x9E37_79B9).inject(&mut clustered);
        let grids = [false, true].map(|nulls| integer_grid(n, m, seed, nulls));
        for batch in BATCH_SIZES {
            let c = DistanceConstraints::new(2.5, 4);
            prefix_oracle(clustered.rows(), shape, norm, c, batch, workers);
            let c = DistanceConstraints::new(1.0, 3);
            for grid in &grids {
                prefix_oracle(grid, shape, norm, c, batch, workers);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn every_prefix_matches_batch_l1(n in 24usize..72, seed in 0u64..1_000_000, workers in 1usize..3) {
        prefix_oracle_matrix(Norm::L1, n, seed, workers);
    }

    #[test]
    fn every_prefix_matches_batch_l2(n in 24usize..72, seed in 0u64..1_000_000, workers in 1usize..3) {
        prefix_oracle_matrix(Norm::L2, n, seed, workers);
    }

    #[test]
    fn every_prefix_matches_batch_linf(n in 24usize..72, seed in 0u64..1_000_000, workers in 1usize..3) {
        prefix_oracle_matrix(Norm::LInf, n, seed, workers);
    }
}

/// `n` rows whose cells are `scale` times values at and around 1 (one
/// and two ulps above, one below, and `1 − 2·10⁻⁹`, just inside the
/// narrow-row margin), 0, ½ and 2 — so, with ε = `scale`, many pairs
/// differ by exactly ε, or by a hair more or less, on one attribute and
/// some `δ_η` land on ε or one ulp from it — with one row in ten
/// holding a `Null` (at 1 from every number under `AbsoluteDiff`).
/// A large `scale` makes L^p's rounded `1/p` exponent matter: a pair
/// just beyond ε can then report a distance a few ulps below it.
fn boundary_rows(n: usize, m: usize, seed: u64, scale: f64) -> Vec<Vec<Value>> {
    const CELLS: [f64; 8] = [
        0.0,
        1.0,
        1.0 + f64::EPSILON,       // one ulp above 1
        1.0 + 2.0 * f64::EPSILON, // two ulps above 1
        1.0 - f64::EPSILON / 2.0, // one ulp below 1
        1.0 - 2e-9,
        0.5,
        2.0,
    ];
    let mut mix = Mix(seed);
    (0..n)
        .map(|_| {
            let mut row: Vec<Value> = (0..m)
                .map(|_| match mix.below(3) {
                    0 => Value::Num(0.0),
                    _ => Value::Num(scale * CELLS[mix.below(CELLS.len() as u64) as usize]),
                })
                .collect();
            if mix.below(10) == 0 {
                row[mix.below(m as u64) as usize] = Value::Null;
            }
            row
        })
        .collect()
}

/// Streams `rows` in ingests of `batch` rows into an engine of `shards`
/// shards and, after every ingest, checks each inlier's exported `δ_η`
/// list against its η nearest inlier distances by brute force, bit for
/// bit.
fn lists_match_brute_force(
    rows: &[Vec<Value>],
    dist: &TupleDistance,
    c: DistanceConstraints,
    batch: usize,
    shards: usize,
) {
    let config = SaverConfig::new(c, dist.clone())
        .kappa(2)
        .parallelism(Parallelism(2));
    let m = dist.arity();
    let mut engine = DiscEngine::with_shards(
        Schema::numeric(m),
        Box::new(config.build_approx().unwrap()),
        shards,
    );
    for (k, chunk) in rows.chunks(batch).enumerate() {
        engine.ingest(chunk.to_vec()).expect("finite data");
        let state = engine.export_state();
        let inliers: Vec<usize> = (0..state.original.len())
            .filter(|&g| state.nearest.get(g).is_some())
            .collect();
        for &g in &inliers {
            let mut expected: Vec<f64> = inliers
                .iter()
                .map(|&h| dist.dist(&state.original[g], &state.original[h]))
                .collect();
            expected.sort_by(f64::total_cmp);
            expected.truncate(c.eta);
            let listed = state.nearest.get(g).unwrap();
            assert!(
                bit_equal_f64(listed, &expected),
                "{:?}, S = {shards}, batch {batch}, after ingest {k}: row {g} lists {listed:?}, brute force {expected:?}",
                dist.norm()
            );
        }
    }
}

fn bit_equal_f64(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// The engine's `δ_η` upkeep (phase 3: range-hit distances for
    /// narrow rows, direct distances for wide ones) keeps every list
    /// equal to brute force, under L¹, L², L^∞ and L³ (whose `powf` is
    /// not correctly rounded), for ingests of 1 and 8 rows at 1 and 3
    /// shards, on clustered data and on rows placed around ε.
    #[test]
    fn delta_eta_lists_match_brute_force(n in 24usize..64, seed in 0u64..1_000_000, eta in 2usize..4) {
        for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            let dist = TupleDistance::new(vec![Metric::Absolute; 3], norm);
            let mut clustered = ClusterSpec::new(n, 3, 2, seed).generate();
            ErrorInjector::new(n / 8, 1, seed ^ 0x9E37_79B9).inject(&mut clustered);
            for batch in [1, 8] {
                for shards in [1, 3] {
                    let c = DistanceConstraints::new(2.5, eta);
                    lists_match_brute_force(clustered.rows(), &dist, c, batch, shards);
                    for scale in [1.0, 2f64.powi(40)] {
                        let boundary = boundary_rows(n, 3, seed, scale);
                        let c = DistanceConstraints::new(scale, eta);
                        lists_match_brute_force(&boundary, &dist, c, batch, shards);
                    }
                }
            }
        }
    }
}

/// Rows on attribute 0 at `xs`, the other two attributes 0.
fn on_a_line(xs: &[f64]) -> Vec<Vec<Value>> {
    xs.iter()
        .map(|&x| vec![Value::Num(x), Value::Num(0.0), Value::Num(0.0)])
        .collect()
}

/// A new inlier's list read off its ε-range hits must count the rows of
/// its own ingest and the rows that ingest promotes. The first 8-row
/// ingest holds inliers C at 0.6–0.75 and an outlier P at −0.5 (ε = 1,
/// η = 3); the second brings Q at −0.4 to −0.1, which promote P. Each Q
/// also hits the C rows, pre-existing inliers within ε, but its three
/// nearest inliers are itself and rows among P and the other Qs.
#[test]
fn new_lists_count_rows_of_the_same_ingest_and_promoted_rows() {
    let rows = on_a_line(&[
        0.6, 0.65, 0.7, 0.75, -0.5, 5.0, 7.0, 9.0, // C, P, far outliers
        -0.4, -0.3, -0.2, -0.1, 15.0, 17.0, 19.0, 21.0, // Q, far outliers
    ]);
    for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
        let dist = TupleDistance::new(vec![Metric::Absolute; 3], norm);
        for shards in [1, 3] {
            lists_match_brute_force(&rows, &dist, DistanceConstraints::new(1.0, 3), 8, shards);
        }
    }
}

/// A new inlier whose nearest ε-range hits include an outlier must skip
/// it: X at 0 hits an outlier O at −0.45 (X is O's only neighbour) and
/// inliers C at 0.6–0.7 (ε = 1, η = 3), so X lists 0, 0.6, 0.65.
#[test]
fn new_lists_skip_outliers_among_the_hits() {
    let rows = on_a_line(&[0.6, 0.65, 0.7, -0.45, 5.0, 7.0, 9.0, 11.0, 0.0]);
    for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
        let dist = TupleDistance::new(vec![Metric::Absolute; 3], norm);
        for batch in [1, 8] {
            for shards in [1, 3] {
                lists_match_brute_force(
                    &rows,
                    &dist,
                    DistanceConstraints::new(1.0, 3),
                    batch,
                    shards,
                );
            }
        }
    }
}

/// A pinned case for the narrow-row margin. Under L³ at ε = 2⁴⁰ the
/// rounded `1/3` exponent reports a pair a hair beyond ε a few ulps
/// *below* ε: row j's third-nearest inlier q (two ulps beyond ε away)
/// sits at ε − 5 ulps, and the last row t (one ulp beyond ε away,
/// outside every ε-range query) at ε − 6 ulps. A rule that took j as
/// narrow because its `δ_η ≤ ε` would never see t; the margin keeps j
/// wide, so it observes t directly.
#[test]
fn narrow_margin_covers_powf_rounding() {
    let s = 2f64.powi(40);
    let at = |x: f64| vec![Value::Num(x), Value::Num(0.0), Value::Num(0.0)];
    let (j, t, q) = (
        at(0.0),
        at(s * (1.0 + f64::EPSILON)),
        at(s * (1.0 + 2.0 * f64::EPSILON)),
    );
    let rows = vec![
        j.clone(),
        at(s / 2.0),
        at(-0.6 * s), // j's second ε-neighbour, itself an outlier
        q.clone(),
        at(1.5 * s),
        t.clone(),
    ];
    let dist = TupleDistance::new(vec![Metric::Absolute; 3], Norm::Lp(3.0));
    assert!(
        dist.dist_within(&j, &t, s).is_none(),
        "t lies beyond ε of j"
    );
    assert!(
        dist.dist(&j, &t) < dist.dist(&j, &q),
        "yet reports nearer than q"
    );
    assert!(dist.dist(&j, &q) <= s);
    for batch in [1, 5] {
        for shards in [1, 3] {
            lists_match_brute_force(&rows, &dist, DistanceConstraints::new(s, 3), batch, shards);
        }
    }
}

/// `n` rows on the lattice `{0.1, 1.1, 2.1}^m · s`, drawn by an LCG:
/// whole-step distances tie, and with ε a whole number of steps many
/// pairs lie exactly on the boundary, rounded differently at each scale.
fn lattice(n: usize, m: usize, s: f64, seed: u64) -> Vec<Vec<Value>> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            (0..m)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    Value::Num(((state >> 33) % 3) as f64 * s + 0.1 * s)
                })
                .collect()
        })
        .collect()
}

/// At m = 5 and 1,100 rows both the batch saver and the engine's shards
/// search a VP tree, built whole in one and grown by 100-row ingests in
/// the other. On the lattice the two trees must still return the same
/// neighbours as a brute scan, rows at exactly ε and k-th-distance ties
/// included, or streamed and batch results part.
#[test]
fn streamed_matches_batch_on_a_five_attribute_lattice() {
    let m = 5;
    for s in [1e-3, 7.0] {
        let rows = lattice(1100, m, s, 2);
        for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            for (eps, eta) in [(s, 40), (s, 120), (2.0 * s, 40), (2.0 * s, 120)] {
                let dist = TupleDistance::new(vec![Metric::Absolute; m], norm);
                let config = SaverConfig::new(DistanceConstraints::new(eps, eta), dist).kappa(2);
                let mut batch = Dataset::new(Schema::numeric(m), rows.clone());
                config.clone().build_approx().unwrap().save_all(&mut batch);
                let mut engine =
                    DiscEngine::new(Schema::numeric(m), Box::new(config.build_approx().unwrap()));
                for chunk in rows.chunks(100) {
                    engine.ingest(chunk.to_vec()).expect("finite data");
                }
                assert!(
                    bit_equal(engine.dataset().rows(), batch.rows()),
                    "{norm:?}, s = {s}, ε = {eps}, η = {eta}"
                );
            }
        }
    }
}
