//! The preprocessed inlier context shared by all savers.
//!
//! Every way of building one ends in the same assembly from rows and
//! their `δ_η`: [`RSet::from_split`] reads most `δ_η` off detection's
//! range hits and asks detection's index, restricted to inliers, for the
//! rest; [`RSet::new`] queries every row; and the streaming engine
//! supplies its maintained values to [`RSet::merge`].

use disc_distance::{PackedMatrix, PackedScan, TupleDistance, Value};
use disc_index::{Index, NeighborIndex, SortedColumn};

use crate::constraints::{DistanceConstraints, OutlierSplit};
use crate::parallel::{parallel_map, Parallelism};

/// The set `r` of non-outlying tuples, preprocessed for repeated outlier
/// saving:
///
/// * `δ_η(t)` — the distance from each `t ∈ r` to its η-th nearest neighbor
///   in `r` (self-inclusive, so `δ_1(t) = 0`), the feasibility threshold of
///   Algorithm 1, line 4;
/// * per-attribute sorted projections for numeric attributes, answering the
///   single-attribute ε-balls that seed the κ-restricted recursion roots.
///
/// The batch pipeline builds it once per run from the detected split
/// ([`RSet::from_split`]). The streaming engine keeps one for its
/// lifetime and grows it in place ([`RSet::merge`]) with the `δ_η`
/// values it maintains, so an ingest costs the rows it adds, not a
/// rebuild.
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
        let index = Index::auto(&rows[..], dist.clone(), constraints.eps);
        let delta_eta = parallel_map(&rows, parallelism.workers(), |row| {
            index
                .kth_distance(row, constraints.eta)
                .unwrap_or(f64::INFINITY)
        });
        drop(index);
        Self::assemble(rows, delta_eta, dist, constraints)
    }

    /// The context over the inliers of `split`, which
    /// [`detect_outliers_parallel`](crate::detect_outliers_parallel)
    /// returned together with `index`, equal to [`RSet::new`] over the
    /// same inliers bit for bit. An inlier whose detection hits settle
    /// its `δ_η` takes it from them; the rest (169 of 7,245 inliers on
    /// `disc generate --n 8000 --m 3 --dirty 160 --seed 7` at ε = 0.5,
    /// η = 4) get one η-NN query each over `index`, restricted to the
    /// inliers ([`Index::knn_where`]), fanned out over `parallelism`
    /// workers. Restricting a search over every row to the inliers
    /// returns the distances a search over the inliers alone would. The
    /// index is dropped before r's own structures are built.
    pub fn from_split(
        split: &OutlierSplit,
        index: Index<&[Vec<Value>]>,
        parallelism: Parallelism,
    ) -> Self {
        let (constraints, eta) = (split.constraints, split.constraints.eta);
        let rows = index.rows();
        let settled: Vec<Option<f64>> = split
            .inliers
            .iter()
            .map(|&i| split.settled_delta_eta(i))
            .collect();
        let unsettled: Vec<usize> = (0..settled.len())
            .filter(|&k| settled[k].is_none())
            .collect();
        let queried = parallel_map(&unsettled, parallelism.workers(), |&k| {
            let row = &rows[split.inliers[k]];
            let nearest = index.knn_where(row, eta, |id| split.counts[id as usize] >= eta);
            nearest.get(eta - 1).map_or(f64::INFINITY, |&(_, d)| d)
        });
        let inlier_rows: Vec<Vec<Value>> = split.inliers.iter().map(|&i| rows[i].clone()).collect();
        let dist = index.distance().clone();
        drop(index);
        let mut queried = queried.into_iter();
        let delta_eta = settled
            .into_iter()
            .map(|d| {
                d.or_else(|| queried.next())
                    .expect("one query per unsettled row")
            })
            .collect();
        Self::assemble(inlier_rows, delta_eta, dist, constraints)
    }

    /// The context over `rows` with their `δ_η` given.
    fn assemble(
        rows: Vec<Vec<Value>>,
        delta_eta: Vec<f64>,
        dist: TupleDistance,
        constraints: DistanceConstraints,
    ) -> Self {
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

    /// An empty context, for a caller that grows it with
    /// [`RSet::merge`].
    pub fn empty(dist: TupleDistance, constraints: DistanceConstraints) -> Self {
        Self::assemble(Vec::new(), Vec::new(), dist, constraints)
    }

    /// Merges new inliers into the context in place, leaving it equal to
    /// a from-scratch build over the merged rows (given the same `δ_η`
    /// values). `added` lists each new row with its rank in the merged
    /// row order, ranks strictly ascending, and its `δ_η`; `tightened`
    /// rewrites the `δ_η` of existing rows, by rank in the merged order.
    /// The caller supplies every `δ_η`: the streaming engine maintains
    /// them incrementally, so no η-NN pass runs here. A new row with a
    /// non-number in some attribute drops that attribute's sorted
    /// projection, as it would at build time.
    ///
    /// # Panics
    /// Panics if a rank lies past the end of the merged rows.
    pub fn merge(&mut self, added: Vec<(usize, Vec<Value>, f64)>, tightened: &[(usize, f64)]) {
        for (attr, column) in self.columns.iter_mut().enumerate() {
            let Some(col) = column else { continue };
            let cells: Option<Vec<(u32, f64)>> = added
                .iter()
                .map(|(rank, row, _)| Some((*rank as u32, row[attr].as_num()?)))
                .collect();
            match cells {
                Some(cells) => col.insert(&cells),
                None => *column = None,
            }
        }
        for (rank, row, delta_eta) in added {
            if let Some(packed) = &mut self.packed {
                packed.insert_row(rank, &row);
            }
            self.delta_eta.insert(rank, delta_eta);
            self.rows.insert(rank, row);
        }
        for &(rank, delta_eta) in tightened {
            self.delta_eta[rank] = delta_eta;
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
    use crate::constraints::detect_outliers_parallel;
    use disc_distance::{Metric, Norm};

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

    /// SplitMix64, for the merge proptest's data.
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

    /// `n` rows of `m` cells, each 0 or `scale` times a value at or
    /// around 1 (one and two ulps above, one below, and `1 − 2·10⁻⁹`,
    /// just inside the margin), 0, ½ or 2, so with ε = `scale` many
    /// pairs lie at ε or a hair either side of it; with `odd`, one row
    /// in ten holds a `Null` or a text cell. Two far-off groups follow,
    /// on attribute 0 only:
    /// * η + 1 copies of a point G and a row F exactly ε from G: every
    ///   G settles at 0, and F, whose η-th nearest hit lies at ε,
    ///   falls back (for η ≥ 2);
    /// * a row X, an outlier O at 0.45ε from X and η rows at 0.6ε,
    ///   0.65ε, … from X: for η ≥ 3, O is an outlier among X's η
    ///   nearest hits, and the η-th hit lies nearer than the η-th inlier.
    fn boundary_rows(
        mix: &mut Mix,
        n: usize,
        m: usize,
        scale: f64,
        odd: bool,
        eta: usize,
    ) -> Vec<Vec<Value>> {
        const CELLS: [f64; 8] = [
            0.0,
            1.0,
            1.0 + f64::EPSILON,
            1.0 + 2.0 * f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            1.0 - 2e-9,
            0.5,
            2.0,
        ];
        let mut data: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                let mut row: Vec<Value> = (0..m)
                    .map(|_| match mix.below(3) {
                        0 => Value::Num(0.0),
                        _ => Value::Num(scale * CELLS[mix.below(CELLS.len() as u64) as usize]),
                    })
                    .collect();
                if odd && mix.below(10) == 0 {
                    let attr = mix.below(m as u64) as usize;
                    row[attr] = match mix.below(2) {
                        0 => Value::Null,
                        _ => Value::Text("x".into()),
                    };
                }
                row
            })
            .collect();
        let at = |x: f64| {
            let mut row = vec![Value::Num(0.0); m];
            row[0] = Value::Num(scale * x);
            row
        };
        data.extend((0..=eta).map(|_| at(10.0)));
        data.push(at(11.0));
        data.push(at(20.0));
        data.push(at(20.0 - 0.45));
        data.extend((0..eta).map(|k| at(20.0 + 0.6 + 0.05 * k as f64)));
        data
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// The `δ_η` that detection's range hits settle, with k-NN for
        /// the rest, equals `RSet::new`'s over the same inliers bit for
        /// bit: under L¹, L², L^∞ and L³, m from 1 to 4, on brute-scan
        /// sizes and past 512 rows (a grid, or a VP tree with `Null` and
        /// text rows on its side list), with distances at ε at scales 1
        /// and 2⁴⁰. Both settled and queried rows occur in every case
        /// (queried ones only for η ≥ 2: with η = 1 a row's own hit
        /// settles it).
        #[test]
        fn hit_settled_delta_eta_matches_rset_new(seed in 0u64..1_000_000, eta in 1usize..7) {
            let mut mix = Mix(seed);
            let (mut settled, mut queried) = (0usize, 0usize);
            for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
                for scale in [1.0, 2f64.powi(40)] {
                    for n in [24 + mix.below(200) as usize, 530 + mix.below(170) as usize] {
                        let m = 1 + mix.below(4) as usize;
                        let odd = mix.below(2) == 0;
                        let data = boundary_rows(&mut mix, n, m, scale, odd, eta);
                        let dist = TupleDistance::new(vec![Metric::Absolute; m], norm);
                        let c = DistanceConstraints::new(scale, eta);
                        let workers = 1 + mix.below(2) as usize;
                        let (split, index) = detect_outliers_parallel(&data, &dist, c, workers);
                        let r = RSet::from_split(&split, index, Parallelism(workers));
                        let inlier_rows: Vec<Vec<Value>> =
                            split.inliers.iter().map(|&i| data[i].clone()).collect();
                        let oracle = RSet::new(inlier_rows, dist.clone(), c);
                        assert_eq!(r.rows(), oracle.rows());
                        for (k, &row) in split.inliers.iter().enumerate() {
                            match split.settled_delta_eta(row) {
                                Some(_) => settled += 1,
                                None => queried += 1,
                            }
                            assert_eq!(
                                r.delta_eta(k).to_bits(),
                                oracle.delta_eta(k).to_bits(),
                                "row {row}: {} against RSet::new's {}; seed {seed}, {norm:?}, m = {m}, n = {}, η = {eta}, scale {scale}",
                                r.delta_eta(k),
                                oracle.delta_eta(k),
                                data.len(),
                            );
                        }
                    }
                }
            }
            assert!(settled > 0, "no row settled from its hits");
            assert!(queried > 0 || eta == 1, "no row fell back to k-NN");
        }
    }

    /// Asserts that `merged` equals `built` in every part a saver reads.
    fn assert_same_context(merged: &RSet, built: &RSet, context: &str) {
        assert_eq!(merged.rows(), built.rows(), "rows: {context}");
        for i in 0..built.len() {
            assert_eq!(
                merged.delta_eta(i).to_bits(),
                built.delta_eta(i).to_bits(),
                "δ_η of row {i}: {context}"
            );
        }
        for attr in 0..built.distance().arity() {
            let (a, b) = (merged.column(attr), built.column(attr));
            assert_eq!(a.is_some(), b.is_some(), "column {attr}: {context}");
            let (Some(a), Some(b)) = (a, b) else { continue };
            for q in [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5] {
                for eps in [0.0, 0.5, 1.0] {
                    assert_eq!(
                        a.ball(q, eps).collect::<Vec<_>>(),
                        b.ball(q, eps).collect::<Vec<_>>(),
                        "column {attr} ball({q}, {eps}): {context}"
                    );
                }
            }
        }
        assert_eq!(merged.packed().is_some(), built.packed().is_some());
        if let (Some(a), Some(b)) = (merged.packed(), built.packed()) {
            assert_eq!(a.len(), b.len(), "packed rows: {context}");
            for i in 0..b.len() {
                assert_eq!(a.row(i), b.row(i), "packed row {i}: {context}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Merging batches into a built RSet equals building over the
        /// merged rows: rows with random keys (so new rows land
        /// mid-order as well as at the end), small integer cells
        /// (duplicate values in every column), now and then a `Null`
        /// or text cell (dropping the column's projection and the row's
        /// packed layout), and the `δ_η` of existing rows rewritten
        /// whenever the new rows tighten it.
        #[test]
        fn merge_equals_rebuild(seed in 0u64..1_000_000, m in 1usize..4, eta in 1usize..5) {
            let mut mix = Mix(seed);
            let norm = [Norm::L1, Norm::L2, Norm::LInf][mix.below(3) as usize];
            let dist = TupleDistance::new(vec![disc_distance::Metric::Absolute; m], norm);
            let c = DistanceConstraints::new(1.0, eta);
            let n = 4 + mix.below(40) as usize;
            // (key, row) pairs; r lists rows in ascending key order.
            let mut pending: Vec<(u64, Vec<Value>)> = (0..n as u64)
                .map(|i| {
                    let mut row: Vec<Value> =
                        (0..m).map(|_| Value::Num(mix.below(4) as f64)).collect();
                    match mix.below(24) {
                        0 => row[mix.below(m as u64) as usize] = Value::Null,
                        1 => row[mix.below(m as u64) as usize] = Value::Text("x".into()),
                        _ => {}
                    }
                    // Distinct keys in random order.
                    (mix.below(1 << 20) << 8 | i, row)
                })
                .collect();
            let build = |members: &[(u64, Vec<Value>)]| {
                let rows = members.iter().map(|(_, row)| row.clone()).collect();
                RSet::with_parallelism(rows, dist.clone(), c, Parallelism(1))
            };
            // Start from a built context, or now and then an empty one.
            let first = (mix.below(n as u64 / 2) as usize).min(pending.len());
            let mut members: Vec<(u64, Vec<Value>)> = pending.drain(..first).collect();
            members.sort_by_key(|(key, _)| *key);
            let mut r = if members.is_empty() {
                RSet::empty(dist.clone(), c)
            } else {
                build(&members)
            };
            let mut merges = 0;
            while !pending.is_empty() {
                let take = (1 + mix.below(8) as usize).min(pending.len());
                let batch: Vec<(u64, Vec<Value>)> = pending.drain(..take).collect();
                members.extend(batch.iter().cloned());
                members.sort_by_key(|(key, _)| *key);
                let built = build(&members);
                let mut added: Vec<(usize, Vec<Value>, f64)> = Vec::new();
                let mut tightened = Vec::new();
                let mut old = 0;
                for (rank, (key, row)) in members.iter().enumerate() {
                    if batch.iter().any(|(k, _)| k == key) {
                        added.push((rank, row.clone(), built.delta_eta(rank)));
                    } else {
                        if r.delta_eta(old).to_bits() != built.delta_eta(rank).to_bits() {
                            tightened.push((rank, built.delta_eta(rank)));
                        }
                        old += 1;
                    }
                }
                r.merge(added, &tightened);
                merges += 1;
                let context = format!("seed {seed}, {norm:?}, m = {m}, η = {eta}, merge {merges}");
                assert_same_context(&r, &built, &context);
            }
        }
    }
}
