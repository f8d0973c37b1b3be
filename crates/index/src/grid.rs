//! The uniform-grid backend of [`Index`](crate::Index), over numeric data.
//!
//! Cells have side `cell_width`. For any `L^p` norm (p ≥ 1, including
//! `L^∞`) every per-coordinate difference lower-bounds the tuple
//! distance, so a row within `eps` of the query lies, in every dimension
//! `d`, in a cell between `⌊(q_d − eps)/w⌋` and `⌊(q_d + eps)/w⌋`. A range
//! query visits exactly that window of cells (`3^m` cells at
//! `w = eps`), computed with a small relative margin on `eps` that
//! absorbs the distance kernel's rounding (`REACH_MARGIN` states the
//! argument) and clamped to the occupied key box. Range queries are
//! therefore norm-correct as-is. The k-NN exhaustion bound is the
//! norm-*dependent* part: the diameter of the occupied box is `m^{1/p}·s`
//! for `L^p` and `s` for `L^∞` (with `s` the largest per-coordinate
//! span), derived from [`disc_distance::Norm::exponent`].
//!
//! `Grid` holds only the cells, the occupied key box and that bound;
//! the rows stay with their owner, as the tree nodes of
//! [`VpNodes`](crate::VpNodes) do. A row has a cell only if every
//! coordinate is a finite number whose cell index stays below `2^52` in
//! magnitude, which keeps all key arithmetic far from `i64` overflow. Any
//! *query* is answered: a coordinate that is not a number bounds nothing,
//! so its dimension spans the whole box, and a numeric one, however far
//! out, visits only the occupied cells its window reaches.

use std::collections::HashMap;
use std::fmt;

use disc_distance::{Norm, PackedScan, TupleDistance, Value};

use crate::sort_hits;

/// Grid cell coordinates (one `i64` per dimension).
type CellKey = Vec<i64>;

/// Cell indices stay below this in magnitude, so spans and offsets of
/// keys fit an `i64` many times over.
const KEY_LIMIT: f64 = (1u64 << 52) as f64;

/// Relative margin of a range query's cell window, `2⁻³⁰`. The window
/// spans `⌊fl(q_d − e)/w⌋ ..= ⌊fl(q_d + e)/w⌋` in every dimension `d`,
/// with the reach `e = finish(max(to_acc(ε), MIN_POSITIVE))·(1 +
/// REACH_MARGIN)` (`disc_distance::Norm`), which is `ε·(1 + 2⁻³⁰)` up to
/// rounding for any ε whose accumulator is a normal number. No row the
/// query accepts lies outside it:
///
/// * The query keeps a row iff its accumulation passes `acc ≤ cap =
///   to_acc(ε)` (`dist_within`). Every accumulator is a rounded sum (or
///   maximum) of non-negative per-coordinate terms, and rounding is
///   monotone, so each term `t_d` (the computed gap `fl(|q_d − y_d|)`,
///   squared under L², raised by `powf` under L^p) satisfies `t_d ≤ cap`.
/// * Undoing the power costs a relative error of at most `2u` under L²
///   (`u = 2⁻⁵³`) and `2e + 746u` under L^p, with `e` the error of
///   `powf` (see `NARROW_MARGIN` in the engine), and the gap's own
///   subtraction at most `u`. Below `MIN_POSITIVE` rounding is absolute,
///   so there the cap is replaced by `MIN_POSITIVE` (a tiny ε under L²,
///   or a large `p`, can accept gaps far beyond ε). So an accepted row
///   has every exact coordinate gap `|q_d − y_d| ≤ e`: `2⁻³⁰ ≈ 9.3e-10`
///   exceeds those errors by orders of magnitude even for a `powf` a
///   thousand ulps off.
/// * Then `q_d − e ≤ y_d ≤ q_d + e` exactly. Rounding the subtraction,
///   dividing by `w > 0` and `floor` are all monotone, and `y_d` is
///   representable, so the row's cell `⌊fl(y_d/w)⌋` lies between the
///   window's bounds.
///
/// A bound that is not a number (a NaN query coordinate or ε) clamps to
/// the edge of the occupied key box, so it only widens the window. The
/// margin costs a visit to a neighbouring cell only for a query within
/// `e − ε` of a cell boundary.
const REACH_MARGIN: f64 = 1.0 / (1u64 << 30) as f64;

/// The largest exact coordinate gap a row within `eps` of a query can
/// have, under `norm`; see [`REACH_MARGIN`].
fn reach(eps: f64, norm: Norm) -> f64 {
    let cap = norm.to_acc(eps);
    // A NaN cap fails the comparison and stays NaN.
    let cap = if cap < f64::MIN_POSITIVE {
        f64::MIN_POSITIVE
    } else {
        cap
    };
    norm.finish(cap) * (1.0 + REACH_MARGIN)
}

/// Cell index of one coordinate, or `None` if it is not a finite number
/// or lies beyond the key range.
fn cell_coord(v: &Value, w: f64) -> Option<i64> {
    let c = (v.as_num()? / w).floor();
    // NaN and ±∞ fail the comparison too.
    (c.abs() < KEY_LIMIT).then_some(c as i64)
}

/// Cell of `row` on a grid of width `w`, if every coordinate has one.
fn cell_key(row: &[Value], w: f64) -> Option<CellKey> {
    row.iter().map(|v| cell_coord(v, w)).collect()
}

/// Norm-aware upper bound on any point-to-point distance when every
/// per-coordinate extent is at most `span`: `m^{1/p}·span` under `L^p`,
/// `span` under `L^∞`.
fn norm_diameter(span: f64, m: usize, dist: &TupleDistance) -> f64 {
    match dist.norm().exponent() {
        Some(p) => span * (m.max(1) as f64).powf(1.0 / p),
        None => span,
    }
}

/// A row cell that cannot be placed on the grid (non-numeric, non-finite
/// or beyond the grid's key range), reported by
/// [`Index::grid`](crate::Index::grid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonNumericCell {
    /// Index of the offending row.
    pub row: usize,
    /// Index of the offending attribute within the row.
    pub attr: usize,
}

impl fmt::Display for NonNumericCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid index requires finite numeric data: row {}, attribute {} is not a finite number",
            self.row, self.attr
        )
    }
}

impl std::error::Error for NonNumericCell {}

/// The cells of a uniform grid over row ids; see the [module docs](self).
pub(crate) struct Grid {
    cell_width: f64,
    cells: HashMap<CellKey, Vec<u32>>,
    /// Per-dimension min/max occupied cell keys (`lo[d] > hi[d]` iff the
    /// grid is empty).
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// Upper bound on any point-to-point distance (norm-aware diameter of
    /// the occupied box plus slack), so the expanding k-NN search can
    /// detect exhaustion in O(1).
    max_dist: f64,
}

impl Grid {
    /// Places every row of `rows` under its position as id.
    ///
    /// # Errors
    /// Names the first row/attribute with no cell.
    pub(crate) fn build(
        rows: &[Vec<Value>],
        dist: &TupleDistance,
        cell_width: f64,
    ) -> Result<Grid, NonNumericCell> {
        let m = dist.arity();
        let mut grid = Grid {
            cell_width,
            cells: HashMap::new(),
            lo: vec![i64::MAX; m],
            hi: vec![i64::MIN; m],
            max_dist: 0.0,
        };
        for (i, row) in rows.iter().enumerate() {
            if !grid.place(row, i as u32) {
                let attr = row
                    .iter()
                    .position(|v| cell_coord(v, cell_width).is_none())
                    .unwrap_or(0);
                return Err(NonNumericCell { row: i, attr });
            }
        }
        grid.update_bound(dist);
        Ok(grid)
    }

    /// Adds row `id`; false (and the grid unchanged) if it has no cell.
    pub(crate) fn insert(&mut self, row: &[Value], id: u32, dist: &TupleDistance) -> bool {
        let placed = self.place(row, id);
        if placed {
            self.update_bound(dist);
        }
        placed
    }

    fn place(&mut self, row: &[Value], id: u32) -> bool {
        let Some(key) = cell_key(row, self.cell_width) else {
            return false;
        };
        for ((lo, hi), &c) in self.lo.iter_mut().zip(&mut self.hi).zip(&key) {
            *lo = (*lo).min(c);
            *hi = (*hi).max(c);
        }
        self.cells.entry(key).or_default().push(id);
        true
    }

    fn update_bound(&mut self, dist: &TupleDistance) {
        let mut span = 0.0f64;
        for (l, h) in self.lo.iter().zip(&self.hi) {
            if l <= h {
                span = span.max((h - l + 2) as f64 * self.cell_width);
            }
        }
        // Per-coordinate extents of at most `span` aggregate to at most
        // `m^{1/p}·span` under L^p and `span` under L^∞ — an L2-only
        // `(span²·m).sqrt()` would underestimate the L1 diameter by up
        // to `m^{1/2}`, making k-NN drop true neighbors.
        self.max_dist = norm_diameter(span, self.lo.len(), dist) + self.cell_width;
    }

    /// Appends every row that `keep` accepts within `eps` of the scan's
    /// `query` to `hits`; returns the number of candidate rows visited,
    /// which leaves out the rejected ones (they are never measured).
    pub(crate) fn range(
        &self,
        scan: &mut PackedScan<'_>,
        query: &[Value],
        eps: f64,
        keep: impl Fn(u32) -> bool,
        hits: &mut Vec<(u32, f64)>,
    ) -> u64 {
        let mut visited = 0u64;
        self.for_candidates(query, reach(eps, scan.norm()), |id| {
            if !keep(id) {
                return;
            }
            visited += 1;
            if let Some(d) = scan.dist_within(id, eps) {
                hits.push((id, d));
            }
        });
        visited
    }

    /// Expanding-radius k-NN, `range(eps)` answering each range probe:
    /// grows the ball until at least `k` hits are found *and* the k-th
    /// distance is covered by the scanned radius (so nothing closer can
    /// hide in an unscanned cell).
    pub(crate) fn knn(
        &self,
        k: usize,
        mut range: impl FnMut(f64) -> Vec<(u32, f64)>,
    ) -> Vec<(u32, f64)> {
        let mut eps = self.cell_width;
        loop {
            let mut hits = range(eps);
            if hits.len() >= k {
                sort_hits(&mut hits);
                if hits[k - 1].1 <= eps {
                    hits.truncate(k);
                    return hits;
                }
            }
            if eps > self.max_dist {
                // The data's diameter is exhausted, so the query lies far
                // outside the indexed box: rank every row. (A finite
                // radius such as distance-to-a-row + diameter can round
                // below the rows' own distances once the diameter is
                // under the distance's ulp.)
                let mut hits = range(f64::INFINITY);
                sort_hits(&mut hits);
                hits.truncate(k);
                return hits;
            }
            eps *= 2.0;
        }
    }

    /// Visits every row whose cell lies in the query's window: in each
    /// dimension, the cells from `⌊fl(q_d − reach)/w⌋` to
    /// `⌊fl(q_d + reach)/w⌋`, clamped to the occupied key box (see
    /// [`REACH_MARGIN`]). A non-numeric query coordinate (`Null`, text)
    /// bounds nothing, so its dimension spans the whole box. The window's
    /// keys are enumerated in odometer order (dimension 0 fastest)
    /// through one reused key, or the occupied-cell map is scanned,
    /// whichever is smaller.
    fn for_candidates(&self, query: &[Value], reach: f64, mut visit: impl FnMut(u32)) {
        let w = self.cell_width;
        let mut window = Vec::with_capacity(self.lo.len());
        for ((v, &lo), &hi) in query.iter().zip(&self.lo).zip(&self.hi) {
            let (lo, hi) = (lo as f64, hi as f64);
            // `max`/`min` return the box edge for a NaN bound, and the
            // clamped bounds convert to `i64` exactly (`KEY_LIMIT`).
            let (from, to) = match v.as_num() {
                Some(q) => (
                    ((q - reach) / w).floor().max(lo),
                    ((q + reach) / w).floor().min(hi),
                ),
                None => (lo, hi),
            };
            if from > to {
                // Nothing within reach in this dimension, or an empty grid.
                return;
            }
            window.push((from as i64, to as i64));
        }
        let volume: f64 = window.iter().map(|&(a, b)| (b - a + 1) as f64).product();
        if volume <= 4.0 * self.cells.len() as f64 {
            let mut key: CellKey = window.iter().map(|&(a, _)| a).collect();
            'outer: loop {
                if let Some(ids) = self.cells.get(&key[..]) {
                    for &id in ids {
                        visit(id);
                    }
                }
                // Advance the odometer.
                for (digit, &(a, b)) in key.iter_mut().zip(&window) {
                    if *digit < b {
                        *digit += 1;
                        continue 'outer;
                    }
                    *digit = a;
                }
                break;
            }
        } else {
            for (key, ids) in &self.cells {
                if key
                    .iter()
                    .zip(&window)
                    .all(|(c, &(a, b))| (a..=b).contains(c))
                {
                    for &id in ids {
                        visit(id);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sort_hits, BruteForceIndex, Index, NeighborIndex};
    use disc_distance::{Metric, Norm};

    fn rows(points: &[[f64; 2]]) -> Vec<Vec<Value>> {
        points
            .iter()
            .map(|p| p.iter().map(|&x| Value::Num(x)).collect())
            .collect()
    }

    fn q(x: f64, y: f64) -> Vec<Value> {
        vec![Value::Num(x), Value::Num(y)]
    }

    fn grid_points(n: usize) -> Vec<Vec<Value>> {
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| q(0.37 * (i % side) as f64, 0.73 * (i / side) as f64))
            .collect()
    }

    fn numeric_with_norm(m: usize, norm: Norm) -> TupleDistance {
        TupleDistance::new(vec![Metric::Absolute; m], norm)
    }

    #[test]
    fn range_matches_brute_force() {
        let data = grid_points(200);
        let dist = TupleDistance::numeric(2);
        let grid = Index::grid(&data, dist.clone(), 1.0).unwrap();
        let brute = BruteForceIndex::new(&data, dist);
        for eps in [0.3, 1.0, 2.5] {
            for query in [q(1.0, 1.0), q(0.0, 0.0), q(100.0, -5.0)] {
                let mut a = grid.range(&query, eps);
                let mut b = brute.range(&query, eps);
                sort_hits(&mut a);
                sort_hits(&mut b);
                assert_eq!(a, b, "eps={eps}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let data = grid_points(150);
        let dist = TupleDistance::numeric(2);
        let grid = Index::grid(&data, dist.clone(), 0.5).unwrap();
        let brute = BruteForceIndex::new(&data, dist);
        for k in [1, 5, 17] {
            for query in [q(2.0, 3.0), q(-10.0, -10.0)] {
                let a = grid.knn(&query, k);
                let b = brute.knn(&query, k);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert!((x.1 - y.1).abs() < 1e-12, "k={k}");
                }
            }
        }
    }

    /// Pinned regression for the L2-only exhaustion bound. Under L1, two
    /// rows 3·t apart have distance 3·t·span, but the old
    /// `(span²·m).sqrt()` bound was only `√3·t·span` — so for a query far
    /// outside the box the triangle-inequality fallback radius
    /// `anchor + max_dist` fell short of the second neighbor and k-NN
    /// returned 1 hit instead of 2.
    #[test]
    fn knn_l1_far_query_finds_all_neighbors() {
        let data: Vec<Vec<Value>> = vec![vec![Value::Num(0.0); 3], vec![Value::Num(100.0); 3]];
        let dist = numeric_with_norm(3, Norm::L1);
        let grid = Index::grid(&data, dist.clone(), 1.0).unwrap();
        let query = vec![Value::Num(-50.0); 3];

        let hits = grid.knn(&query, 2);
        assert_eq!(hits.len(), 2, "L1 k-NN dropped a true neighbor");
        assert_eq!(hits[0], (0, 150.0));
        assert_eq!(hits[1], (1, 450.0));

        let brute = BruteForceIndex::new(&data, dist);
        assert_eq!(hits, brute.knn(&query, 2));
    }

    #[test]
    fn knn_linf_far_query_matches_brute() {
        let data = grid_points(60);
        let dist = numeric_with_norm(2, Norm::LInf);
        let grid = Index::grid(&data, dist.clone(), 0.7).unwrap();
        let brute = BruteForceIndex::new(&data, dist);
        for query in [q(500.0, -300.0), q(-80.0, 0.0)] {
            for k in [1, 4, 60] {
                assert_eq!(grid.knn(&query, k), brute.knn(&query, k), "k={k}");
            }
        }
    }

    #[test]
    fn knn_empty_index_returns_empty() {
        let data: Vec<Vec<Value>> = Vec::new();
        let grid = Index::grid(&data, TupleDistance::numeric(2), 1.0).unwrap();
        assert_eq!(grid.knn(&q(3.0, 4.0), 5), Vec::new());
        assert_eq!(grid.range(&q(3.0, 4.0), 10.0), Vec::new());
        assert_eq!(grid.kth_distance(&q(3.0, 4.0), 1), None);
    }

    #[test]
    fn knn_larger_than_dataset() {
        let data = rows(&[[0.0, 0.0], [1.0, 1.0]]);
        let grid = Index::grid(&data, TupleDistance::numeric(2), 1.0).unwrap();
        assert_eq!(grid.knn(&q(0.0, 0.0), 10).len(), 2);
    }

    #[test]
    fn try_new_reports_first_non_numeric_cell() {
        let data = vec![q(0.0, 0.0), vec![Value::Num(1.0), Value::Null]];
        let err = Index::grid(&data, TupleDistance::numeric(2), 1.0)
            .err()
            .unwrap();
        assert_eq!(err, NonNumericCell { row: 1, attr: 1 });
        assert!(err.to_string().contains("row 1, attribute 1"));

        let data = vec![vec![Value::Num(f64::INFINITY), Value::Num(0.0)]];
        let err = Index::grid(&data, TupleDistance::numeric(2), 1.0)
            .err()
            .unwrap();
        assert_eq!(err, NonNumericCell { row: 0, attr: 0 });
    }

    #[test]
    fn null_query_matches_brute_force() {
        let data = grid_points(120);
        let dist = TupleDistance::numeric(2);
        let grid = Index::grid(&data, dist.clone(), 1.0).unwrap();
        let brute = BruteForceIndex::new(&data, dist);
        let query = vec![Value::Null, Value::Num(1.0)];
        for eps in [0.5, 3.0] {
            let mut a = grid.range(&query, eps);
            let mut b = brute.range(&query, eps);
            sort_hits(&mut a);
            sort_hits(&mut b);
            assert_eq!(a, b, "eps={eps}");
        }
        for k in [1, 7] {
            assert_eq!(grid.knn(&query, k), brute.knn(&query, k), "k={k}");
        }
        // The `Null` spans its whole dimension; the number still bounds
        // the other, so a narrow query visits only some rows.
        let before = grid.activity().rows_visited;
        grid.range(&query, 0.5);
        assert!(grid.activity().rows_visited - before < 120);
    }

    /// One row at the centre of every cell of a 7^m lattice of width 1.
    fn lattice(m: usize) -> Vec<Vec<Value>> {
        (0..7usize.pow(m as u32))
            .map(|i| {
                (0..m)
                    .map(|d| Value::Num((i / 7usize.pow(d as u32) % 7) as f64 + 0.5))
                    .collect()
            })
            .collect()
    }

    /// A radius-`w` query from a cell centre visits exactly the 3^m
    /// cells the ball can reach.
    #[test]
    fn range_at_cell_width_visits_three_cells_per_dimension() {
        for m in 1..=4 {
            let data = lattice(m);
            let grid = Index::grid(&data, TupleDistance::numeric(m), 1.0).unwrap();
            let hits = grid.range(&vec![Value::Num(3.5); m], 1.0);
            assert_eq!(grid.activity().rows_visited, 3u64.pow(m as u32), "m={m}");
            // The centre row and its 2m axis neighbours at distance 1.
            assert_eq!(hits.len(), 1 + 2 * m, "m={m}");
        }
    }

    /// A row whose exact gap to the query exceeds ε while the computed
    /// gap rounds to ε, one cell below the window's unmargined edge:
    /// `|1 − (−2⁻⁶⁰)| = 1 + 2⁻⁶⁰` rounds to 1, so every norm accepts it
    /// at ε = 1, but `fl(1 − 1) = 0` lies in cell 0 and the row in cell
    /// −1. Only `REACH_MARGIN` brings that cell into the window.
    #[test]
    fn range_window_covers_a_gap_that_rounds_to_eps() {
        let below = -(2f64.powi(-60));
        assert_eq!(1.0 - below, 1.0);
        let data = vec![
            vec![Value::Num(below)],
            vec![Value::Num(0.5)],
            vec![Value::Num(5.0)],
        ];
        let query = [Value::Num(1.0)];
        for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            let dist = numeric_with_norm(1, norm);
            let grid = Index::grid(&data, dist.clone(), 1.0).unwrap();
            let mut got = grid.range(&query, 1.0);
            let mut want = BruteForceIndex::new(&data, dist).range(&query, 1.0);
            sort_hits(&mut got);
            sort_hits(&mut want);
            assert_eq!(want, vec![(1, 0.5), (0, 1.0)], "{norm:?}");
            assert_eq!(got, want, "{norm:?}");
        }
    }

    /// Below `MIN_POSITIVE` the kernel's rounding is absolute: under
    /// L^100 at ε = 1e-5, a row 5e-4 away (50 cells out) has `gap^100`
    /// and `ε^100` both underflow to 0, so every backend must return it.
    #[test]
    fn range_window_covers_gaps_accepted_by_underflow() {
        let data = vec![vec![Value::Num(0.0)], vec![Value::Num(5e-4)]];
        let dist = numeric_with_norm(1, Norm::Lp(100.0));
        let grid = Index::grid(&data, dist.clone(), 1e-5).unwrap();
        let query = [Value::Num(0.0)];
        let mut got = grid.range(&query, 1e-5);
        let mut want = BruteForceIndex::new(&data, dist).range(&query, 1e-5);
        sort_hits(&mut got);
        sort_hits(&mut want);
        assert_eq!(want, vec![(0, 0.0), (1, 0.0)]);
        assert_eq!(got, want);
    }

    #[test]
    fn negative_coordinates() {
        let data = rows(&[[-1.5, -1.5], [-1.4, -1.4], [1.0, 1.0]]);
        let dist = TupleDistance::numeric(2);
        let grid = Index::grid(&data, dist.clone(), 1.0).unwrap();
        let brute = BruteForceIndex::new(&data, dist);
        let mut a = grid.range(&q(-1.45, -1.45), 0.2);
        let mut b = brute.range(&q(-1.45, -1.45), 0.2);
        sort_hits(&mut a);
        sort_hits(&mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cell width must be positive")]
    fn zero_cell_width_panics() {
        let data = rows(&[[0.0, 0.0]]);
        Index::grid(&data, TupleDistance::numeric(2), 0.0).unwrap();
    }
}
