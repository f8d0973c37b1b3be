//! The uniform-grid backend of [`Index`](crate::Index), over numeric data.
//!
//! Cells have side `cell_width`; a range query with radius `eps` only needs
//! cells whose coordinates differ by at most `ceil(eps / cell_width)` in
//! every dimension, because for any `L^p` norm (p ≥ 1, including `L^∞`)
//! the per-coordinate difference lower-bounds the tuple distance — so
//! range queries are norm-correct as-is. The k-NN exhaustion bound is the
//! norm-*dependent* part: the diameter of the occupied box is `m^{1/p}·s`
//! for `L^p` and `s` for `L^∞` (with `s` the largest per-coordinate
//! span), derived from [`disc_distance::Norm::exponent`].
//!
//! `Grid` holds only the cells, the occupied key box and that bound;
//! the rows stay with their owner, as the tree nodes of
//! [`VpNodes`](crate::VpNodes) do. A row has a cell only if every
//! coordinate is a finite number whose cell index stays below `2^52` in
//! magnitude, which keeps all key arithmetic far from `i64` overflow. A
//! *query* with no cell visits every row, degrading to brute-force
//! semantics instead of failing.

use std::collections::HashMap;
use std::fmt;

use disc_distance::{PackedScan, TupleDistance, Value};

use crate::sort_hits;

/// Grid cell coordinates (one `i64` per dimension).
type CellKey = Vec<i64>;

/// Cell indices stay below this in magnitude, so spans and offsets of
/// keys fit an `i64` many times over.
const KEY_LIMIT: f64 = (1u64 << 52) as f64;

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

    /// Appends every row within `eps` of the scan's `query` to `hits`;
    /// returns the number of candidate rows visited.
    pub(crate) fn range(
        &self,
        scan: &mut PackedScan<'_>,
        query: &[Value],
        eps: f64,
        hits: &mut Vec<(u32, f64)>,
    ) -> u64 {
        // Two keys differ by less than 2·KEY_LIMIT, so a larger radius
        // covers every cell.
        let radius_cells = (eps / self.cell_width).ceil().min(2.0 * KEY_LIMIT) as i64 + 1;
        let mut visited = 0u64;
        self.for_candidates(query, radius_cells, |id| {
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

    /// Visits every row whose cell lies within `radius_cells` of the
    /// query's cell in Chebyshev distance, enumerating the cell
    /// neighborhood or scanning the occupied-cell map, whichever is
    /// smaller. A query with no cell visits every row — the
    /// per-coordinate bound cannot be evaluated, so nothing can be
    /// excluded.
    fn for_candidates(&self, query: &[Value], radius_cells: i64, mut visit: impl FnMut(u32)) {
        let Some(qkey) = cell_key(query, self.cell_width) else {
            for ids in self.cells.values() {
                for &id in ids {
                    visit(id);
                }
            }
            return;
        };
        let m = self.lo.len();
        let span = (2 * radius_cells + 1) as f64;
        let enumerate_cost = span.powi(m as i32);
        if enumerate_cost <= 4.0 * self.cells.len() as f64 {
            // Enumerate the (2r+1)^m neighborhood via an odometer.
            let mut offsets = vec![-radius_cells; m];
            'outer: loop {
                let key: CellKey = qkey.iter().zip(&offsets).map(|(q, o)| q + o).collect();
                if let Some(ids) = self.cells.get(&key) {
                    for &id in ids {
                        visit(id);
                    }
                }
                // Advance the odometer.
                for digit in offsets.iter_mut() {
                    *digit += 1;
                    if *digit <= radius_cells {
                        continue 'outer;
                    }
                    *digit = -radius_cells;
                }
                break;
            }
        } else {
            for (key, ids) in &self.cells {
                let near = key
                    .iter()
                    .zip(&qkey)
                    .all(|(c, q)| (c - q).abs() <= radius_cells);
                if near {
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
    fn null_query_falls_back_to_full_scan() {
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
