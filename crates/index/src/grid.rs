//! Uniform grid index over numeric data.
//!
//! Cells have side `cell_width`; a range query with radius `eps` only needs
//! cells whose coordinates differ by at most `ceil(eps / cell_width)` in
//! every dimension, because for any `L^p` norm (p ≥ 1, including `L^∞`)
//! the per-coordinate difference lower-bounds the tuple distance — so
//! range queries are norm-correct as-is. The k-NN exhaustion bound is the
//! norm-*dependent* part: the diameter of the occupied box is `m^{1/p}·s`
//! for `L^p` and `s` for `L^∞` (with `s` the largest per-coordinate
//! span), which [`GridIndex`] derives from
//! [`disc_distance::Norm::exponent`]. The workhorse backend for the
//! paper's low-dimensional large datasets (GPS and Flight, m = 3).
//!
//! Rows must be entirely finite numeric — [`GridIndex::try_new`] reports
//! the first offending cell (e.g. a `Value::Null` produced by
//! `--non-finite as-null`) so callers can fall back to a metric-only
//! backend. *Queries* may still be non-numeric: a query with no grid cell
//! falls back to visiting every row, degrading to brute-force semantics
//! instead of panicking.

use std::collections::HashMap;
use std::fmt;

use disc_distance::{PackedMatrix, PackedScan, TupleDistance, Value};
use disc_obs::counters;

use crate::NeighborIndex;

/// Grid cell coordinates (one `i64` per dimension).
pub(crate) type CellKey = Vec<i64>;

/// Cell of `row` on a grid of width `w`, or `None` if any coordinate is
/// not a finite number.
pub(crate) fn cell_key(row: &[Value], w: f64) -> Option<CellKey> {
    row.iter()
        .map(|v| {
            v.as_num()
                .filter(|x| x.is_finite())
                .map(|x| (x / w).floor() as i64)
        })
        .collect()
}

/// Norm-aware upper bound on any point-to-point distance when every
/// per-coordinate extent is at most `span`: `m^{1/p}·span` under `L^p`,
/// `span` under `L^∞`.
pub(crate) fn norm_diameter(span: f64, m: usize, dist: &TupleDistance) -> f64 {
    match dist.norm().exponent() {
        Some(p) => span * (m.max(1) as f64).powf(1.0 / p),
        None => span,
    }
}

/// A row cell that cannot be placed on the grid (non-numeric or
/// non-finite), reported by [`GridIndex::try_new`].
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

/// A uniform grid over fully numeric rows.
pub struct GridIndex<'a> {
    rows: &'a [Vec<Value>],
    dist: TupleDistance,
    cell_width: f64,
    cells: HashMap<CellKey, Vec<u32>>,
    m: usize,
    /// Upper bound on any point-to-point distance (norm-aware diameter of
    /// the occupied bounding box plus slack), precomputed so the expanding
    /// k-NN search can detect exhaustion in O(1).
    max_dist: f64,
    /// Packed `f64` layout for the cell-candidate distance filter; grid
    /// rows are all finite numeric, so this is `Some` whenever the metric
    /// admits packing at all.
    packed: Option<PackedMatrix>,
}

impl<'a> GridIndex<'a> {
    /// Builds the grid. `cell_width` is typically the expected query radius
    /// ε; any positive value is correct.
    ///
    /// # Errors
    /// Returns [`NonNumericCell`] naming the first row/attribute that is
    /// not a finite number (`Value::Null`, text, `NaN`, `±∞`) — such rows
    /// have no grid cell, and non-finite coordinates would poison the
    /// exhaustion bound. Callers should fall back to a metric-only
    /// backend (`VpTree`, `BruteForceIndex`), as `with_auto_index` does.
    ///
    /// # Panics
    /// Panics if `cell_width ≤ 0`.
    pub fn try_new(
        rows: &'a [Vec<Value>],
        dist: TupleDistance,
        cell_width: f64,
    ) -> Result<Self, NonNumericCell> {
        assert!(cell_width > 0.0, "cell width must be positive");
        let m = dist.arity();
        let mut cells: HashMap<CellKey, Vec<u32>> = HashMap::new();
        for (i, row) in rows.iter().enumerate() {
            match Self::key_of(row, cell_width) {
                Some(key) => cells.entry(key).or_default().push(i as u32),
                None => {
                    let attr = row
                        .iter()
                        .position(|v| !matches!(v.as_num(), Some(x) if x.is_finite()))
                        .unwrap_or(0);
                    return Err(NonNumericCell { row: i, attr });
                }
            }
        }
        let max_dist = {
            let mut span = 0.0f64;
            for d in 0..m {
                let (mut lo, mut hi) = (i64::MAX, i64::MIN);
                for key in cells.keys() {
                    lo = lo.min(key[d]);
                    hi = hi.max(key[d]);
                }
                if lo <= hi {
                    span = span.max((hi - lo + 2) as f64 * cell_width);
                }
            }
            // Per-coordinate extents of at most `span` aggregate to at
            // most `m^{1/p}·span` under L^p and `span` under L^∞ — the
            // L2-only `(span²·m).sqrt()` underestimated the L1 diameter
            // by up to `m^{1/2}`, making k-NN drop true neighbors.
            norm_diameter(span, m, &dist) + cell_width
        };
        let packed = PackedMatrix::build(rows, &dist);
        Ok(GridIndex {
            rows,
            dist,
            cell_width,
            cells,
            m,
            max_dist,
            packed,
        })
    }

    /// Builds the grid, panicking on invalid input.
    ///
    /// # Panics
    /// Panics if `cell_width ≤ 0` or any row contains a value that is not
    /// a finite number (see [`GridIndex::try_new`] for the fallible form).
    pub fn new(rows: &'a [Vec<Value>], dist: TupleDistance, cell_width: f64) -> Self {
        match Self::try_new(rows, dist, cell_width) {
            Ok(grid) => grid,
            Err(e) => panic!("{e}"),
        }
    }

    /// Cell of `row`, or `None` if any coordinate is not a finite number.
    fn key_of(row: &[Value], w: f64) -> Option<CellKey> {
        cell_key(row, w)
    }

    /// Number of occupied cells (diagnostics).
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Visits every row whose cell lies within `radius_cells` of the
    /// query's cell in Chebyshev distance; see [`for_cell_candidates`].
    fn for_candidates(&self, query: &[Value], radius_cells: i64, visit: impl FnMut(u32)) {
        for_cell_candidates(
            &self.cells,
            self.m,
            self.cell_width,
            query,
            radius_cells,
            visit,
        );
    }
}

/// Visits every row whose cell lies within `radius_cells` of the query's
/// cell in Chebyshev distance. Chooses between enumerating the cell
/// neighborhood and scanning the occupied-cell map, whichever is smaller.
/// A query with no grid cell (non-numeric or non-finite coordinates)
/// visits every row — the per-coordinate bound cannot be evaluated, so
/// nothing can be excluded. Shared by [`GridIndex`] and the grid backend
/// of the dynamic index.
pub(crate) fn for_cell_candidates(
    cells: &HashMap<CellKey, Vec<u32>>,
    m: usize,
    cell_width: f64,
    query: &[Value],
    radius_cells: i64,
    mut visit: impl FnMut(u32),
) {
    let Some(qkey) = cell_key(query, cell_width) else {
        for ids in cells.values() {
            for &id in ids {
                visit(id);
            }
        }
        return;
    };
    let span = (2 * radius_cells + 1) as f64;
    let enumerate_cost = span.powi(m as i32);
    if enumerate_cost <= 4.0 * cells.len() as f64 {
        // Enumerate the (2r+1)^m neighborhood via an odometer.
        let mut offsets = vec![-radius_cells; m];
        'outer: loop {
            let key: CellKey = qkey.iter().zip(&offsets).map(|(q, o)| q + o).collect();
            if let Some(ids) = cells.get(&key) {
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
        for (key, ids) in cells {
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

impl NeighborIndex for GridIndex<'_> {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn range(&self, query: &[Value], eps: f64) -> Vec<(u32, f64)> {
        counters::GRID_RANGE_QUERIES.incr();
        let radius_cells = (eps / self.cell_width).ceil() as i64 + 1;
        let mut scan = PackedScan::new(self.packed.as_ref(), self.rows, &self.dist, query);
        let mut hits = Vec::new();
        let mut visited = 0u64;
        self.for_candidates(query, radius_cells, |id| {
            visited += 1;
            if let Some(d) = scan.dist_within(id, eps) {
                hits.push((id, d));
            }
        });
        counters::GRID_ROWS_VISITED.add(visited);
        hits
    }

    fn knn(&self, query: &[Value], k: usize) -> Vec<(u32, f64)> {
        counters::GRID_KNN_QUERIES.incr();
        if k == 0 || self.rows.is_empty() {
            return Vec::new();
        }
        // Expanding-radius search: grow the ball until at least k hits are
        // found *and* the k-th distance is covered by the scanned radius
        // (so nothing closer can hide in an unscanned cell).
        let mut eps = self.cell_width;
        loop {
            let mut hits = self.range(query, eps);
            if hits.len() >= k {
                crate::sort_hits(&mut hits);
                if hits[k - 1].1 <= eps {
                    hits.truncate(k);
                    return hits;
                }
            }
            if eps > self.max_dist {
                // The data's diameter is exhausted but the query may lie
                // far outside the indexed box: a radius of (distance to
                // any anchor point) + diameter covers every row by the
                // triangle inequality.
                let anchor = self.dist.dist(query, &self.rows[0]);
                let mut hits = self.range(query, anchor + self.max_dist);
                crate::sort_hits(&mut hits);
                hits.truncate(k);
                return hits;
            }
            eps *= 2.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceIndex;
    use crate::sort_hits;
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
        let grid = GridIndex::new(&data, dist.clone(), 1.0);
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
        let grid = GridIndex::new(&data, dist.clone(), 0.5);
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
        let grid = GridIndex::new(&data, dist.clone(), 1.0);
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
        let grid = GridIndex::new(&data, dist.clone(), 0.7);
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
        let grid = GridIndex::new(&data, TupleDistance::numeric(2), 1.0);
        assert_eq!(grid.knn(&q(3.0, 4.0), 5), Vec::new());
        assert_eq!(grid.range(&q(3.0, 4.0), 10.0), Vec::new());
        assert_eq!(grid.kth_distance(&q(3.0, 4.0), 1), None);
    }

    #[test]
    fn knn_larger_than_dataset() {
        let data = rows(&[[0.0, 0.0], [1.0, 1.0]]);
        let grid = GridIndex::new(&data, TupleDistance::numeric(2), 1.0);
        assert_eq!(grid.knn(&q(0.0, 0.0), 10).len(), 2);
    }

    #[test]
    fn try_new_reports_first_non_numeric_cell() {
        let data = vec![q(0.0, 0.0), vec![Value::Num(1.0), Value::Null]];
        let err = GridIndex::try_new(&data, TupleDistance::numeric(2), 1.0)
            .err()
            .unwrap();
        assert_eq!(err, NonNumericCell { row: 1, attr: 1 });
        assert!(err.to_string().contains("row 1, attribute 1"));

        let data = vec![vec![Value::Num(f64::INFINITY), Value::Num(0.0)]];
        let err = GridIndex::try_new(&data, TupleDistance::numeric(2), 1.0)
            .err()
            .unwrap();
        assert_eq!(err, NonNumericCell { row: 0, attr: 0 });
    }

    #[test]
    #[should_panic(expected = "requires finite numeric data")]
    fn new_panics_on_null_row() {
        let data = vec![vec![Value::Null, Value::Num(0.0)]];
        GridIndex::new(&data, TupleDistance::numeric(2), 1.0);
    }

    #[test]
    fn null_query_falls_back_to_full_scan() {
        let data = grid_points(120);
        let dist = TupleDistance::numeric(2);
        let grid = GridIndex::new(&data, dist.clone(), 1.0);
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
    fn occupied_cells_counted() {
        let data = rows(&[[0.1, 0.1], [0.2, 0.2], [5.0, 5.0]]);
        let grid = GridIndex::new(&data, TupleDistance::numeric(2), 1.0);
        assert_eq!(grid.occupied_cells(), 2);
        assert_eq!(grid.len(), 3);
    }

    #[test]
    fn negative_coordinates() {
        let data = rows(&[[-1.5, -1.5], [-1.4, -1.4], [1.0, 1.0]]);
        let dist = TupleDistance::numeric(2);
        let grid = GridIndex::new(&data, dist.clone(), 1.0);
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
        GridIndex::new(&data, TupleDistance::numeric(2), 0.0);
    }
}
