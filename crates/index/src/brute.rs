//! Linear-scan reference index, and the row scans every backend shares.

use disc_distance::{PackedMatrix, PackedScan, TupleDistance, Value};
use disc_obs::counters;

use crate::{kth_bound, push_best, sort_hits, NeighborIndex};

/// Exhaustive linear scan over the rows, with per-attribute early exit in
/// the distance accumulation (`TupleDistance::dist_within`). Numeric-only
/// metrics scan a packed `f64` layout (`disc_distance::packed`) instead of
/// the `Value` rows, with identical results.
///
/// Correct for every metric; the reference backend the others are tested
/// against (with packing off, the pure `Value` path).
pub struct BruteForceIndex<'a> {
    rows: &'a [Vec<Value>],
    dist: TupleDistance,
    packed: Option<PackedMatrix>,
}

impl<'a> BruteForceIndex<'a> {
    /// Builds the index: O(1) for metrics without a packed layout (just
    /// borrows the rows), one packing pass over the rows otherwise.
    pub fn new(rows: &'a [Vec<Value>], dist: TupleDistance) -> Self {
        let packed = PackedMatrix::build(rows, &dist);
        BruteForceIndex { rows, dist, packed }
    }

    /// The tuple metric in use.
    pub fn distance(&self) -> &TupleDistance {
        &self.dist
    }

    fn scan<'q>(&'q self, query: &'q [Value]) -> PackedScan<'q> {
        PackedScan::new(self.packed.as_ref(), self.rows, &self.dist, query)
    }
}

impl NeighborIndex for BruteForceIndex<'_> {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn range(&self, query: &[Value], eps: f64) -> Vec<(u32, f64)> {
        let n = self.rows.len() as u32;
        counters::BRUTE_RANGE_QUERIES.incr();
        counters::BRUTE_ROWS_VISITED.add(u64::from(n));
        let mut hits = Vec::new();
        scan_range(&mut self.scan(query), 0..n, eps, &mut hits);
        hits
    }

    fn count_within(&self, query: &[Value], eps: f64) -> usize {
        counters::BRUTE_RANGE_QUERIES.incr();
        counters::BRUTE_ROWS_VISITED.add(self.rows.len() as u64);
        let mut scan = self.scan(query);
        (0..self.rows.len())
            .filter(|&i| scan.dist_within(i as u32, eps).is_some())
            .count()
    }

    fn satisfies(&self, query: &[Value], eps: f64, eta: usize) -> bool {
        counters::BRUTE_RANGE_QUERIES.incr();
        let mut scan = self.scan(query);
        let mut count = 0usize;
        let mut visited = 0u64;
        for i in 0..self.rows.len() {
            visited += 1;
            if scan.dist_within(i as u32, eps).is_some() {
                count += 1;
                if count >= eta {
                    counters::BRUTE_ROWS_VISITED.add(visited);
                    return true;
                }
            }
        }
        counters::BRUTE_ROWS_VISITED.add(visited);
        count >= eta
    }

    fn knn(&self, query: &[Value], k: usize) -> Vec<(u32, f64)> {
        counters::BRUTE_KNN_QUERIES.incr();
        if k == 0 {
            return Vec::new();
        }
        let n = self.rows.len() as u32;
        counters::BRUTE_ROWS_VISITED.add(u64::from(n));
        let mut best = Vec::with_capacity(k + 1);
        scan_knn(&mut self.scan(query), 0..n, k, &mut best);
        sort_hits(&mut best);
        best
    }
}

/// Appends every row of `ids` within `eps` of the scan's query to `hits`.
pub(crate) fn scan_range(
    scan: &mut PackedScan<'_>,
    ids: impl IntoIterator<Item = u32>,
    eps: f64,
    hits: &mut Vec<(u32, f64)>,
) {
    for id in ids {
        if let Some(d) = scan.dist_within(id, eps) {
            hits.push((id, d));
        }
    }
}

/// Merges the rows of `ids` into the k-best list `best` (see
/// [`push_best`]), using the incumbent k-th distance as the early-exit
/// threshold; returns the number of rows scanned.
pub(crate) fn scan_knn(
    scan: &mut PackedScan<'_>,
    ids: impl IntoIterator<Item = u32>,
    k: usize,
    best: &mut Vec<(u32, f64)>,
) -> u64 {
    let mut scanned = 0u64;
    for id in ids {
        scanned += 1;
        // The early exit compares accumulators against `to_acc` of the
        // incumbent k-th distance. Under L^p both `to_acc` and the
        // finished distance go through `powf` (with a rounded `1/p`), so
        // a row can report a smaller distance than the incumbent while
        // its accumulator exceeds that threshold. Widening the threshold
        // by `KNN_SLACK` (far above that rounding, about `10³ u`) keeps
        // such rows; `push_best` ranks what passes by exact distance.
        if let Some(d) = scan.dist_within(id, kth_bound(best, k) * KNN_SLACK) {
            push_best(best, k, id, d);
        }
    }
    scanned
}

/// Relative widening of the k-NN early-exit threshold; see [`scan_knn`].
const KNN_SLACK: f64 = 1.0 + 1e-9;

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn range_query() {
        let data = rows(&[[0.0, 0.0], [1.0, 0.0], [3.0, 4.0], [10.0, 10.0]]);
        let idx = BruteForceIndex::new(&data, TupleDistance::numeric(2));
        let mut hits = idx.range(&q(0.0, 0.0), 5.0);
        sort_hits(&mut hits);
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(hits[2].1, 5.0); // boundary is inclusive
    }

    #[test]
    fn count_and_satisfies() {
        let data = rows(&[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [9.0, 9.0]]);
        let idx = BruteForceIndex::new(&data, TupleDistance::numeric(2));
        assert_eq!(idx.count_within(&q(0.0, 0.0), 2.0), 3);
        assert!(idx.satisfies(&q(0.0, 0.0), 2.0, 3));
        assert!(!idx.satisfies(&q(0.0, 0.0), 2.0, 4));
        assert!(idx.satisfies(&q(0.0, 0.0), 2.0, 0));
    }

    #[test]
    fn knn_sorted_ascending() {
        let data = rows(&[[5.0, 0.0], [1.0, 0.0], [3.0, 0.0], [2.0, 0.0]]);
        let idx = BruteForceIndex::new(&data, TupleDistance::numeric(2));
        let nn = idx.knn(&q(0.0, 0.0), 3);
        assert_eq!(nn.iter().map(|h| h.0).collect::<Vec<_>>(), vec![1, 3, 2]);
        assert_eq!(
            nn.iter().map(|h| h.1).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn knn_more_than_n() {
        let data = rows(&[[1.0, 0.0]]);
        let idx = BruteForceIndex::new(&data, TupleDistance::numeric(2));
        assert_eq!(idx.knn(&q(0.0, 0.0), 5).len(), 1);
        assert!(idx.kth_distance(&q(0.0, 0.0), 5).is_none());
        assert_eq!(idx.kth_distance(&q(0.0, 0.0), 1), Some(1.0));
        assert_eq!(idx.kth_distance(&q(0.0, 0.0), 0), Some(0.0));
    }

    #[test]
    fn knn_zero() {
        let data = rows(&[[1.0, 0.0]]);
        let idx = BruteForceIndex::new(&data, TupleDistance::numeric(2));
        assert!(idx.knn(&q(0.0, 0.0), 0).is_empty());
    }

    #[test]
    fn empty_index() {
        let data: Vec<Vec<Value>> = Vec::new();
        let idx = BruteForceIndex::new(&data, TupleDistance::numeric(2));
        assert!(idx.is_empty());
        assert!(idx.range(&q(0.0, 0.0), 1.0).is_empty());
    }

    #[test]
    fn knn_distances_are_exact_when_powf_rounds() {
        // Under L³ at this scale the rounded `1/3` exponent reports some
        // rows a few ulps *below* distances whose accumulators are
        // smaller, so an early exit against `to_acc` of the incumbent
        // k-th distance alone would drop closer rows.
        let s = 2f64.powi(40);
        let cells = [
            0.0,
            s / 2.0,
            s,
            s * (1.0 + f64::EPSILON),
            s * (1.0 + 2.0 * f64::EPSILON),
            s * (1.0 - f64::EPSILON / 2.0),
        ];
        let mut data = Vec::new();
        for &x in &cells {
            for &y in &cells {
                for &z in &cells {
                    data.push(vec![Value::Num(x), Value::Num(y), Value::Num(z)]);
                }
            }
        }
        let dist = TupleDistance::new(vec![Metric::Absolute; 3], Norm::Lp(3.0));
        let idx = BruteForceIndex::new(&data, dist.clone());
        for query in &data {
            let mut all: Vec<f64> = data.iter().map(|row| dist.dist(query, row)).collect();
            all.sort_by(f64::total_cmp);
            for k in 1..6 {
                let got: Vec<u64> = idx.knn(query, k).iter().map(|h| h.1.to_bits()).collect();
                let want: Vec<u64> = all[..k].iter().map(|d| d.to_bits()).collect();
                assert_eq!(got, want, "query {query:?}, k = {k}");
            }
        }
    }

    #[test]
    fn knn_tie_break_by_id() {
        let data = rows(&[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]);
        let idx = BruteForceIndex::new(&data, TupleDistance::numeric(2));
        let nn = idx.knn(&q(0.0, 0.0), 2);
        assert_eq!(nn.iter().map(|h| h.0).collect::<Vec<_>>(), vec![0, 1]);
    }
}
