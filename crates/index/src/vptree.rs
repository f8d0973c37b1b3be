//! Vantage-point tree: the metric-space backend of [`Index`](crate::Index)
//! for arbitrary tuple metrics.
//!
//! Works for text attributes under (weighted) edit distance, where the grid
//! does not apply, using only the triangle inequality for pruning — the
//! same property the DISC bounds rely on.
//!
//! [`AbsoluteDiff`](disc_distance::AbsoluteDiff) breaks that inequality
//! for a cell that is not a number: a `Null` (or text) sits at 1 from
//! every number, so `Δ(0, 100) = 100 > Δ(0, Null) + Δ(Null, 100) = 2`.
//! The tree therefore holds only rows whose every `Absolute` attribute
//! is a number (NaN and ±∞ included: they are at 0 from themselves and
//! at ∞ from everything else, which keeps the inequality). The other
//! rows sit in a side list that every query scans, and a query that
//! itself holds such a cell scans every row.

use disc_distance::{Metric, PackedScan, TupleDistance, Value};

use crate::brute::{scan_knn, scan_range};
use crate::{kth_bound, push_best};

struct Node {
    /// Row id of the vantage point.
    vantage: u32,
    /// Median distance from the vantage point to the points in its subtree.
    radius: f64,
    /// Points with distance ≤ radius.
    inside: Option<Box<Node>>,
    /// Points with distance > radius.
    outside: Option<Box<Node>>,
}

/// The owned node structure of a vantage-point tree, decoupled from the row
/// storage so the owner of the rows (an [`Index`](crate::Index)) keeps the
/// tree alongside the data it indexes. Queries take the row slice the
/// stored ids refer to; callers must pass the same rows the tree was built
/// over (a longer slice is fine — extra rows are simply not part of the
/// tree).
pub struct VpNodes {
    root: Option<Box<Node>>,
    /// Rows of the covered prefix the tree leaves out (see the
    /// [module docs](self)), scanned linearly by every query.
    side: Vec<u32>,
    len: usize,
}

/// True when the triangle inequality holds between `row` and every row
/// that passes this test (every `Absolute` attribute holds a number), so
/// the tree may hold `row`, and its prunes are sound for `row` as a query.
fn in_tree_space(row: &[Value], dist: &TupleDistance) -> bool {
    row.iter()
        .enumerate()
        .all(|(i, v)| !matches!(dist.metric(i), Metric::Absolute) || v.as_num().is_some())
}

impl VpNodes {
    /// Builds the node structure over all of `rows` in `O(n log n)` expected
    /// distance evaluations. Construction is deterministic: the first point
    /// of each partition is the vantage point and the median split uses a
    /// stable order.
    pub fn build(rows: &[Vec<Value>], dist: &TupleDistance) -> Self {
        let (mut ids, side): (Vec<u32>, Vec<u32>) =
            (0..rows.len() as u32).partition(|&id| in_tree_space(&rows[id as usize], dist));
        let root = build_rec(rows, dist, &mut ids);
        VpNodes {
            root,
            side,
            len: rows.len(),
        }
    }

    /// Number of rows covered: the tree's plus its side list's.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends every covered row within `eps` of the scan's query to
    /// `out`; `visited` counts the nodes and side-list rows touched. The
    /// [`PackedScan`] carries the query plus the row storage (packed when
    /// the metric admits it).
    pub fn range_into(
        &self,
        scan: &mut PackedScan<'_>,
        eps: f64,
        out: &mut Vec<(u32, f64)>,
        visited: &mut u64,
    ) {
        if !in_tree_space(scan.query(), scan.distance()) {
            scan_range(scan, 0..self.len as u32, eps, out);
            *visited += self.len as u64;
            return;
        }
        if let Some(root) = &self.root {
            let cap = scan.norm().to_acc(eps);
            range_rec(root, scan, eps, cap, out, visited);
        }
        scan_range(scan, self.side.iter().copied(), eps, out);
        *visited += self.side.len() as u64;
    }

    /// Merges the `k` nearest covered rows that `keep` accepts to the
    /// scan's query into the candidate list `best`, which must already be
    /// sorted ascending by distance (ties by id) and is kept that way;
    /// `visited` counts the nodes and side-list rows touched. A rejected
    /// side-list row is skipped unmeasured; a rejected vantage point is
    /// measured, since its distance steers the descent, but never ranked.
    pub fn knn_into(
        &self,
        scan: &mut PackedScan<'_>,
        k: usize,
        keep: &impl Fn(u32) -> bool,
        best: &mut Vec<(u32, f64)>,
        visited: &mut u64,
    ) {
        if k == 0 {
            return;
        }
        if !in_tree_space(scan.query(), scan.distance()) {
            *visited += scan_knn(scan, (0..self.len as u32).filter(|&id| keep(id)), k, best);
            return;
        }
        if let Some(root) = &self.root {
            knn_rec(root, scan, k, keep, best, visited);
        }
        let side = self.side.iter().copied().filter(|&id| keep(id));
        *visited += scan_knn(scan, side, k, best);
    }
}

fn build_rec(rows: &[Vec<Value>], dist: &TupleDistance, ids: &mut [u32]) -> Option<Box<Node>> {
    let (&vantage, rest) = ids.split_first()?;
    if rest.is_empty() {
        return Some(Box::new(Node {
            vantage,
            radius: 0.0,
            inside: None,
            outside: None,
        }));
    }
    let vrow = &rows[vantage as usize];
    let mut with_d: Vec<(u32, f64)> = rest
        .iter()
        .map(|&id| (id, dist.dist(vrow, &rows[id as usize])))
        .collect();
    with_d.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    let mid = with_d.len() / 2;
    let radius = with_d[mid].1;
    // inside: d ≤ radius (indices 0..=mid), outside: d > radius.
    let split = with_d
        .iter()
        .position(|p| p.1 > radius)
        .unwrap_or(with_d.len());
    let mut inside_ids: Vec<u32> = with_d[..split].iter().map(|p| p.0).collect();
    let mut outside_ids: Vec<u32> = with_d[split..].iter().map(|p| p.0).collect();
    Some(Box::new(Node {
        vantage,
        radius,
        inside: build_rec(rows, dist, &mut inside_ids),
        outside: build_rec(rows, dist, &mut outside_ids),
    }))
}

/// Relative slack on the triangle-inequality prunes, which skip a child
/// when `d − radius` (inside) or `radius − d` (outside) exceeds the
/// query bound `τ`: ε, or the incumbent k-th distance. Over the reals
/// that skips no row within `τ`, but `d = Δ(q, v)`, `radius` and a
/// row's reported `d' = Δ(q, p)` are computed values, each within a
/// relative error `e` of the real distance between the stored rows: a
/// few ulps per attribute under L¹, L² and L^∞, and under L^p
/// `powf`'s error plus up to `746u` from the rounded `1/p` (`u = 2⁻⁵³`;
/// see `NARROW_MARGIN` in the engine). Chaining the real triangle
/// inequality through the computed values gives, for an inside row,
/// `d − radius ≤ d' + 2.01e·(d' + radius)`, and for an outside row
/// `radius − d ≤ d' + 2.01e·(d' + d)`. A row the brute scan keeps has
/// `d' ≤ τ`, or for a range row `acc ≤ to_acc(ε)`, so `d' ≤ ε·(1 + 2e)`
/// (its rounding is that of `NARROW_MARGIN`'s argument). Either way
/// the gap stays below `τ + 5e·(d + radius + τ)`, and `1e-9` exceeds
/// `5e` by orders of magnitude even for a `powf` a thousand ulps off. So
/// a prune never drops a row at exactly ε, or one that ties the k-th
/// distance (its id may still win the tie); the slack costs at most a
/// subtree visit the exact test would skip. A gap that is not a number
/// (`∞ − ∞`) proves nothing, and the child is visited.
const PRUNE_SLACK: f64 = 1e-9;

/// True when the triangle inequality proves every row of a child beyond
/// `tau`, with `gap` its `d − radius` or `radius − d`; see
/// [`PRUNE_SLACK`].
fn beyond(gap: f64, d: f64, radius: f64, tau: f64) -> bool {
    gap > tau + PRUNE_SLACK * (d + radius + tau)
}

/// Range search below `node`. One kernel evaluation per node gives both
/// the distance the prunes need and the accumulator the brute scan's
/// inclusion test reads: a row is in range iff `acc ≤ cap = to_acc(ε)`,
/// the verdict of `dist_within` (under L² and L^p it can differ from
/// `d ≤ ε` at the boundary).
fn range_rec(
    node: &Node,
    scan: &mut PackedScan<'_>,
    eps: f64,
    cap: f64,
    out: &mut Vec<(u32, f64)>,
    visited: &mut u64,
) {
    *visited += 1;
    let acc = scan.acc(node.vantage);
    let d = scan.norm().finish(acc);
    if acc <= cap {
        out.push((node.vantage, d));
    }
    // A point p inside has Δ(v,p) ≤ radius, so Δ(q,p) ≥ d − radius; one
    // outside has Δ(v,p) > radius, so Δ(q,p) ≥ radius − d.
    if let Some(inside) = &node.inside {
        if !beyond(d - node.radius, d, node.radius, eps) {
            range_rec(inside, scan, eps, cap, out, visited);
        }
    }
    if let Some(outside) = &node.outside {
        if !beyond(node.radius - d, d, node.radius, eps) {
            range_rec(outside, scan, eps, cap, out, visited);
        }
    }
}

fn knn_rec(
    node: &Node,
    scan: &mut PackedScan<'_>,
    k: usize,
    keep: &impl Fn(u32) -> bool,
    best: &mut Vec<(u32, f64)>,
    visited: &mut u64,
) {
    *visited += 1;
    let d = scan.norm().finish(scan.acc(node.vantage));
    if d <= kth_bound(best, k) && keep(node.vantage) {
        push_best(best, k, node.vantage, d);
    }
    // Visit the nearer side first for better pruning.
    let first_inside = d <= node.radius;
    for go_inside in [first_inside, !first_inside] {
        let child = if go_inside {
            &node.inside
        } else {
            &node.outside
        };
        if let Some(child) = child {
            let gap = if go_inside {
                d - node.radius
            } else {
                node.radius - d
            };
            if !beyond(gap, d, node.radius, kth_bound(best, k)) {
                knn_rec(child, scan, k, keep, best, visited);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sort_hits, BruteForceIndex, Index, NeighborIndex};

    fn rows_2d(n: usize) -> Vec<Vec<Value>> {
        // Deterministic scatter via a small LCG.
        let mut state = 12345u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = ((state >> 33) % 1000) as f64 / 100.0;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = ((state >> 33) % 1000) as f64 / 100.0;
                vec![Value::Num(x), Value::Num(y)]
            })
            .collect()
    }

    #[test]
    fn range_matches_brute_force() {
        let data = rows_2d(300);
        let dist = TupleDistance::numeric(2);
        let tree = Index::vp_tree(&data, dist.clone());
        let brute = BruteForceIndex::new(&data, dist);
        for eps in [0.5, 2.0, 8.0] {
            let query = vec![Value::Num(5.0), Value::Num(5.0)];
            let mut a = tree.range(&query, eps);
            let mut b = brute.range(&query, eps);
            sort_hits(&mut a);
            sort_hits(&mut b);
            assert_eq!(a, b, "eps={eps}");
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let data = rows_2d(200);
        let dist = TupleDistance::numeric(2);
        let tree = Index::vp_tree(&data, dist.clone());
        let brute = BruteForceIndex::new(&data, dist);
        for k in [1, 7, 25] {
            let query = vec![Value::Num(3.3), Value::Num(7.7)];
            let a = tree.knn(&query, k);
            let b = brute.knn(&query, k);
            assert_eq!(a.len(), b.len(), "k={k}");
            for (x, y) in a.iter().zip(&b) {
                assert!((x.1 - y.1).abs() < 1e-12, "k={k}");
            }
        }
    }

    #[test]
    fn works_on_text_data() {
        let data: Vec<Vec<Value>> = ["cat", "cart", "dog", "dot", "zebra"]
            .iter()
            .map(|s| vec![Value::Text(s.to_string())])
            .collect();
        let dist = TupleDistance::textual(1);
        let tree = Index::vp_tree(&data, dist.clone());
        let brute = BruteForceIndex::new(&data, dist);
        let query = vec![Value::Text("cot".into())];
        let mut a = tree.range(&query, 1.0);
        let mut b = brute.range(&query, 1.0);
        sort_hits(&mut a);
        sort_hits(&mut b);
        assert_eq!(a, b);
        // "cat" and "dot" are both 1 edit from "cot".
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<Vec<Value>> = Vec::new();
        let t = Index::vp_tree(&empty, TupleDistance::numeric(1));
        assert!(t.is_empty());
        assert!(t.range(&[Value::Num(0.0)], 10.0).is_empty());
        assert!(t.knn(&[Value::Num(0.0)], 3).is_empty());

        let one = vec![vec![Value::Num(1.0)]];
        let t = Index::vp_tree(&one, TupleDistance::numeric(1));
        assert_eq!(t.knn(&[Value::Num(0.0)], 3), vec![(0, 1.0)]);
    }

    #[test]
    fn duplicate_points() {
        let data = vec![
            vec![Value::Num(1.0)],
            vec![Value::Num(1.0)],
            vec![Value::Num(1.0)],
            vec![Value::Num(5.0)],
        ];
        let t = Index::vp_tree(&data, TupleDistance::numeric(1));
        let hits = t.range(&[Value::Num(1.0)], 0.0);
        assert_eq!(hits.len(), 3);
        let nn = t.knn(&[Value::Num(1.0)], 4);
        assert_eq!(nn.len(), 4);
        assert_eq!(nn[3].1, 4.0);
    }

    #[test]
    fn vpnodes_prefix_build_ignores_tail() {
        let data = rows_2d(50);
        let dist = TupleDistance::numeric(2);
        let nodes = VpNodes::build(&data[..30], &dist);
        assert_eq!(nodes.len(), 30);
        let query = vec![Value::Num(5.0), Value::Num(5.0)];
        let mut hits = Vec::new();
        let mut visited = 0u64;
        let mut scan = PackedScan::new(None, &data, &dist, &query);
        nodes.range_into(&mut scan, 100.0, &mut hits, &mut visited);
        // Every row of the prefix is within 100.0; none of the tail appears.
        assert_eq!(hits.len(), 30);
        assert!(hits.iter().all(|&(id, _)| id < 30));
    }
}
