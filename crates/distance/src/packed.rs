//! Packed numeric execution path for the distance hot path.
//!
//! Every ε-range and k-NN query funnels through per-attribute [`Value`]
//! dispatch: an enum match per cell, plus the non-finite handling of
//! [`AbsoluteDiff`](crate::AbsoluteDiff). For fully numeric schemas —
//! the common case for the paper's GPS/Flight/Iris workloads — that
//! dispatch is pure overhead. This module provides:
//!
//! * [`PackedMatrix`] — contiguous row-major `f64` storage with a
//!   per-row validity mask, built once per index/`RSet` epoch;
//! * monomorphized per-norm kernels ([`l1`], [`l2_squared`], [`linf`],
//!   [`lp`]) and their early-exit `*_within` variants, which compare
//!   partial accumulations against the threshold in accumulator space
//!   (squared for `L²`, so no `sqrt` on the early-exit path);
//! * [`PackedScan`] — a per-query cursor that dispatches each row to the
//!   kernel or to the `Value` fallback and flushes the
//!   `kernel.packed_calls` / `kernel.fallback_calls` /
//!   `kernel.early_exits` counters once on drop.
//!
//! # Determinism contract
//!
//! The kernels are **bit-identical** to the `Value` path, not merely
//! close: they perform the same sequence of IEEE-754 operations in the
//! same order as [`TupleDistance::dist_within`] /
//! [`TupleDistance::acc`] restricted to finite numeric cells.
//! Concretely, per attribute the `Value` path computes `d = |x − y|`
//! (finite operands) and folds it with [`Norm::accumulate`]; the kernels
//! compute the same `|x − y|` and fold with the same expression
//! (`acc + d` for `L¹`, `acc + d·d` for `L²` — and `|x−y|·|x−y|` is
//! bitwise equal to `(x−y)·(x−y)` since `abs` only clears the sign bit
//! and IEEE multiplication XORs the signs — `max` for `L^∞`,
//! `acc + d.powf(p)` for `L^p`). The early-exit *decision* is also
//! identical: every accumulator is monotone non-decreasing, so the
//! partial accumulation exceeds the cap at some prefix iff the full
//! accumulation does. Switching the packed path on or off can therefore
//! never change a query result, a saved adjustment, or a pipeline
//! report — only the `kernel.*` counters.
//!
//! # Fallback rules
//!
//! Selection is per metric and per row, decided at build time:
//!
//! * the whole matrix is skipped ([`PackedMatrix::build`] returns
//!   `None`) unless every attribute metric is [`Metric::Absolute`] and
//!   packing is enabled on the [`TupleDistance`]
//!   ([`TupleDistance::packable`]);
//! * a row with any non-finite or non-numeric cell (`Null`, text, NaN,
//!   ±∞) is stored invalid and evaluated through the `Value` path, so
//!   the null-policy and non-finite semantics of
//!   [`AbsoluteDiff`](crate::AbsoluteDiff) are preserved exactly;
//! * a query with any such cell falls back wholesale
//!   ([`pack_values`] returns `None`).

use crate::attribute::Metric;
use crate::norm::Norm;
use crate::tuple::TupleDistance;
use crate::value::Value;
use disc_obs::counters;

/// Packs a tuple into a dense `f64` vector, or `None` if any cell is not
/// a finite number — such tuples must take the `Value` path to preserve
/// the non-finite/null distance semantics.
pub fn pack_values(values: &[Value]) -> Option<Vec<f64>> {
    values
        .iter()
        .map(|v| v.as_num().filter(|x| x.is_finite()))
        .collect()
}

/// Contiguous row-major `f64` storage for numeric-only attribute sets,
/// with a per-row validity mask; see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct PackedMatrix {
    m: usize,
    data: Vec<f64>,
    valid: Vec<bool>,
}

impl PackedMatrix {
    /// An empty matrix with `m` attributes per row.
    pub fn with_arity(m: usize) -> Self {
        PackedMatrix {
            m,
            data: Vec::new(),
            valid: Vec::new(),
        }
    }

    /// Packs `rows` for `dist`, or `None` when the metric does not admit
    /// the packed layout ([`TupleDistance::packable`]: any non-numeric
    /// attribute metric, or packing disabled). Rows that cannot be packed
    /// are stored invalid and served by the `Value` fallback per row.
    pub fn build(rows: &[Vec<Value>], dist: &TupleDistance) -> Option<Self> {
        if !dist.packable() {
            return None;
        }
        let mut mat = PackedMatrix {
            m: dist.arity(),
            data: Vec::with_capacity(rows.len() * dist.arity()),
            valid: Vec::with_capacity(rows.len()),
        };
        for row in rows {
            mat.push_row(row);
        }
        Some(mat)
    }

    /// Appends one row (used by the dynamic index's packed tail). An
    /// unpackable row is recorded invalid, not rejected.
    pub fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.m);
        let start = self.data.len();
        let mut ok = true;
        for v in row {
            match v.as_num().filter(|x| x.is_finite()) {
                Some(x) => self.data.push(x),
                None => {
                    ok = false;
                    self.data.push(f64::NAN);
                }
            }
        }
        debug_assert_eq!(self.data.len(), start + self.m);
        self.valid.push(ok);
    }

    /// Inserts one row at position `at`, shifting later rows up by one:
    /// the layout [`PackedMatrix::build`] gives the rows with `row`
    /// inserted there. An unpackable row is recorded invalid.
    ///
    /// # Panics
    /// Panics if `at` exceeds [`PackedMatrix::len`].
    pub fn insert_row(&mut self, at: usize, row: &[Value]) {
        assert!(at <= self.len(), "insert position {at} past the end");
        self.push_row(row);
        self.data[at * self.m..].rotate_right(self.m);
        self.valid[at..].rotate_right(1);
    }

    /// Number of packed rows (valid or not).
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// True when no rows have been packed.
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// Attributes per row.
    pub fn arity(&self) -> usize {
        self.m
    }

    /// The packed coordinates of row `id`, or `None` when the row was
    /// unpackable and must be served by the `Value` path.
    #[inline]
    pub fn row(&self, id: usize) -> Option<&[f64]> {
        if self.valid[id] {
            Some(&self.data[id * self.m..(id + 1) * self.m])
        } else {
            None
        }
    }
}

/// `Σ |qᵢ − rᵢ|` — the `L¹` accumulator (which is also the distance).
#[inline]
pub fn l1(q: &[f64], r: &[f64]) -> f64 {
    debug_assert_eq!(q.len(), r.len());
    let mut acc = 0.0;
    for (x, y) in q.iter().zip(r) {
        let d = (x - y).abs();
        acc += d;
    }
    acc
}

/// `Σ (qᵢ − rᵢ)²` — the `L²` accumulator; callers take the root once.
#[inline]
pub fn l2_squared(q: &[f64], r: &[f64]) -> f64 {
    debug_assert_eq!(q.len(), r.len());
    let mut acc = 0.0;
    for (x, y) in q.iter().zip(r) {
        let d = (x - y).abs();
        acc += d * d;
    }
    acc
}

/// `max |qᵢ − rᵢ|` — the `L^∞` accumulator (also the distance).
#[inline]
pub fn linf(q: &[f64], r: &[f64]) -> f64 {
    debug_assert_eq!(q.len(), r.len());
    let mut acc = 0.0f64;
    for (x, y) in q.iter().zip(r) {
        acc = acc.max((x - y).abs());
    }
    acc
}

/// `Σ |qᵢ − rᵢ|^p` — the `L^p` accumulator; callers take the `1/p` root.
#[inline]
pub fn lp(q: &[f64], r: &[f64], p: f64) -> f64 {
    debug_assert_eq!(q.len(), r.len());
    let mut acc = 0.0;
    for (x, y) in q.iter().zip(r) {
        acc += (x - y).abs().powf(p);
    }
    acc
}

/// [`l1`] with early exit: `None` as soon as the partial sum exceeds
/// `threshold`, otherwise the exact distance.
#[inline]
pub fn l1_within(q: &[f64], r: &[f64], threshold: f64) -> Option<f64> {
    debug_assert_eq!(q.len(), r.len());
    let mut acc = 0.0;
    for (x, y) in q.iter().zip(r) {
        acc += (x - y).abs();
        if acc > threshold {
            return None;
        }
    }
    Some(acc)
}

/// [`l2_squared`] with early exit against `threshold²` (the comparison
/// stays in squared space, so `sqrt` only runs on accepted rows).
#[inline]
pub fn l2_within(q: &[f64], r: &[f64], threshold: f64) -> Option<f64> {
    debug_assert_eq!(q.len(), r.len());
    let cap = threshold * threshold;
    let mut acc = 0.0;
    for (x, y) in q.iter().zip(r) {
        let d = (x - y).abs();
        acc += d * d;
        if acc > cap {
            return None;
        }
    }
    Some(acc.sqrt())
}

/// [`linf`] with early exit.
#[inline]
pub fn linf_within(q: &[f64], r: &[f64], threshold: f64) -> Option<f64> {
    debug_assert_eq!(q.len(), r.len());
    let mut acc = 0.0f64;
    for (x, y) in q.iter().zip(r) {
        acc = acc.max((x - y).abs());
        if acc > threshold {
            return None;
        }
    }
    Some(acc)
}

/// [`lp`] with early exit against `|threshold|^p`.
#[inline]
pub fn lp_within(q: &[f64], r: &[f64], p: f64, threshold: f64) -> Option<f64> {
    debug_assert_eq!(q.len(), r.len());
    let cap = threshold.abs().powf(p);
    let mut acc = 0.0;
    for (x, y) in q.iter().zip(r) {
        acc += (x - y).abs().powf(p);
        if acc > cap {
            return None;
        }
    }
    Some(acc.powf(1.0 / p))
}

/// Full packed accumulation under `norm`: [`Norm::finish`] of it is
/// [`eval_full`].
#[inline]
pub fn eval_acc(norm: Norm, q: &[f64], r: &[f64]) -> f64 {
    match norm {
        Norm::L1 => l1(q, r),
        Norm::L2 => l2_squared(q, r),
        Norm::LInf => linf(q, r),
        Norm::Lp(p) => lp(q, r, p),
    }
}

/// Full packed distance under `norm` (finished, not accumulator space).
#[inline]
pub fn eval_full(norm: Norm, q: &[f64], r: &[f64]) -> f64 {
    norm.finish(eval_acc(norm, q, r))
}

/// Packed distance with early exit, mirroring
/// [`TupleDistance::dist_within`] bit for bit on finite numeric rows.
#[inline]
pub fn eval_within(norm: Norm, q: &[f64], r: &[f64], threshold: f64) -> Option<f64> {
    match norm {
        Norm::L1 => l1_within(q, r, threshold),
        Norm::L2 => l2_within(q, r, threshold),
        Norm::LInf => linf_within(q, r, threshold),
        Norm::Lp(p) => lp_within(q, r, p, threshold),
    }
}

/// A per-query scan cursor over one row set: dispatches each evaluated
/// row to the packed kernel when possible and to the `Value` path
/// otherwise, tallying kernel activity locally and flushing it to the
/// process-global `kernel.*` counters once on drop (the counter idiom of
/// the index backends — no atomics on the per-row path).
pub struct PackedScan<'a> {
    matrix: Option<&'a PackedMatrix>,
    rows: &'a [Vec<Value>],
    dist: &'a TupleDistance,
    query: &'a [Value],
    /// Packed query coordinates; meaningful only when `matrix` is kept.
    qf: Vec<f64>,
    packed_calls: u64,
    fallback_calls: u64,
    early_exits: u64,
}

impl<'a> PackedScan<'a> {
    /// A cursor for `query` over `rows`. Passing `matrix = None` (no
    /// packed layout for this metric) or an unpackable query selects the
    /// `Value` path for every row.
    pub fn new(
        matrix: Option<&'a PackedMatrix>,
        rows: &'a [Vec<Value>],
        dist: &'a TupleDistance,
        query: &'a [Value],
    ) -> Self {
        let (matrix, qf) = match matrix {
            Some(mat) => match pack_values(query) {
                Some(qf) => (Some(mat), qf),
                None => (None, Vec::new()),
            },
            None => (None, Vec::new()),
        };
        PackedScan {
            matrix,
            rows,
            dist,
            query,
            qf,
            packed_calls: 0,
            fallback_calls: 0,
            early_exits: 0,
        }
    }

    /// True when the packed kernels serve (valid rows of) this query.
    pub fn is_packed(&self) -> bool {
        self.matrix.is_some()
    }

    /// Distance from the query to row `id` with early exit, identical in
    /// result to [`TupleDistance::dist_within`].
    #[inline]
    pub fn dist_within(&mut self, id: u32, threshold: f64) -> Option<f64> {
        if let Some(mat) = self.matrix {
            if let Some(row) = mat.row(id as usize) {
                self.packed_calls += 1;
                let d = eval_within(self.dist.norm(), &self.qf, row, threshold);
                if d.is_none() {
                    self.early_exits += 1;
                }
                return d;
            }
        }
        self.fallback_calls += 1;
        self.dist
            .dist_within(self.query, &self.rows[id as usize], threshold)
    }

    /// Full accumulation from the query to row `id`, identical in result
    /// to [`TupleDistance::acc`]: [`Norm::finish`] of it is the distance,
    /// and `acc ≤ to_acc(t)` is the verdict of
    /// [`PackedScan::dist_within`] at `t`.
    #[inline]
    pub fn acc(&mut self, id: u32) -> f64 {
        if let Some(mat) = self.matrix {
            if let Some(row) = mat.row(id as usize) {
                self.packed_calls += 1;
                return eval_acc(self.dist.norm(), &self.qf, row);
            }
        }
        self.fallback_calls += 1;
        self.dist.acc(self.query, &self.rows[id as usize])
    }

    /// The norm the scan's metric aggregates with.
    pub fn norm(&self) -> Norm {
        self.dist.norm()
    }

    /// The tuple metric the scan evaluates.
    pub fn distance(&self) -> &'a TupleDistance {
        self.dist
    }

    /// The query the scan measures from.
    pub fn query(&self) -> &'a [Value] {
        self.query
    }
}

impl Drop for PackedScan<'_> {
    fn drop(&mut self) {
        counters::KERNEL_PACKED_CALLS.add(self.packed_calls);
        counters::KERNEL_FALLBACK_CALLS.add(self.fallback_calls);
        counters::KERNEL_EARLY_EXITS.add(self.early_exits);
    }
}

/// True when `metric` admits the packed `f64` layout.
pub(crate) fn metric_packable(metric: Metric) -> bool {
    matches!(metric, Metric::Absolute)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(x: f64) -> Value {
        Value::Num(x)
    }

    #[test]
    fn build_requires_all_absolute_metrics() {
        let rows = vec![vec![n(1.0)]];
        assert!(PackedMatrix::build(&rows, &TupleDistance::numeric(1)).is_some());
        assert!(PackedMatrix::build(&rows, &TupleDistance::textual(1)).is_none());
        assert!(
            PackedMatrix::build(&rows, &TupleDistance::numeric(1).with_packed(false)).is_none()
        );
    }

    #[test]
    fn invalid_rows_are_masked_not_rejected() {
        let rows = vec![
            vec![n(1.0), n(2.0)],
            vec![Value::Null, n(2.0)],
            vec![n(f64::NAN), n(2.0)],
            vec![n(3.0), n(4.0)],
        ];
        let mat = PackedMatrix::build(&rows, &TupleDistance::numeric(2)).unwrap();
        assert_eq!(mat.len(), 4);
        assert_eq!(mat.row(0), Some(&[1.0, 2.0][..]));
        assert_eq!(mat.row(1), None);
        assert_eq!(mat.row(2), None);
        assert_eq!(mat.row(3), Some(&[3.0, 4.0][..]));
    }

    #[test]
    fn kernels_match_value_path_bitwise() {
        let a = [1.25, -3.5, 0.1, 7.75];
        let b = [0.5, 2.25, -0.9, 7.75];
        let av: Vec<Value> = a.iter().map(|&x| n(x)).collect();
        let bv: Vec<Value> = b.iter().map(|&x| n(x)).collect();
        for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            let dist = TupleDistance::new(vec![Metric::Absolute; 4], norm);
            assert_eq!(
                eval_full(norm, &a, &b).to_bits(),
                dist.dist(&av, &bv).to_bits()
            );
            for t in [0.0, 1.0, 3.0, 5.0, 100.0] {
                let packed = eval_within(norm, &a, &b, t);
                let value = dist.dist_within(&av, &bv, t);
                assert_eq!(
                    packed.map(f64::to_bits),
                    value.map(f64::to_bits),
                    "{norm:?} t={t}"
                );
            }
        }
    }

    #[test]
    fn scan_counts_and_falls_back() {
        let rows = vec![vec![n(0.0)], vec![Value::Null], vec![n(3.0)]];
        let dist = TupleDistance::numeric(1);
        let mat = PackedMatrix::build(&rows, &dist).unwrap();
        let query = vec![n(0.0)];
        let mut scan = PackedScan::new(Some(&mat), &rows, &dist, &query);
        assert!(scan.is_packed());
        assert_eq!(scan.dist_within(0, 1.0), Some(0.0));
        assert_eq!(scan.dist_within(1, 1.0), Some(1.0)); // Null fallback: d = 1
        assert_eq!(scan.dist_within(2, 1.0), None); // early exit
        assert_eq!(scan.acc(2), 9.0); // L², before the root
        assert_eq!(
            (scan.packed_calls, scan.fallback_calls, scan.early_exits),
            (3, 1, 1)
        );

        // Unpackable query: everything falls back.
        let bad = vec![Value::Null];
        let mut scan = PackedScan::new(Some(&mat), &rows, &dist, &bad);
        assert!(!scan.is_packed());
        assert_eq!(scan.dist_within(1, 1.0), Some(0.0));
        assert_eq!((scan.packed_calls, scan.fallback_calls), (0, 1));
    }

    #[test]
    fn push_row_appends_incrementally() {
        let dist = TupleDistance::numeric(2);
        let mut mat = PackedMatrix::build(&[], &dist).unwrap();
        assert!(mat.is_empty());
        mat.push_row(&[n(1.0), n(2.0)]);
        mat.push_row(&[n(5.0), Value::Text("x".into())]);
        assert_eq!(mat.len(), 2);
        assert_eq!(mat.arity(), 2);
        assert_eq!(mat.row(0), Some(&[1.0, 2.0][..]));
        assert_eq!(mat.row(1), None);
    }

    #[test]
    fn insert_row_matches_building_over_the_merged_rows() {
        let dist = TupleDistance::numeric(2);
        let rows = vec![vec![n(1.0), n(2.0)], vec![n(3.0), n(4.0)]];
        let mut mat = PackedMatrix::build(&rows, &dist).unwrap();
        let text = vec![n(7.0), Value::Text("x".into())];
        mat.insert_row(1, &text);
        mat.insert_row(0, &[n(5.0), n(6.0)]);
        mat.insert_row(4, &[n(8.0), n(9.0)]);
        let merged = vec![
            vec![n(5.0), n(6.0)],
            rows[0].clone(),
            text,
            rows[1].clone(),
            vec![n(8.0), n(9.0)],
        ];
        let built = PackedMatrix::build(&merged, &dist).unwrap();
        assert_eq!(mat.len(), built.len());
        for i in 0..built.len() {
            assert_eq!(mat.row(i), built.row(i), "row {i}");
        }
        assert_eq!(mat.row(2), None);
    }
}
