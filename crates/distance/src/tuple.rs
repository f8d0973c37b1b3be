//! Tuple-level distances `Δ(t1[X], t2[X])`.
//!
//! A [`TupleDistance`] pairs one per-attribute metric per column with a
//! [`Norm`] and evaluates the aggregated distance over any attribute subset
//! `X ⊆ R`, as used throughout the DISC bounds (Propositions 3 and 5).

use std::sync::Arc;

use crate::attr_set::AttrSet;
use crate::attribute::{AttributeDistance, Metric};
use crate::norm::Norm;
use crate::value::Value;

/// The tuple-level metric: per-attribute metrics plus an aggregation norm.
#[derive(Clone)]
pub struct TupleDistance {
    metrics: Arc<[Metric]>,
    norm: Norm,
    packed: bool,
}

impl TupleDistance {
    /// Builds a tuple metric from one [`Metric`] per attribute. The packed
    /// execution path ([`crate::packed`]) is enabled by default; it engages
    /// only when every metric admits it ([`Self::packable`]).
    pub fn new(metrics: Vec<Metric>, norm: Norm) -> Self {
        assert!(
            metrics.len() <= AttrSet::MAX_ATTRS,
            "at most {} attributes supported",
            AttrSet::MAX_ATTRS
        );
        TupleDistance {
            metrics: metrics.into(),
            norm,
            packed: true,
        }
    }

    /// A fully numeric metric (`AbsoluteDiff` per attribute) with the
    /// paper's default `L²` aggregation.
    pub fn numeric(m: usize) -> Self {
        Self::new(vec![Metric::Absolute; m], Norm::L2)
    }

    /// A fully textual metric (`Edit` per attribute) with `L¹` aggregation,
    /// matching the discrete-distance setting of Proposition 7.
    pub fn textual(m: usize) -> Self {
        Self::new(vec![Metric::Edit; m], Norm::L1)
    }

    /// Number of attributes `m = |R|`.
    #[inline]
    pub fn arity(&self) -> usize {
        self.metrics.len()
    }

    /// The aggregation norm.
    #[inline]
    pub fn norm(&self) -> Norm {
        self.norm
    }

    /// The per-attribute metric of column `i`.
    #[inline]
    pub fn metric(&self, i: usize) -> Metric {
        self.metrics[i]
    }

    /// Enables or disables the packed numeric execution path
    /// ([`crate::packed`]). Defaults to enabled; disabling forces every
    /// evaluation through the per-attribute [`Value`] path. Result-
    /// preserving either way — the packed kernels are bit-identical to the
    /// `Value` path, so this only affects which code runs (and the
    /// `kernel.*` counters).
    pub fn with_packed(mut self, packed: bool) -> Self {
        self.packed = packed;
        self
    }

    /// True when evaluations of this metric may use the packed layout:
    /// packing is enabled and every per-attribute metric is numeric
    /// ([`Metric::Absolute`]). Mixed and textual schemas stay on the
    /// `Value` path.
    pub fn packable(&self) -> bool {
        self.packed
            && self
                .metrics
                .iter()
                .all(|&m| crate::packed::metric_packable(m))
    }

    /// Per-attribute distance on column `i`.
    #[inline]
    pub fn attr_dist(&self, i: usize, a: &Value, b: &Value) -> f64 {
        self.metrics[i].dist(a, b)
    }

    /// Full-tuple distance `Δ(t1, t2)` over all attributes.
    pub fn dist(&self, a: &[Value], b: &[Value]) -> f64 {
        self.norm.finish(self.acc(a, b))
    }

    /// [`TupleDistance::dist`] before [`Norm::finish`]: the accumulation
    /// [`TupleDistance::dist_within`] compares against `to_acc` of its
    /// threshold.
    pub fn acc(&self, a: &[Value], b: &[Value]) -> f64 {
        debug_assert_eq!(a.len(), self.arity());
        debug_assert_eq!(b.len(), self.arity());
        let mut acc = self.norm.init();
        for i in 0..self.arity() {
            acc = self
                .norm
                .accumulate(acc, self.metrics[i].dist(&a[i], &b[i]));
        }
        acc
    }

    /// Distance restricted to the attribute subset `X`:
    /// `Δ(t1[X], t2[X])`. For `X = ∅` the distance is defined as 0, as the
    /// paper stipulates below Proposition 3.
    pub fn dist_on(&self, x: AttrSet, a: &[Value], b: &[Value]) -> f64 {
        let mut acc = self.norm.init();
        for i in x.iter() {
            debug_assert!(i < self.arity());
            acc = self
                .norm
                .accumulate(acc, self.metrics[i].dist(&a[i], &b[i]));
        }
        self.norm.finish(acc)
    }

    /// Full-tuple distance with early termination: returns `None` as soon as
    /// the partial accumulation proves `Δ(a, b) > threshold`, otherwise the
    /// exact distance. The workhorse of every ε-range query.
    pub fn dist_within(&self, a: &[Value], b: &[Value], threshold: f64) -> Option<f64> {
        let cap = self.norm.to_acc(threshold);
        let mut acc = self.norm.init();
        for i in 0..self.arity() {
            acc = self
                .norm
                .accumulate(acc, self.metrics[i].dist(&a[i], &b[i]));
            if acc > cap {
                return None;
            }
        }
        Some(self.norm.finish(acc))
    }

    /// The vector of per-attribute distances, for callers that need the
    /// components themselves (e.g. attribute-level explanations).
    pub fn components(&self, a: &[Value], b: &[Value]) -> Vec<f64> {
        (0..self.arity())
            .map(|i| self.metrics[i].dist(&a[i], &b[i]))
            .collect()
    }
}

impl std::fmt::Debug for TupleDistance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TupleDistance")
            .field("arity", &self.arity())
            .field("norm", &self.norm)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(x: f64) -> Value {
        Value::Num(x)
    }

    #[test]
    fn l2_over_two_numeric_attrs() {
        let d = TupleDistance::numeric(2);
        let a = [n(0.0), n(0.0)];
        let b = [n(3.0), n(4.0)];
        assert_eq!(d.dist(&a, &b), 5.0);
    }

    #[test]
    fn subset_distance_and_empty_x() {
        let d = TupleDistance::numeric(3);
        let a = [n(0.0), n(0.0), n(10.0)];
        let b = [n(3.0), n(4.0), n(10.0)];
        assert_eq!(d.dist_on(AttrSet::from_indices([0, 1]), &a, &b), 5.0);
        assert_eq!(d.dist_on(AttrSet::from_indices([2]), &a, &b), 0.0);
        // Δ on X = ∅ is 0 by definition.
        assert_eq!(d.dist_on(AttrSet::empty(), &a, &b), 0.0);
    }

    #[test]
    fn monotone_in_x() {
        let d = TupleDistance::numeric(3);
        let a = [n(1.0), n(2.0), n(3.0)];
        let b = [n(2.0), n(0.0), n(7.0)];
        let x01 = d.dist_on(AttrSet::from_indices([0, 1]), &a, &b);
        let x012 = d.dist_on(AttrSet::full(3), &a, &b);
        assert!(x01 <= x012);
    }

    #[test]
    fn dist_within_early_exit() {
        let d = TupleDistance::numeric(2);
        let a = [n(0.0), n(0.0)];
        let b = [n(3.0), n(4.0)];
        assert_eq!(d.dist_within(&a, &b, 5.0), Some(5.0));
        assert_eq!(d.dist_within(&a, &b, 4.99), None);
        assert_eq!(d.dist_within(&a, &b, 100.0), Some(5.0));
    }

    #[test]
    fn components_vector() {
        let d = TupleDistance::numeric(2);
        let a = [n(1.0), n(5.0)];
        let b = [n(4.0), n(5.0)];
        assert_eq!(d.components(&a, &b), vec![3.0, 0.0]);
    }

    #[test]
    fn mixed_schema() {
        let d = TupleDistance::new(vec![Metric::Absolute, Metric::Edit], Norm::L1);
        let a = [n(1.0), Value::Text("cat".into())];
        let b = [n(3.0), Value::Text("cart".into())];
        assert_eq!(d.dist(&a, &b), 3.0); // 2 + 1
    }

    #[test]
    fn textual_factory_uses_l1() {
        let d = TupleDistance::textual(2);
        assert_eq!(d.norm(), Norm::L1);
        let a = [Value::Text("ab".into()), Value::Text("x".into())];
        let b = [Value::Text("ac".into()), Value::Text("xy".into())];
        assert_eq!(d.dist(&a, &b), 2.0);
    }
}
