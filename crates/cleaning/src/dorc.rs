//! DORC — density-based repair by tuple substitution (Song et al., KDD
//! 2015, "Turn waste into wealth").
//!
//! DORC cleans noisy data so that every tuple becomes ρ-covered for
//! density-based clustering. The original formulates a quadratic program;
//! this is the greedy counterpart that preserves DORC's defining behaviour:
//! each violating tuple is substituted *wholesale* by the nearest existing
//! tuple that satisfies the distance constraints — all attributes change,
//! which is exactly the over-changing the DISC paper contrasts against
//! (Figure 2(b): `t₂₄` is replaced by `t₂₁` on Time, Longitude *and*
//! Latitude).

use disc_core::{detect_outliers_parallel, DistanceConstraints, Parallelism, RSet};
use disc_data::Dataset;
use disc_distance::{AttrSet, TupleDistance};

use crate::{RepairReport, Repairer};

/// Greedy DORC: nearest-feasible-tuple substitution.
#[derive(Debug, Clone)]
pub struct Dorc {
    /// The distance constraints shared with DISC (Section 4.1.4).
    pub constraints: DistanceConstraints,
    /// The tuple metric.
    pub dist: TupleDistance,
}

impl Dorc {
    /// Builds a DORC repairer.
    pub fn new(constraints: DistanceConstraints, dist: TupleDistance) -> Self {
        Dorc { constraints, dist }
    }
}

impl Repairer for Dorc {
    fn name(&self) -> &'static str {
        "DORC"
    }

    fn repair(&self, ds: &mut Dataset) -> RepairReport {
        let (split, index) = detect_outliers_parallel(ds.rows(), &self.dist, self.constraints, 1);
        let r = RSet::from_split(&split, index, Parallelism::auto());
        let mut report = RepairReport::default();
        for &row in &split.outliers {
            // The nearest inlier that itself satisfies the constraints
            // within r (a core tuple): substituting onto it guarantees the
            // repaired tuple is ρ-covered.
            let t_o = ds.row(row);
            let mut best: Option<(usize, f64)> = None;
            for (i, cand) in r.rows().iter().enumerate() {
                if r.delta_eta(i) <= self.constraints.eps {
                    let d = self.dist.dist(t_o, cand);
                    if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                        best = Some((i, d));
                    }
                }
            }
            if let Some((i, _)) = best {
                let replacement = r.rows()[i].clone();
                let mut attrs = AttrSet::empty();
                for (a, new_value) in replacement.iter().enumerate() {
                    if !new_value.same(&ds.row(row)[a]) {
                        attrs.insert(a);
                    }
                }
                ds.set_row(row, replacement);
                report.record(row, attrs);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::dirty_clusters;
    use disc_distance::Value;

    #[test]
    fn substitutes_whole_tuples() {
        let (mut ds, log) = dirty_clusters(3);
        let dorc = Dorc::new(DistanceConstraints::new(2.5, 5), TupleDistance::numeric(3));
        let report = dorc.repair(&mut ds);
        assert!(report.rows_modified() > 0);
        // DORC substitutions touch (nearly) all attributes — the defining
        // over-change: on continuous data the nearest tuple differs in
        // every coordinate.
        let avg_attrs: f64 = report.rows.iter().map(|(_, a)| a.len() as f64).sum::<f64>()
            / report.rows_modified() as f64;
        assert!(
            avg_attrs > 2.5,
            "avg modified attrs {avg_attrs} too low for DORC"
        );
        // Repaired rows now exist verbatim in the dataset (substitution).
        for (row, _) in &report.rows {
            let repaired = ds.row(*row);
            let twin =
                ds.rows().iter().enumerate().any(|(i, other)| {
                    i != *row && other.iter().zip(repaired).all(|(a, b)| a.same(b))
                });
            assert!(twin, "row {row} is not a copy of an existing tuple");
        }
        let _ = log;
    }

    #[test]
    fn clean_data_untouched() {
        let mut rows = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                rows.push(vec![Value::Num(0.2 * i as f64), Value::Num(0.2 * j as f64)]);
            }
        }
        let mut ds = Dataset::from_rows(vec!["x".into(), "y".into()], rows);
        let dorc = Dorc::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2));
        let before = ds.rows().to_vec();
        let report = dorc.repair(&mut ds);
        assert_eq!(report.rows_modified(), 0);
        assert_eq!(ds.rows(), before.as_slice());
    }

    #[test]
    fn after_repair_no_violations_remain() {
        let (mut ds, _) = dirty_clusters(8);
        let c = DistanceConstraints::new(2.5, 5);
        let dist = TupleDistance::numeric(3);
        Dorc::new(c, dist.clone()).repair(&mut ds);
        let split = disc_core::detect_outliers(ds.rows(), &dist, c);
        assert!(
            split.outliers.is_empty(),
            "violations left: {:?}",
            split.outliers
        );
    }
}
