//! `L^p` aggregation of per-attribute distances (Formula 1 in the paper).

/// An `L^p` norm used to aggregate per-attribute distances over a set of
/// attributes `X ⊆ R`.
///
/// The paper uses `L²` by default (Formula 1) and notes that `L¹` is simply
/// the sum of per-attribute distances. All variants preserve the four metric
/// axioms of the underlying per-attribute metrics, plus monotonicity in the
/// attribute set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Norm {
    /// Sum of per-attribute distances.
    L1,
    /// Euclidean aggregation (the paper's default).
    #[default]
    L2,
    /// Maximum per-attribute distance.
    LInf,
    /// General Minkowski norm with exponent `p ≥ 1`.
    Lp(f64),
}

impl Norm {
    /// Aggregates a slice of per-attribute distances.
    pub fn aggregate(&self, components: &[f64]) -> f64 {
        match *self {
            Norm::L1 => components.iter().sum(),
            Norm::L2 => components.iter().map(|d| d * d).sum::<f64>().sqrt(),
            Norm::LInf => components.iter().cloned().fold(0.0, f64::max),
            Norm::Lp(p) => {
                assert!(p >= 1.0, "Lp norm requires p >= 1, got {p}");
                components
                    .iter()
                    .map(|d| d.abs().powf(p))
                    .sum::<f64>()
                    .powf(1.0 / p)
            }
        }
    }

    /// Incremental accumulator start value.
    #[inline]
    pub fn init(&self) -> f64 {
        0.0
    }

    /// Folds one more per-attribute distance into an accumulator.
    ///
    /// Combined with [`Norm::finish`], allows streaming aggregation without
    /// materializing the component vector — the hot path of every neighbor
    /// query in the workspace.
    #[inline]
    pub fn accumulate(&self, acc: f64, d: f64) -> f64 {
        match *self {
            Norm::L1 => acc + d,
            Norm::L2 => acc + d * d,
            Norm::LInf => acc.max(d),
            Norm::Lp(p) => acc + d.abs().powf(p),
        }
    }

    /// Finalizes a streamed accumulation.
    #[inline]
    pub fn finish(&self, acc: f64) -> f64 {
        match *self {
            Norm::L1 | Norm::LInf => acc,
            Norm::L2 => acc.sqrt(),
            Norm::Lp(p) => acc.powf(1.0 / p),
        }
    }

    /// The Minkowski aggregation exponent `p`, or `None` for `L^∞`.
    ///
    /// Useful for norm-aware geometric bounds: a box whose per-coordinate
    /// extent is at most `s` has `L^p` diameter at most `m^{1/p}·s` over
    /// `m` coordinates, and `L^∞` diameter at most `s` (the `p → ∞`
    /// limit). The grid index uses this to size its k-NN exhaustion radius.
    #[inline]
    pub fn exponent(&self) -> Option<f64> {
        match *self {
            Norm::L1 => Some(1.0),
            Norm::L2 => Some(2.0),
            Norm::LInf => None,
            Norm::Lp(p) => Some(p),
        }
    }

    /// The accumulator value corresponding to a finished distance `d`.
    ///
    /// Lets range queries compare partial accumulations against a threshold
    /// without taking roots: `acc > to_acc(ε)` implies the final distance
    /// exceeds `ε`, enabling early exit.
    #[inline]
    pub fn to_acc(&self, d: f64) -> f64 {
        match *self {
            Norm::L1 | Norm::LInf => d,
            Norm::L2 => d * d,
            Norm::Lp(p) => d.abs().powf(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_known_values() {
        let c = [3.0, 4.0];
        assert_eq!(Norm::L1.aggregate(&c), 7.0);
        assert_eq!(Norm::L2.aggregate(&c), 5.0);
        assert_eq!(Norm::LInf.aggregate(&c), 4.0);
        assert!((Norm::Lp(2.0).aggregate(&c) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_components_are_zero() {
        for n in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            assert_eq!(n.aggregate(&[]), 0.0);
        }
    }

    #[test]
    fn streaming_matches_batch() {
        let c = [1.0, 2.0, 0.5, 3.25];
        for n in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            let mut acc = n.init();
            for &d in &c {
                acc = n.accumulate(acc, d);
            }
            assert!((n.finish(acc) - n.aggregate(&c)).abs() < 1e-12, "{n:?}");
        }
    }

    #[test]
    fn to_acc_roundtrips() {
        for n in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            let d = 2.5;
            assert!((n.finish(n.to_acc(d)) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn monotone_in_attribute_set() {
        // Adding one more component can never decrease the aggregate.
        for n in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            let base = n.aggregate(&[1.0, 2.0]);
            let ext = n.aggregate(&[1.0, 2.0, 0.7]);
            assert!(ext >= base, "{n:?}");
        }
    }

    #[test]
    #[should_panic(expected = "requires p >= 1")]
    fn lp_rejects_sub_one() {
        Norm::Lp(0.5).aggregate(&[1.0]);
    }

    #[test]
    fn exponent_bounds_box_diameter() {
        assert_eq!(Norm::L1.exponent(), Some(1.0));
        assert_eq!(Norm::L2.exponent(), Some(2.0));
        assert_eq!(Norm::Lp(3.0).exponent(), Some(3.0));
        assert_eq!(Norm::LInf.exponent(), None);

        // m^{1/p}·s really does bound the aggregate of m components ≤ s.
        let m = 3usize;
        let s = 2.0;
        let comps = [s; 3];
        for n in [Norm::L1, Norm::L2, Norm::Lp(3.0), Norm::LInf] {
            let diameter = match n.exponent() {
                Some(p) => s * (m as f64).powf(1.0 / p),
                None => s,
            };
            assert!(n.aggregate(&comps) <= diameter + 1e-12, "{n:?}");
        }
    }
}
