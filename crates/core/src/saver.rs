//! The unified saver API: one configuration builder, one trait.
//!
//! The seed grew two parallel constructor chains
//! (`DiscSaver::new(..).with_kappa(..).with_budget(..)` and the
//! `ExactSaver` copy), so every binary wired the same knobs twice and
//! batch entry points were duplicated `impl` blocks. [`SaverConfig`]
//! centralizes the knobs and validates them once, returning
//! [`Error`] instead of panicking; [`Saver`] is the common
//! object-safe interface the pipeline (and the streaming
//! [`DiscEngine`](crate::DiscEngine)) run against, so `&dyn Saver`
//! dispatch produces reports identical to direct calls.
//!
//! The old constructor chains lived on for a while as `#[deprecated]`
//! shims; they are gone now, and [`SaverConfig`] is the only way to
//! build a saver.

use disc_data::Dataset;
use disc_distance::{TupleDistance, Value};
use disc_obs::SaveEffort;

use crate::approx::{Adjustment, DiscSaver};
use crate::budget::{Budget, CancelToken, Cancelled};
use crate::constraints::DistanceConstraints;
use crate::error::Error;
use crate::exact::ExactSaver;
use crate::parallel::Parallelism;
use crate::pipeline::SaveReport;
use crate::rset::RSet;

/// An outlier-saving algorithm with the shared pipeline knobs.
///
/// Implementations provide the per-outlier search; the batch entry point
/// [`Saver::save_all`] is the shared detect → split → save → apply
/// pipeline (budgeted, parallel, panic-isolated) and produces identical
/// reports whether called on the concrete type or through `&dyn Saver`.
pub trait Saver: Send + Sync {
    /// Short stable identifier (`"disc"`, `"exact"`), used in logs and
    /// stats metadata.
    fn name(&self) -> &'static str;

    /// The `(ε, η)` distance constraints.
    fn constraints(&self) -> DistanceConstraints;

    /// The tuple metric.
    fn distance(&self) -> &TupleDistance;

    /// Worker count for the batch entry points.
    fn parallelism(&self) -> Parallelism;

    /// The execution budget (deadline + per-outlier candidate cap).
    fn budget(&self) -> Budget;

    /// Saves one outlier against `r` under cooperative cancellation,
    /// returning the adjustment (or `None` when infeasible) plus the
    /// search-work accounting.
    fn save_one_with_effort(
        &self,
        r: &RSet,
        t_o: &[Value],
        token: &CancelToken,
    ) -> (Result<Option<Adjustment>, Cancelled>, SaveEffort);

    /// Whether saving outlier `t_o` again could give a different answer
    /// now that `r` has grown. `cost` is the cost of the adjustment `t_o`
    /// currently holds, or `None` when it holds none. `added` lists every
    /// new inlier and `tightened` every old inlier whose `δ_η` changed,
    /// each as `(original values, δ_η after the ingest)`, the values
    /// packed as `f64`.
    ///
    /// The streaming engine asks only while every cell of `r` (old rows
    /// and `added` alike) is a finite number, packs the hosts once per
    /// ingest, and re-saves an old outlier only when this answers
    /// `true`. The default always does, which is sound for any saver;
    /// [`DiscSaver`] proves most outcomes stable instead (see
    /// [`DiscSaver::outcome_may_change`]).
    fn outcome_may_change(
        &self,
        t_o: &[Value],
        cost: Option<f64>,
        added: &[(&[f64], f64)],
        tightened: &[(&[f64], f64)],
    ) -> bool {
        let _ = (t_o, cost, added, tightened);
        true
    }

    /// Detects all constraint violations in `ds`, saves each one against
    /// the inliers, applies the adjustments in place, and reports what
    /// happened; see [`SaveReport`].
    fn save_all(&self, ds: &mut Dataset) -> SaveReport {
        crate::pipeline::run_saver_pipeline(self, ds)
    }
}

impl Saver for DiscSaver {
    fn name(&self) -> &'static str {
        "disc"
    }

    fn constraints(&self) -> DistanceConstraints {
        DiscSaver::constraints(self)
    }

    fn distance(&self) -> &TupleDistance {
        DiscSaver::distance(self)
    }

    fn parallelism(&self) -> Parallelism {
        DiscSaver::parallelism(self)
    }

    fn budget(&self) -> Budget {
        DiscSaver::budget(self)
    }

    fn save_one_with_effort(
        &self,
        r: &RSet,
        t_o: &[Value],
        token: &CancelToken,
    ) -> (Result<Option<Adjustment>, Cancelled>, SaveEffort) {
        DiscSaver::save_one_with_effort(self, r, t_o, token)
    }

    fn outcome_may_change(
        &self,
        t_o: &[Value],
        cost: Option<f64>,
        added: &[(&[f64], f64)],
        tightened: &[(&[f64], f64)],
    ) -> bool {
        DiscSaver::outcome_may_change(self, t_o, cost, added, tightened)
    }
}

impl Saver for ExactSaver {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn constraints(&self) -> DistanceConstraints {
        ExactSaver::constraints(self)
    }

    fn distance(&self) -> &TupleDistance {
        ExactSaver::distance(self)
    }

    fn parallelism(&self) -> Parallelism {
        ExactSaver::parallelism(self)
    }

    fn budget(&self) -> Budget {
        ExactSaver::budget(self)
    }

    fn save_one_with_effort(
        &self,
        r: &RSet,
        t_o: &[Value],
        token: &CancelToken,
    ) -> (Result<Option<Adjustment>, Cancelled>, SaveEffort) {
        ExactSaver::save_one_with_effort(self, r, t_o, token)
    }
}

/// Builder for both savers: shared knobs set once, validated at build
/// time.
///
/// ```
/// use disc_core::{DistanceConstraints, SaverConfig};
/// use disc_distance::TupleDistance;
///
/// let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
///     .kappa(2)
///     .build_approx()
///     .unwrap();
/// assert_eq!(saver.kappa(), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct SaverConfig {
    constraints: DistanceConstraints,
    dist: TupleDistance,
    kappa: Option<usize>,
    node_budget: usize,
    domain_cap: Option<usize>,
    max_combinations: u64,
    parallelism: Parallelism,
    budget: Budget,
}

impl SaverConfig {
    /// A configuration with the seed defaults: unrestricted κ, a 200 000
    /// node budget, a 16-value exact domain cap with a 10⁷-combination
    /// budget, one pipeline worker per available core, and the
    /// process-wide budget ([`Budget::auto`]).
    pub fn new(constraints: DistanceConstraints, dist: TupleDistance) -> Self {
        SaverConfig {
            constraints,
            dist,
            kappa: None,
            node_budget: 200_000,
            domain_cap: Some(16),
            max_combinations: 10_000_000,
            parallelism: Parallelism::auto(),
            budget: Budget::auto(),
        }
    }

    /// Restricts adjustments to at most `kappa` attributes (the κ of
    /// Section 3.3). Validated at build time: κ must be ≥ 1.
    pub fn kappa(mut self, kappa: usize) -> Self {
        self.kappa = Some(kappa);
        self
    }

    /// Overrides the approximate search's node budget (visited attribute
    /// sets per outlier). Validated at build time: must be ≥ 1.
    pub fn node_budget(mut self, budget: usize) -> Self {
        self.node_budget = budget;
        self
    }

    /// Overrides the exact saver's per-attribute domain cap (`None` =
    /// full active domain). Validated at build time: a cap must be ≥ 1.
    pub fn domain_cap(mut self, cap: Option<usize>) -> Self {
        self.domain_cap = cap;
        self
    }

    /// Overrides the exact saver's combination budget. Validated at
    /// build time: must be ≥ 1.
    pub fn max_combinations(mut self, max: u64) -> Self {
        self.max_combinations = max;
        self
    }

    /// Overrides the pipeline worker count. `Parallelism(1)` forces the
    /// sequential code path; results are identical for every count.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Overrides the execution budget (deadline for whole `save_all`
    /// runs, deterministic per-outlier candidate cap).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Checks the knobs shared by both savers.
    fn validate_common(&self) -> Result<(), Error> {
        if let Some(kappa) = self.kappa {
            if kappa < 1 {
                return Err(Error::config(
                    "kappa",
                    format!("must be at least 1 (got {kappa})"),
                ));
            }
        }
        Ok(())
    }

    /// Builds the approximate (Algorithm 1) saver.
    ///
    /// # Errors
    /// [`Error::Config`] when κ or the node budget is zero.
    pub fn build_approx(self) -> Result<DiscSaver, Error> {
        self.validate_common()?;
        if self.node_budget < 1 {
            return Err(Error::config("node_budget", "must be at least 1 (got 0)"));
        }
        Ok(DiscSaver::from_config(
            self.constraints,
            self.dist,
            self.kappa,
            self.node_budget,
            self.parallelism,
            self.budget,
        ))
    }

    /// Builds the exact (domain-enumeration) saver. κ does not apply to
    /// the exact search and is ignored beyond validation.
    ///
    /// # Errors
    /// [`Error::Config`] when κ, the domain cap, or the combination
    /// budget is zero.
    pub fn build_exact(self) -> Result<ExactSaver, Error> {
        self.validate_common()?;
        if self.domain_cap == Some(0) {
            return Err(Error::config(
                "domain_cap",
                "a cap must be at least 1 (got 0)",
            ));
        }
        if self.max_combinations < 1 {
            return Err(Error::config(
                "max_combinations",
                "must be at least 1 (got 0)",
            ));
        }
        Ok(ExactSaver::from_config(
            self.constraints,
            self.dist,
            self.domain_cap,
            self.max_combinations,
            self.parallelism,
            self.budget,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SaverConfig {
        SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
    }

    #[test]
    fn build_rejects_zero_kappa() {
        let err = config().kappa(0).build_approx().unwrap_err();
        assert!(matches!(err, Error::Config { param: "kappa", .. }), "{err}");
        let err = config().kappa(0).build_exact().unwrap_err();
        assert!(matches!(err, Error::Config { param: "kappa", .. }), "{err}");
    }

    #[test]
    fn build_rejects_zero_node_budget() {
        let err = config().node_budget(0).build_approx().unwrap_err();
        assert!(
            matches!(
                err,
                Error::Config {
                    param: "node_budget",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn build_rejects_zero_exact_caps() {
        let err = config().domain_cap(Some(0)).build_exact().unwrap_err();
        assert!(
            matches!(
                err,
                Error::Config {
                    param: "domain_cap",
                    ..
                }
            ),
            "{err}"
        );
        let err = config().max_combinations(0).build_exact().unwrap_err();
        assert!(
            matches!(
                err,
                Error::Config {
                    param: "max_combinations",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn saver_names() {
        let approx = config().build_approx().unwrap();
        let exact = config().build_exact().unwrap();
        assert_eq!(Saver::name(&approx), "disc");
        assert_eq!(Saver::name(&exact), "exact");
    }
}
