//! The end-to-end outlier-saving pipeline (Section 2.2).
//!
//! "We split the dataset into two parts, r of non-outlying tuples and s of
//! outliers. The non-outlying r satisfying the distance constraints are
//! employed to save the outliers (violation tuples) in s one by one."
//!
//! The split and r come from one neighbour index over the dataset:
//! detection's ε-range queries count each row's neighbours and keep its
//! nearest ones, which settle most inliers' `δ_η`; only the rest get an
//! η-NN query, over the same index restricted to inliers
//! ([`RSet::from_split`]), which then drops it.
//!
//! The pipeline additionally separates dirty from natural outliers
//! (Section 1.2): an outlier is saved only when a feasible adjustment
//! within the κ-attribute budget exists; otherwise it is left unchanged
//! and flagged natural.
//!
//! Following the paper, every outlier is saved against the *original*
//! inlier set `r` — saved tuples do not become neighbors for later
//! outliers within the same pass, which keeps the result independent of
//! the processing order.
//!
//! That order independence is what makes the save loop embarrassingly
//! parallel: with [`Parallelism`](crate::Parallelism) above 1 the
//! per-outlier searches fan out through [`parallel_map`] against the
//! shared read-only [`RSet`], results are collected **in outlier order**,
//! and the adjustments are applied in one serial pass — so the
//! [`SaveReport`] and the final dataset are bit-identical to the
//! sequential run for every worker count.
//!
//! The pipeline is additionally *fault tolerant*:
//!
//! * every per-outlier save runs under `catch_unwind` inside the mapped
//!   closure (sequential arm included), so one panicking save becomes a
//!   [`FailedSave`] entry in [`SaveReport::failed`] instead of aborting
//!   the whole run;
//! * the saver's [`Budget`](crate::Budget) is materialized into a shared
//!   [`CancelToken`]: when the deadline expires,
//!   in-flight searches bail out cooperatively and the affected rows are
//!   reported in [`SaveReport::skipped`];
//! * adjustments are only applied for saves that *completed* (serial
//!   phase 2), so neither a panic nor a cancellation can leave a torn
//!   write in the dataset;
//! * any failure or skip sets [`SaveReport::degraded`], making partial
//!   results explicit rather than silent.

use std::any::Any;
use std::ops::Index;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use disc_data::Dataset;
use disc_distance::Value;
use disc_obs::{counters, PipelineStats, Snapshot};

use crate::approx::{Adjustment, DiscSaver};
use crate::budget::{CancelToken, Cancelled};
use crate::constraints::detect_outliers_parallel;
use crate::exact::ExactSaver;
use crate::parallel::parallel_map;
use crate::rset::RSet;
use crate::saver::Saver;

/// A saved (adjusted) outlier.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedOutlier {
    /// Row index in the dataset.
    pub row: usize,
    /// The adjustment that was applied.
    pub adjustment: Adjustment,
}

/// Why a per-outlier save produced no answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The save panicked; the payload is the panic message. The panic was
    /// isolated to this row — every other outlier was processed normally.
    Panicked(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Panicked(msg) => write!(f, "save panicked: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// An outlier whose save failed (was not merely infeasible).
#[derive(Debug, Clone, PartialEq)]
pub struct FailedSave {
    /// Row index in the dataset.
    pub row: usize,
    /// What went wrong.
    pub error: PipelineError,
}

/// The outcome of saving every outlier in a dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SaveReport {
    /// Outliers saved by value adjustment (dirty outliers).
    pub saved: Vec<SavedOutlier>,
    /// Outliers left unchanged (natural outliers / unsavable tuples).
    pub unsaved: Vec<usize>,
    /// All rows initially violating the constraints.
    pub outliers: Vec<usize>,
    /// Outliers whose save failed (e.g. panicked); left unchanged.
    pub failed: Vec<FailedSave>,
    /// Outliers not tried or interrupted by the budget; left unchanged.
    pub skipped: Vec<usize>,
    /// True when the run was incomplete — any failed or skipped outlier.
    /// A degraded report is still safe to use: `saved` adjustments were
    /// fully applied, everything else is untouched.
    pub degraded: bool,
    /// Observability for this run: stage timers, search-work totals, and
    /// per-save histograms. The work totals are accumulated serially in
    /// apply order from each save's [`disc_obs::SaveEffort`], so (absent mid-run
    /// budget cancellations, which already make the row outcomes
    /// timing-dependent) they are bit-identical for every worker count —
    /// `SaveReport` equality includes them. Wall-clock timings and the
    /// process-global counter delta are measurements and are excluded
    /// from `==` (see [`PipelineStats`]).
    pub stats: PipelineStats,
}

impl SaveReport {
    /// Fraction of outliers that were saved.
    pub fn save_rate(&self) -> f64 {
        if self.outliers.is_empty() {
            1.0
        } else {
            self.saved.len() as f64 / self.outliers.len() as f64
        }
    }

    /// Total adjustment cost over all saved outliers.
    pub fn total_cost(&self) -> f64 {
        self.saved.iter().map(|s| s.adjustment.cost).sum()
    }

    /// The adjustment applied to a row, if any (a scan of `saved`).
    pub fn adjustment_of(&self, row: usize) -> Option<&Adjustment> {
        self.saved
            .iter()
            .find(|s| s.row == row)
            .map(|s| &s.adjustment)
    }
}

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`) as a
/// human-readable message. `panic!` with a literal yields `&str`, with a
/// format string yields `String`; anything else gets a generic label.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The save phase shared by [`run_saver_pipeline`] and the streaming
/// engine: phase 1 fans the per-outlier searches out over `workers`
/// threads (panic-isolated, cooperatively cancellable), phase 2 absorbs
/// the stats and fills `report` serially **in outlier order** — which is
/// what makes the outcome worker-count independent. Returns the
/// adjustments to apply as `(row, values)` pairs; the caller owns the
/// dataset write so this works against both a borrowed batch dataset and
/// the engine's long-lived one.
#[allow(clippy::too_many_arguments)] // internal seam between two pipelines
pub(crate) fn save_outlier_rows<S, R>(
    saver: &S,
    r: &RSet,
    rows: &R,
    outliers: &[usize],
    workers: usize,
    token: &CancelToken,
    stats: &mut PipelineStats,
    report: &mut SaveReport,
) -> Vec<(usize, Vec<Value>)>
where
    S: Saver + ?Sized,
    R: Index<usize> + Sync + ?Sized,
    R::Output: AsRef<[Value]>,
{
    let results = parallel_map(outliers, workers, |&row| {
        catch_unwind(AssertUnwindSafe(|| {
            #[cfg(disc_fault)]
            crate::fault::hit(row);
            let started = Instant::now();
            let (outcome, effort) = saver.save_one_with_effort(r, rows[row].as_ref(), token);
            (outcome, effort, started.elapsed().as_micros() as u64)
        }))
        .map_err(panic_message)
    });
    let mut apply = Vec::new();
    for (&row, outcome) in outliers.iter().zip(results) {
        match outcome {
            Ok((result, effort, micros)) => {
                stats.search.absorb(&effort);
                stats.candidates_per_save.record(effort.candidates);
                stats.save_micros.record(micros);
                match result {
                    Ok(Some(adjustment)) => {
                        stats
                            .attrs_adjusted
                            .record(adjustment.adjusted.len() as u64);
                        apply.push((row, adjustment.values.clone()));
                        report.saved.push(SavedOutlier { row, adjustment });
                    }
                    Ok(None) => report.unsaved.push(row),
                    Err(Cancelled) => {
                        stats.search.cancellations += 1;
                        report.skipped.push(row);
                    }
                }
            }
            Err(message) => {
                stats.search.panics += 1;
                report.failed.push(FailedSave {
                    row,
                    error: PipelineError::Panicked(message),
                });
            }
        }
    }
    apply
}

/// The batch pipeline behind [`Saver::save_all`]: index the dataset once,
/// detect violations, build the inlier context from detection's range
/// hits and that index ([`RSet::from_split`]), save every outlier, apply
/// the adjustments.
pub(crate) fn run_saver_pipeline<S: Saver + ?Sized>(saver: &S, ds: &mut Dataset) -> SaveReport {
    let t_run = Instant::now();
    let counters_before = Snapshot::take();
    counters::PIPELINE_RUNS.incr();
    let mut stats = PipelineStats::default();
    let workers = saver.parallelism().workers();
    let t_detect = Instant::now();
    let (split, index) =
        detect_outliers_parallel(ds.rows(), saver.distance(), saver.constraints(), workers);
    stats.stages.detect = t_detect.elapsed();
    counters::OUTLIERS_DETECTED.add(split.outliers.len() as u64);
    let mut report = SaveReport {
        outliers: split.outliers.clone(),
        ..SaveReport::default()
    };
    // The deadline clock starts here and is shared by every worker.
    let token = saver.budget().start();
    if token.is_cancelled() {
        // Already past the deadline: skip even the RSet construction so
        // the pipeline returns within the budget window.
        report.skipped = split.outliers.clone();
        report.degraded = !report.skipped.is_empty();
        stats.search.cancellations = report.skipped.len() as u64;
        counters::SAVES_CANCELLED.add(stats.search.cancellations);
        stats.stages.total = t_run.elapsed();
        stats.counters = Snapshot::take().delta_since(&counters_before);
        report.stats = stats;
        return report;
    }
    let t_rset = Instant::now();
    let r = RSet::from_split(&split, index, saver.parallelism());
    stats.stages.rset_build = t_rset.elapsed();
    // Save every outlier against the immutable r; only *completed* saves
    // produce adjustments, so neither a panic nor a cancellation can
    // leave a torn write in the dataset.
    let t_save = Instant::now();
    let adjustments = save_outlier_rows(
        saver,
        &r,
        ds.rows(),
        &split.outliers,
        workers,
        &token,
        &mut stats,
        &mut report,
    );
    stats.stages.save = t_save.elapsed();
    for (row, values) in adjustments {
        ds.set_row(row, values);
    }
    counters::OUTLIERS_SAVED.add(report.saved.len() as u64);
    counters::SAVES_CANCELLED.add(stats.search.cancellations);
    counters::SAVES_PANICKED.add(stats.search.panics);
    report.degraded = !report.failed.is_empty() || !report.skipped.is_empty();
    stats.stages.total = t_run.elapsed();
    stats.counters = Snapshot::take().delta_since(&counters_before);
    report.stats = stats;
    report
}

impl DiscSaver {
    /// Detects all constraint violations in `ds`, saves each one against
    /// the inliers, applies the adjustments in place, and reports what
    /// happened. Outliers without a feasible ≤ κ-attribute adjustment are
    /// left untouched (natural outliers). Panicking saves and budget
    /// exhaustion degrade the report instead of aborting the run (see
    /// [`SaveReport::degraded`]).
    ///
    /// Equivalent to calling [`Saver::save_all`] through the trait.
    pub fn save_all(&self, ds: &mut Dataset) -> SaveReport {
        run_saver_pipeline(self, ds)
    }
}

impl ExactSaver {
    /// The exact counterpart of [`DiscSaver::save_all`].
    pub fn save_all(&self, ds: &mut Dataset) -> SaveReport {
        run_saver_pipeline(self, ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::detect_outliers;
    use crate::saver::SaverConfig;
    use crate::DistanceConstraints;
    use disc_data::{ClusterSpec, ErrorInjector};
    use disc_distance::TupleDistance;

    fn grid_dataset() -> Dataset {
        let mut rows = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                rows.push(vec![Value::Num(0.2 * i as f64), Value::Num(0.2 * j as f64)]);
            }
        }
        Dataset::from_rows(vec!["x".into(), "y".into()], rows)
    }

    #[test]
    fn end_to_end_single_error() {
        let mut ds = grid_dataset();
        ds.push(vec![Value::Num(0.5), Value::Num(30.0)]); // dirty outlier
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let report = saver.save_all(&mut ds);
        assert_eq!(report.outliers, vec![36]);
        assert_eq!(report.saved.len(), 1);
        assert!(report.unsaved.is_empty());
        assert_eq!(report.save_rate(), 1.0);
        // After saving, no violations remain.
        let split = detect_outliers(ds.rows(), saver.distance(), saver.constraints());
        assert!(
            split.outliers.is_empty(),
            "still outlying: {:?}",
            split.outliers
        );
        // Only attribute 1 changed.
        assert_eq!(ds.row(36)[0], Value::Num(0.5));
        assert!(ds.row(36)[1].expect_num() < 2.0);
    }

    #[test]
    fn natural_outliers_left_unchanged_under_kappa() {
        let mut ds = grid_dataset();
        ds.push(vec![Value::Num(40.0), Value::Num(-40.0)]); // natural
        ds.push(vec![Value::Num(0.5), Value::Num(30.0)]); // dirty
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .kappa(1)
            .build_approx()
            .unwrap();
        let before = ds.row(36).to_vec();
        let report = saver.save_all(&mut ds);
        assert_eq!(report.outliers.len(), 2);
        assert_eq!(report.saved.len(), 1);
        assert_eq!(report.unsaved, vec![36]);
        // The natural outlier's values are untouched.
        assert_eq!(ds.row(36), before.as_slice());
        assert!(report.adjustment_of(37).is_some());
        assert!(report.adjustment_of(36).is_none());
    }

    #[test]
    fn clean_dataset_reports_nothing() {
        let mut ds = grid_dataset();
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let report = saver.save_all(&mut ds);
        assert!(report.outliers.is_empty());
        assert_eq!(report.save_rate(), 1.0);
        assert_eq!(report.total_cost(), 0.0);
    }

    #[test]
    fn synthetic_injection_roundtrip() {
        // Generate clusters, inject errors, save, and verify the saved
        // rows are close to their clean originals.
        let spec = ClusterSpec::new(120, 3, 2, 5);
        let mut ds = spec.generate();
        let log = ErrorInjector::new(6, 0, 9).inject(&mut ds);
        let saver = SaverConfig::new(DistanceConstraints::new(2.5, 5), TupleDistance::numeric(3))
            .kappa(2)
            .build_approx()
            .unwrap();
        let report = saver.save_all(&mut ds);
        assert!(
            report.saved.len() >= 4,
            "expected most injected errors saved, got {}",
            report.saved.len()
        );
        // Most saved rows land close to their clean originals (errors are
        // not always perfectly recoverable — a corrupted tuple may be
        // pulled into the wrong cluster — but the majority must be).
        let mut near = 0usize;
        let mut with_truth = 0usize;
        for saved in &report.saved {
            if let Some(original) = log.original(saved.row) {
                with_truth += 1;
                if saver.distance().dist(ds.row(saved.row), original) < 6.0 {
                    near += 1;
                }
            }
        }
        assert!(with_truth > 0);
        assert!(
            near * 2 >= with_truth,
            "only {near}/{with_truth} saved rows near their clean originals"
        );
    }

    fn report_with(saved: Vec<(usize, f64)>, unsaved: Vec<usize>) -> SaveReport {
        let mut outliers: Vec<usize> = saved.iter().map(|&(r, _)| r).collect();
        outliers.extend(&unsaved);
        outliers.sort_unstable();
        SaveReport {
            saved: saved
                .into_iter()
                .map(|(row, cost)| SavedOutlier {
                    row,
                    adjustment: Adjustment {
                        values: vec![Value::Num(0.0)],
                        adjusted: disc_distance::AttrSet::from_indices([0]),
                        cost,
                    },
                })
                .collect(),
            unsaved,
            outliers,
            ..SaveReport::default()
        }
    }

    #[test]
    fn save_rate_is_one_without_outliers() {
        // No outliers means nothing needed saving: rate 1, not 0/0.
        let report = SaveReport::default();
        assert_eq!(report.save_rate(), 1.0);
        assert_eq!(report.total_cost(), 0.0);
    }

    #[test]
    fn save_rate_counts_saved_over_outliers() {
        let report = report_with(vec![(3, 1.0)], vec![7, 9]);
        assert_eq!(report.save_rate(), 1.0 / 3.0);
    }

    #[test]
    fn total_cost_sums_saved_adjustments() {
        let report = report_with(vec![(1, 2.5), (4, 0.25), (6, 10.0)], vec![]);
        assert_eq!(report.total_cost(), 12.75);
    }

    #[test]
    fn adjustment_of_hits_saved_rows_only() {
        let report = report_with(vec![(3, 1.5)], vec![7]);
        assert_eq!(report.adjustment_of(3).map(|a| a.cost), Some(1.5));
        assert!(
            report.adjustment_of(7).is_none(),
            "unsaved row has no adjustment"
        );
        assert!(
            report.adjustment_of(42).is_none(),
            "non-outlier row has no adjustment"
        );
    }

    #[test]
    fn exact_pipeline_matches_on_small_data() {
        let mut ds = grid_dataset();
        ds.push(vec![Value::Num(0.5), Value::Num(30.0)]);
        let c = DistanceConstraints::new(0.5, 4);
        let exact = SaverConfig::new(c, TupleDistance::numeric(2))
            .domain_cap(None)
            .build_exact()
            .unwrap();
        let report = exact.save_all(&mut ds);
        assert_eq!(report.saved.len(), 1);
        let split = detect_outliers(ds.rows(), exact.distance(), c);
        assert!(split.outliers.is_empty());
    }

    #[test]
    fn panic_messages_render_every_payload_kind() {
        assert_eq!(panic_message(Box::new("literal")), "literal");
        assert_eq!(
            panic_message(Box::new(String::from("formatted"))),
            "formatted"
        );
        assert_eq!(panic_message(Box::new(42i32)), "non-string panic payload");
    }
}
