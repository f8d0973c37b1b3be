//! Deterministic fault-injection tests for the save pipeline's panic
//! isolation and deadline handling.
//!
//! Compiled only under `--cfg disc_fault` (see `scripts/ci.sh`): the
//! `disc_core::fault` hook injects panics and delays into `save_one` at
//! chosen dataset rows, letting these tests pin down exactly how a
//! failing save is reported — without any nondeterministic machinery in
//! the production build.
#![cfg(disc_fault)]

use std::time::Duration;

use disc_core::fault::{scoped, FaultPlan};
use disc_core::{
    Budget, DiscSaver, DistanceConstraints, Parallelism, PipelineError, SaveReport, SaverConfig,
};
use disc_data::Dataset;
use disc_distance::{TupleDistance, Value};

/// A 6×6 grid of inliers spaced 0.2 apart plus three dirty outliers at
/// rows 36–38 (each fixable by adjusting one attribute).
fn dataset_with_outliers() -> Dataset {
    let mut rows = Vec::new();
    for i in 0..6 {
        for j in 0..6 {
            rows.push(vec![Value::Num(0.2 * i as f64), Value::Num(0.2 * j as f64)]);
        }
    }
    let mut ds = Dataset::from_rows(vec!["x".into(), "y".into()], rows);
    ds.push(vec![Value::Num(0.5), Value::Num(30.0)]);
    ds.push(vec![Value::Num(-20.0), Value::Num(0.4)]);
    ds.push(vec![Value::Num(0.1), Value::Num(-15.0)]);
    ds
}

fn saver(workers: usize) -> DiscSaver {
    SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
        .parallelism(Parallelism(workers))
        .build_approx()
        .unwrap()
}

#[test]
fn injected_panic_isolates_one_row_for_every_worker_count() {
    // Fault-free baseline (all three outliers saved), inside an empty
    // scope so no concurrently running test's plan can reach it.
    let mut clean = dataset_with_outliers();
    let (baseline, fired) = scoped(FaultPlan::new(), || saver(1).save_all(&mut clean));
    assert!(!fired);
    assert_eq!(baseline.saved.len(), 3);
    assert!(!baseline.degraded);

    let mut reports: Vec<SaveReport> = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut ds = dataset_with_outliers();
        let before_faulted_row = ds.row(37).to_vec();
        let (report, fired) = scoped(FaultPlan::new().panic_at(37), || {
            saver(workers).save_all(&mut ds)
        });
        assert!(fired, "workers {workers}");
        // The run completed and names exactly the faulted row.
        assert_eq!(report.outliers, baseline.outliers);
        assert_eq!(report.failed.len(), 1, "workers {workers}");
        assert_eq!(report.failed[0].row, 37);
        let PipelineError::Panicked(msg) = &report.failed[0].error;
        assert!(msg.contains("injected fault at row 37"), "message: {msg}");
        assert!(report.degraded);
        assert!(report.skipped.is_empty());
        // Every other outlier is saved exactly as in the fault-free run.
        let expected: Vec<_> = baseline
            .saved
            .iter()
            .filter(|s| s.row != 37)
            .cloned()
            .collect();
        assert_eq!(report.saved, expected);
        // The faulted row itself is untouched.
        assert_eq!(ds.row(37), before_faulted_row.as_slice());
        reports.push(report);
    }
    // Failure reporting is deterministic across worker counts.
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[0], reports[2]);
}

#[test]
fn two_injected_panics_are_both_reported() {
    let plan = FaultPlan::new().panic_at(36).panic_at(38);
    let mut ds = dataset_with_outliers();
    let (report, fired) = scoped(plan, || saver(2).save_all(&mut ds));
    assert!(fired);
    let failed_rows: Vec<usize> = report.failed.iter().map(|f| f.row).collect();
    assert_eq!(failed_rows, vec![36, 38]);
    assert_eq!(report.saved.len(), 1);
    assert_eq!(report.saved[0].row, 37);
}

#[test]
fn injected_delay_past_the_deadline_skips_remaining_outliers() {
    // Row 36 sleeps well past the 25 ms budget; by the time it wakes the
    // shared token has expired, so it and every later outlier is skipped.
    let plan = FaultPlan::new().delay_at(36, 250);
    let mut ds = dataset_with_outliers();
    let before = ds.rows().to_vec();
    let budgeted = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
        .parallelism(Parallelism(1))
        .budget(Budget::unlimited().with_deadline(Duration::from_millis(25)))
        .build_approx()
        .unwrap();
    let (report, fired) = scoped(plan, || budgeted.save_all(&mut ds));
    assert!(fired);
    assert!(report.degraded);
    assert_eq!(report.skipped, report.outliers, "all outliers skipped");
    assert!(report.saved.is_empty());
    assert!(report.failed.is_empty());
    assert_eq!(ds.rows(), &before[..], "no torn writes");
}

#[test]
fn no_plan_means_no_faults() {
    // An empty plan (and no plan at all) leaves the pipeline untouched.
    let mut ds = dataset_with_outliers();
    let (report, fired) = scoped(FaultPlan::new(), || saver(2).save_all(&mut ds));
    assert!(!fired);
    assert!(!report.degraded);
    assert_eq!(report.saved.len(), 3);
}
