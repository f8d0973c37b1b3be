//! Design-choice ablations for the DISC algorithm (Section 3.3/3.4):
//!
//! * lower-bound pruning on vs off (node budget abused as an "off"
//!   switch is wrong — instead we compare the visited-node proxy via
//!   wall-clock with a huge vs tight κ);
//! * the κ restriction sweep: accuracy and time as κ grows;
//! * neighbor-index backends: brute force vs grid vs VP-tree on the same
//!   detection workload.

use std::time::Instant;

use disc_cleaning::{DiscRepairer, Repairer};
use disc_clustering::{ClusteringAlgorithm, Dbscan};
use disc_core::SaverConfig;
use disc_data::{ClusterSpec, ErrorInjector, SyntheticDataset};
use disc_distance::TupleDistance;
use disc_index::{BruteForceIndex, Index, NeighborIndex};
use disc_metrics::pairwise_f1;

use crate::suite::auto_constraints;
use crate::table::{f4, Table};

fn workload(seed: u64) -> SyntheticDataset {
    let spec = ClusterSpec::new(1200, 8, 4, seed);
    SyntheticDataset::generate("ablation", &spec, ErrorInjector::new(90, 10, seed ^ 0xAB1))
}

/// κ sweep: repair accuracy, cells modified and time as the adjusted-
/// attribute budget grows (κ = m reproduces the unrestricted search).
fn kappa_sweep(seed: u64) -> String {
    let synth = workload(seed);
    let ds = &synth.data;
    let m = ds.arity();
    let dist = TupleDistance::numeric(m);
    let c = auto_constraints(ds, &dist);
    let truth = ds.labels().expect("labels").to_vec();
    let mut table = Table::new(vec![
        "κ",
        "F1",
        "cells modified",
        "outliers saved",
        "time (s)",
    ]);
    for kappa in [1usize, 2, 3, 4, m] {
        let saver = SaverConfig::new(c, dist.clone())
            .kappa(kappa)
            .build_approx()
            .unwrap();
        let mut copy = ds.clone();
        let start = Instant::now();
        let report = DiscRepairer(saver).repair(&mut copy);
        let elapsed = start.elapsed();
        let labels = Dbscan::new(c.eps, c.eta).cluster(copy.rows(), &dist);
        table.row(vec![
            if kappa == m {
                format!("{kappa} (=m)")
            } else {
                kappa.to_string()
            },
            f4(pairwise_f1(&labels, &truth)),
            report.cells_modified().to_string(),
            report.rows_modified().to_string(),
            format!("{:.4}", elapsed.as_secs_f64()),
        ]);
    }
    table.render()
}

/// Node-budget sweep: the budget caps the visited attribute sets; a tiny
/// budget degenerates to the Lemma 4 upper bound (DORC-like), showing how
/// much the recursion earns.
fn budget_sweep(seed: u64) -> String {
    let synth = workload(seed);
    let ds = &synth.data;
    let dist = TupleDistance::numeric(ds.arity());
    let c = auto_constraints(ds, &dist);
    let truth = ds.labels().expect("labels").to_vec();
    let mut table = Table::new(vec!["node budget", "F1", "avg cost", "time (s)"]);
    for budget in [1usize, 4, 16, 256, 100_000] {
        let saver = SaverConfig::new(c, dist.clone())
            .kappa(2)
            .node_budget(budget)
            .build_approx()
            .unwrap();
        let mut copy = ds.clone();
        let start = Instant::now();
        let report = saver.save_all(&mut copy);
        let elapsed = start.elapsed();
        let labels = Dbscan::new(c.eps, c.eta).cluster(copy.rows(), &dist);
        let avg_cost = report.total_cost() / report.saved.len().max(1) as f64;
        table.row(vec![
            budget.to_string(),
            f4(pairwise_f1(&labels, &truth)),
            f4(avg_cost),
            format!("{:.4}", elapsed.as_secs_f64()),
        ]);
    }
    table.render()
}

/// Index-backend comparison on the ε-neighbor counting workload behind
/// outlier detection.
fn index_sweep(seed: u64) -> String {
    let spec = ClusterSpec::new(1500, 3, 4, seed);
    let ds = spec.generate();
    let dist = TupleDistance::numeric(3);
    let c = auto_constraints(&ds, &dist);
    let rows = ds.rows();
    let mut table = Table::new(vec!["backend", "build+query time (s)", "violations found"]);
    let run = |name: &str, f: &dyn Fn() -> usize, table: &mut Table| {
        let start = Instant::now();
        let v = f();
        table.row(vec![
            name.to_string(),
            format!("{:.4}", start.elapsed().as_secs_f64()),
            v.to_string(),
        ]);
    };
    run(
        "brute-force",
        &|| {
            let idx = BruteForceIndex::new(rows, dist.clone());
            rows.iter()
                .filter(|r| !idx.satisfies(r, c.eps, c.eta))
                .count()
        },
        &mut table,
    );
    run(
        "grid",
        &|| {
            let idx = Index::grid(rows, dist.clone(), c.eps).expect("generated data is finite");
            rows.iter()
                .filter(|r| !idx.satisfies(r, c.eps, c.eta))
                .count()
        },
        &mut table,
    );
    run(
        "vp-tree",
        &|| {
            let idx = Index::vp_tree(rows, dist.clone());
            rows.iter()
                .filter(|r| !idx.satisfies(r, c.eps, c.eta))
                .count()
        },
        &mut table,
    );
    table.render()
}

/// Runs all ablations.
pub fn run(seed: u64) -> String {
    format!(
        "Ablations — DISC design choices (seed={seed})\n\n\
         (a) κ restriction sweep (n=1200, m=8)\n{}\n\
         (b) node-budget sweep (κ=2)\n{}\n\
         (c) neighbor-index backends (n=1500, m=3)\n{}",
        kappa_sweep(seed),
        budget_sweep(seed),
        index_sweep(seed)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_backends_agree_on_violation_counts() {
        let out = index_sweep(3);
        // All three backends report the same violation count.
        let counts: Vec<&str> = out
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().last())
            .collect();
        assert_eq!(counts.len(), 3);
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }
}
