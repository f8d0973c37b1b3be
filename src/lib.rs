//! # DISC — Saving Outliers for Better Clustering over Noisy Data
//!
//! Facade crate over the DISC workspace: a from-scratch Rust reproduction
//! of Song, Gao, Huang and Wang, *"On Saving Outliers for Better Clustering
//! over Noisy Data"* (SIGMOD 2021).
//!
//! Dirty values make tuples outlying and mislead clustering — DBSCAN drops
//! outliers, K-Means force-assigns them, and tuple-substitution cleaners
//! such as DORC over-change every attribute. DISC instead *saves* each
//! outlier by minimally adjusting a subset of its attribute values until it
//! satisfies the distance constraints `(ε, η)` — at least `η` neighbors
//! within distance `ε` — so it joins a cluster without distorting the rest.
//!
//! ## Quickstart
//!
//! ```
//! use disc::prelude::*;
//!
//! // A tight 2-D cluster around the origin, plus one dirty tuple whose
//! // second attribute was recorded in the wrong unit.
//! let mut dataset = Dataset::from_rows(
//!     vec!["x".into(), "y".into()],
//!     (0..20)
//!         .map(|i| vec![Value::Num(0.1 * (i % 5) as f64), Value::Num(0.1 * (i / 5) as f64)])
//!         .collect::<Vec<_>>(),
//! );
//! dataset.push(vec![Value::Num(0.2), Value::Num(25.4)]); // dirty outlier
//!
//! let constraints = DistanceConstraints::new(0.5, 3);
//! let saver = SaverConfig::new(constraints, TupleDistance::numeric(2)).build_approx().unwrap();
//! let report = saver.save_all(&mut dataset);
//!
//! assert_eq!(report.saved.len(), 1);          // the dirty tuple was saved …
//! let fixed = &dataset.rows()[20];
//! assert!(fixed[1].expect_num() < 1.0);        // … by adjusting only `y`
//! assert_eq!(fixed[0].expect_num(), 0.2);      // `x` is untouched
//! ```
//!
//! The member crates are re-exported in full:
//!
//! * [`distance`] — per-attribute metrics, norms, attribute sets;
//! * [`data`] — schema/tuples/datasets, synthetic generators, error injection;
//! * [`index`] — ε-range and k-NN neighbor search backends;
//! * [`core`] — the DISC algorithm, bounds, parameter determination;
//! * [`clustering`] — DBSCAN, K-Means, K-Means--, CCKM, SREM, KMC;
//! * [`cleaning`] — DORC, ERACER, HoloClean, Holistic, SSE baselines;
//! * [`metrics`] — F1 / NMI / ARI / Jaccard evaluation;
//! * [`ml`] — decision-tree classification and record matching;
//! * [`obs`] — observability: stage timers, search counters, per-run
//!   statistics ([`core::SaveReport::stats`]) and the `--stats` JSON export;
//! * [`persist`] — crash-safe engine state: checksummed snapshots plus a
//!   write-ahead ingest log with deterministic recovery;
//! * [`serve`] — a concurrent multi-client TCP serving layer
//!   (newline-delimited JSON) with single-writer batch coalescing,
//!   snapshot reads, admission-control backpressure, and graceful
//!   WAL-draining shutdown;
//! * [`replicate`] — leader→follower replication: WAL frames shipped
//!   over the serving socket into catch-up read replicas that are
//!   bit-equal to the leader at every acked generation.

pub use disc_cleaning as cleaning;
pub use disc_clustering as clustering;
pub use disc_core as core;
pub use disc_data as data;
pub use disc_distance as distance;
pub use disc_index as index;
pub use disc_metrics as metrics;
pub use disc_ml as ml;
pub use disc_obs as obs;
pub use disc_persist as persist;
pub use disc_replicate as replicate;
pub use disc_serve as serve;

/// Commonly used items in one import.
pub mod prelude {
    pub use disc_cleaning::{Dorc, Eracer, Holistic, HoloClean, Repairer, Sse};
    pub use disc_clustering::{
        Cckm, ClusteringAlgorithm, Dbscan, KMeans, KMeansMinus, Kmc, Optics, Srem,
    };
    pub use disc_core::{
        determine_parameters, Budget, DiscEngine, DiscSaver, DistanceConstraints, EngineConfig,
        Error, ExactSaver, Parallelism, SaveReport, Saver, SaverConfig,
    };
    pub use disc_data::{Dataset, NonFinitePolicy, Schema};
    pub use disc_distance::{AttrSet, Metric, Norm, TupleDistance, Value};
    pub use disc_index::{BruteForceIndex, Index, NeighborIndex};
    pub use disc_metrics::{adjusted_rand_index, normalized_mutual_information, pairwise_f1};
    pub use disc_ml::{DecisionTree, RecordMatcher};
}
