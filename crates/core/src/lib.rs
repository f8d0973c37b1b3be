//! The DISC outlier-saving algorithm (Song et al., SIGMOD 2021).
//!
//! A tuple satisfies the *distance constraints* `(ε, η)` if it has at least
//! `η` ε-neighbors (Definition 1). Outliers violate the constraints; DISC
//! *saves* an outlier `t_o` by finding a value adjustment `t'_o` that
//! satisfies the constraints at minimum adjustment cost `Δ(t_o, t'_o)`
//! (Definition 2). The decision problem is NP-complete (Theorem 1), so the
//! crate implements the paper's bound-guided approximation:
//!
//! * [`constraints`] — the `(ε, η)` model, violation detection and the
//!   inlier/outlier split, which keeps each row's η nearest ε-range hits;
//! * [`rset`] — the preprocessed inlier context (`δ_η` thresholds, most
//!   read off those hits, and sorted attribute projections) shared by all
//!   savers;
//! * [`bounds`] — the lower bound of Lemma 2 / Proposition 3 and the upper
//!   bound of Lemma 4 / Proposition 5;
//! * [`approx`] — Algorithm 1: recursive enumeration of unadjusted
//!   attribute sets with lower-bound pruning, upper-bound solutions, the
//!   κ-restricted variant (`O(m^{κ+1} n)`), and a node budget;
//! * [`exact`] — the `O(d^m n)` domain-enumeration algorithm of
//!   Section 2.3, used as the "Exact" baseline of Figures 6 and 7;
//! * [`params`] — Poisson-process parameter determination for `(ε, η)`
//!   (Section 2.1.2, Figure 5, Table 4) and the Normal-distribution "DB"
//!   baseline;
//! * [`pipeline`] — the end-to-end repair pipeline: detect outliers, split
//!   `r`/`s`, save each outlier, separate dirty from natural;
//! * [`parallel`] — the one fan-out primitive (`parallel_map`: items
//!   handed out one at a time to scoped threads, results in item order,
//!   panics resumed on the caller) and the [`Parallelism`] knob sizing
//!   it; the pipeline's save loop, outlier detection, `δ_η`
//!   preprocessing, and every shard fan-out go through it, with results
//!   bit-identical to the sequential run;
//! * [`budget`] — execution budgets ([`Budget`]) with cooperative
//!   cancellation: a wall-clock deadline for whole `save_all` runs,
//!   degrading gracefully into [`SaveReport::skipped`] instead of
//!   hanging or aborting;
//! * [`engine`] + [`shard`] — the incremental streaming engine
//!   ([`ShardedEngine`]), hash-partitioning rows across shards whose
//!   queries fan out through `parallel_map` (on threads only for ingests
//!   large enough to pay for them) and merge deterministically:
//!   results are bit-identical for every shard and worker count;
//! * [`view`] — the engine's write-once row store and copy-on-write
//!   tables, and the read-only [`EngineView`] a publish hands out: it
//!   shares the engine's storage, answers every read of a live engine's
//!   state, and builds the flat [`EngineState`] image the snapshot codec
//!   and equality checks read. The row store and the overlay of adjusted
//!   rows are the engine's only record of its output;
//! * [`config`] — the [`EngineConfig`] builder gathering every engine
//!   knob (arity, ε, η, κ, shards), validated
//!   once, with the durable byte encoding stores persist;
//! * `fault` (only under `--cfg disc_fault`) — the workspace's one
//!   deterministic test-only failpoint mechanism: save panics and delays
//!   here, IO faults in `disc-persist`, link drops in `disc-replicate`.

pub mod approx;
pub mod bounds;
pub mod budget;
pub mod cache;
pub mod config;
pub mod constraints;
pub mod engine;
pub mod error;
pub mod exact;
#[cfg(disc_fault)]
pub mod fault;
pub mod parallel;
pub mod params;
pub mod pipeline;
pub mod rset;
pub mod saver;
pub mod shard;
pub mod view;

pub use approx::{Adjustment, DiscSaver};
pub use budget::{set_global_deadline_ms, Budget, CancelToken, Cancelled};
pub use cache::NearestTable;
pub use config::EngineConfig;
pub use constraints::{
    detect_outliers, detect_outliers_parallel, DistanceConstraints, OutlierSplit,
};
pub use engine::{DiscEngine, EngineState, ShardedEngine};
pub use error::Error;
pub use exact::ExactSaver;
pub use parallel::Parallelism;
pub use params::{
    determine_parameters, determine_parameters_db, neighbor_counts, poisson_eta_for,
    poisson_p_at_least, ParamChoice, ParamConfig,
};
pub use pipeline::{FailedSave, PipelineError, SaveReport, SavedOutlier};
pub use rset::RSet;
pub use saver::{Saver, SaverConfig};
pub use shard::{default_shards, resolve_shards, shard_of};
pub use view::EngineView;

// Observability: per-run statistics attached to `SaveReport::stats`, plus
// the effort type returned by the savers' `*_with_effort` entry points.
pub use disc_obs::{PipelineStats, SaveEffort};
