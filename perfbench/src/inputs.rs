//! Seeded workload inputs and the settings every workload shares.
//!
//! Inputs come from the repository's own generators (`ClusterSpec` plus
//! `ErrorInjector`, wired exactly as `disc generate` wires them), so the
//! program under test only ever receives generated rows.

use disc_clustering::{ClusteringAlgorithm, Dbscan};
use disc_core::{DiscSaver, DistanceConstraints, EngineConfig, SaverConfig};
use disc_data::{ClusterSpec, Dataset, ErrorInjector, Schema};
use disc_distance::{Norm, TupleDistance, Value};
use disc_metrics::pairwise_f1;

/// Attributes per row.
pub const M: usize = 3;
/// Neighborhood radius ε.
pub const EPS: f64 = 0.5;
/// Neighbor threshold η (self-inclusive), also DBSCAN's MinPts.
pub const ETA: usize = 4;
/// Attributes a save may adjust (κ).
pub const KAPPA: usize = 2;
/// Ground-truth classes in the generated mixture.
const CLASSES: usize = 3;

/// Generated rows plus the generator's class labels.
pub struct Input {
    pub rows: Vec<Vec<Value>>,
    pub labels: Vec<u32>,
}

/// `count` inputs drawn from seeds `seed·count .. seed·count + count`:
/// a run cycles through several inputs so one seed's quirks weigh less.
pub fn generate_set(
    count: usize,
    n: usize,
    spread: f64,
    dirty: usize,
    natural: usize,
    seed: u64,
) -> Vec<Input> {
    let base = seed.wrapping_mul(count as u64);
    (0..count as u64)
        .map(|i| generate(n, spread, dirty, natural, base.wrapping_add(i)))
        .collect()
}

/// `n` clean rows around three centres with the given spread, `dirty`
/// of them corrupted on one or two attributes, and `natural` far-away
/// rows appended.
fn generate(n: usize, spread: f64, dirty: usize, natural: usize, seed: u64) -> Input {
    let mut ds = ClusterSpec::new(n, M, CLASSES, seed)
        .spread(spread)
        .generate();
    ErrorInjector::new(dirty.min(n), natural, seed ^ 0xC11).inject(&mut ds);
    Input {
        rows: ds.rows().to_vec(),
        labels: ds.labels().expect("generated data is labeled").to_vec(),
    }
}

pub fn schema() -> Schema {
    Schema::numeric(M)
}

/// The tuple metric every engine built from [`engine_config`] uses.
pub fn distance() -> TupleDistance {
    schema().tuple_distance(Norm::L2)
}

/// The batch saver: Algorithm 1 under (ε, η, κ), one worker per core.
pub fn saver() -> DiscSaver {
    SaverConfig::new(DistanceConstraints::new(EPS, ETA), distance())
        .kappa(KAPPA)
        .build_approx()
        .expect("the benchmark's saver knobs are valid")
}

/// One batch `save_all` over `input`: what a streamed or served copy of
/// the same rows must equal bit for bit.
pub fn batch_repair(input: &Input) -> Dataset {
    let mut ds = Dataset::new(schema(), input.rows.clone());
    saver().save_all(&mut ds);
    ds
}

/// Engine knobs shared by the streaming workloads; workers stay at the
/// default (one per core).
pub fn engine_config(shards: usize) -> EngineConfig {
    EngineConfig::new(M, EPS, ETA).kappa(KAPPA).shards(shards)
}

/// Pairwise F1 of DBSCAN(ε, η) over `rows` against the generator's
/// labels: the paper's clustering-quality measure.
pub fn cluster_f1(rows: &[Vec<Value>], labels: &[u32]) -> f64 {
    let pred = Dbscan::new(EPS, ETA).cluster(rows, &distance());
    pairwise_f1(&pred, &labels[..rows.len()])
}

/// True when both row sets hold the same values bit for bit.
pub fn bit_equal(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(u, v)| match (u, v) {
                    (Value::Num(p), Value::Num(q)) => p.to_bits() == q.to_bits(),
                    _ => u == v,
                })
        })
}
