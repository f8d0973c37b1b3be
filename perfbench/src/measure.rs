//! What a workload hands back, plus the arithmetic shared by every
//! workload: quantiles, peak memory, and per-layer figures derived from
//! `disc_obs` counter deltas.

use std::hint::black_box;
use std::time::{Duration, Instant};

use disc_distance::Value;
use disc_index::with_auto_index;
use disc_obs::{Histogram, Snapshot};

use crate::inputs;
use crate::trace::Tracer;

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations the run issued (save_all calls, ingests, acks, reads).
    pub attempted: u64,
    /// Operations that failed, were refused, or ended degraded.
    pub failed: u64,
    /// Failed correctness checks; any entry fails the whole run.
    pub problems: Vec<String>,
    /// Every figure the run measured, in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank `p`-th percentile (0 < p ≤ 100); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Tracing overhead in percent: the median traced unit of work, timed
/// whole with its span recording and per-call hooks, against the median
/// untraced unit run alternately with it.
pub fn overhead_pct(traced: &[f64], plain: &[f64]) -> f64 {
    let base = median(plain);
    100.0 * ratio(median(traced) - base, base)
}

/// Samples strictly above the nearest-rank `p`-th percentile: the
/// percentile is well supported when at least ten lie beyond it.
pub fn beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|&&v| v > cut).count()
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of log₂-bucketed samples given as `(lower_bound, count)`,
/// interpolated linearly inside the bucket that holds it.
pub fn bucket_median(buckets: &[(u64, u64)]) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = total.div_ceil(2);
    let mut seen = 0;
    for &(lo, count) in buckets {
        if seen + count >= rank {
            let width = lo.max(1) as f64; // bucket [lo, 2·lo), or [0, 1) at 0
            return lo as f64 + width * ((rank - seen) as f64 - 0.5) / count as f64;
        }
        seen += count;
    }
    0.0
}

/// Buckets recorded into `after` since `before` was copied.
pub fn hist_delta(before: &Histogram, after: &Histogram) -> Vec<(u64, u64)> {
    let old: Vec<(u64, u64)> = before.nonzero_buckets().collect();
    after
        .nonzero_buckets()
        .map(|(lo, c)| {
            let prior = old.iter().find(|(l, _)| *l == lo).map_or(0, |&(_, c)| c);
            (lo, c - prior)
        })
        .filter(|&(_, c)| c > 0)
        .collect()
}

/// Times ε-range queries through the public `disc-index` backend the
/// library picks for `rows`, over an even sample of the rows themselves;
/// returns the median in µs. One span per probe.
pub fn index_probe(rows: &[Vec<Value>], tracer: &mut Tracer) -> f64 {
    const PROBES: usize = 2000;
    let step = (rows.len() / PROBES).max(1);
    let mut micros = Vec::with_capacity(PROBES);
    with_auto_index(rows, &inputs::distance(), inputs::EPS, |index| {
        for (op, row) in rows.iter().step_by(step).enumerate() {
            let start = Instant::now();
            black_box(index.range(row, inputs::EPS));
            let end = Instant::now();
            tracer.span("index.range", op as u64, None, start, end);
            micros.push((end - start).as_secs_f64() * 1e6);
        }
    });
    median(&micros)
}

/// Self time per layer, per traced unit of work (the index probes run
/// once per traced run and are reported whole).
pub fn put_self_times(out: &mut Outcome, tracer: &Tracer, units: usize) {
    let layers = tracer.self_time();
    for (layer, name) in [
        ("saver", "self_s.saver"),
        ("engine", "self_s.engine"),
        ("index", "self_s.index"),
        ("persist", "self_s.persist"),
        ("serve", "self_s.serve"),
        ("repl", "self_s.repl"),
    ] {
        let total = layers.get(layer).map_or(0.0, |d| d.as_secs_f64());
        let per = if layer == "index" { 1 } else { units.max(1) };
        out.put(name, total / per as f64, "s");
    }
}

/// Index query counters summed over the backends that visit rows.
fn index_queries(d: &Snapshot) -> (u64, u64) {
    let queries = [
        "index.grid.range_queries",
        "index.grid.knn_queries",
        "index.brute.range_queries",
        "index.brute.knn_queries",
        "index.vptree.range_queries",
        "index.vptree.knn_queries",
    ]
    .iter()
    .map(|k| d.get(k))
    .sum();
    let visited = d.get("index.grid.rows_visited")
        + d.get("index.brute.rows_visited")
        + d.get("index.vptree.rows_visited");
    (queries, visited)
}

/// Work counts of the distance, index and saver layers over one delta;
/// `saves` is the number of save attempts the reports listed.
pub fn kernel_index_saver(out: &mut Outcome, d: &Snapshot, saves: u64) {
    let packed = d.get("kernel.packed_calls") as f64;
    let fallback = d.get("kernel.fallback_calls") as f64;
    out.put("distance.evals", packed + fallback, "count");
    out.put(
        "distance.early_exit_ratio",
        ratio(d.get("kernel.early_exits") as f64, packed),
        "ratio",
    );
    out.put(
        "distance.fallback_ratio",
        ratio(fallback, packed + fallback),
        "ratio",
    );
    let (queries, visited) = index_queries(d);
    let all_queries = queries + d.get("index.sorted.ball_queries");
    out.put("index.queries", all_queries as f64, "count");
    out.put(
        "index.rows_visited_per_query",
        ratio(visited as f64, queries as f64),
        "rows",
    );
    out.put(
        "index.rebuilds",
        d.get("index.dynamic.rebuilds") as f64,
        "count",
    );
    let saves_f = saves as f64;
    out.put("saver.saves", saves_f, "count");
    out.put(
        "saver.saved_ratio",
        ratio(d.get("pipeline.outliers_saved") as f64, saves_f),
        "ratio",
    );
    let nodes = d.get("search.nodes") as f64;
    out.put("saver.nodes_per_save", ratio(nodes, saves_f), "nodes");
    out.put(
        "saver.candidates_per_save",
        ratio(d.get("search.candidates") as f64, saves_f),
        "candidates",
    );
    out.put(
        "saver.lb_prune_ratio",
        ratio(d.get("search.lb_prunes") as f64, nodes),
        "ratio",
    );
}

/// Engine upkeep counts over one delta, per ingest call or ingested row.
pub fn engine_counts(out: &mut Outcome, d: &Snapshot) {
    let ingests = d.get("engine.ingests") as f64;
    let rows = d.get("engine.rows_ingested") as f64;
    out.put(
        "engine.dirty_rows_per_ingest",
        ratio(d.get("engine.dirty_rows") as f64, ingests),
        "rows",
    );
    out.put(
        "engine.resaves_per_row",
        ratio(d.get("engine.resaves") as f64, rows),
        "saves",
    );
    out.put(
        "engine.promotions",
        d.get("engine.promotions") as f64,
        "count",
    );
}

/// Counter invariants that hold for any correct run, checked from the
/// outside: resaves are a subset of dirty rows, early exits a subset of
/// packed evaluations, and successful saves a subset of attempts.
pub fn check_invariants(out: &mut Outcome, phase: &str, d: &Snapshot, save_attempts: u64) {
    let pairs = [
        (
            "engine.resaves",
            d.get("engine.resaves"),
            "engine.dirty_rows",
            d.get("engine.dirty_rows"),
        ),
        (
            "kernel.early_exits",
            d.get("kernel.early_exits"),
            "kernel.packed_calls",
            d.get("kernel.packed_calls"),
        ),
        (
            "pipeline.outliers_saved",
            d.get("pipeline.outliers_saved"),
            "save attempts",
            save_attempts,
        ),
    ];
    for (small, a, big, b) in pairs {
        out.check(a <= b, || {
            format!("{phase}: {small} = {a} exceeds {big} = {b}")
        });
    }
}

/// Counters that must repeat exactly when the same input is processed
/// again: all work counts of the kernels, indexes, saver, pipeline and
/// engine, plus WAL bytes.
fn is_count(key: &str) -> bool {
    [
        "kernel.",
        "index.",
        "search.",
        "pipeline.",
        "engine.",
        "shard.",
    ]
    .iter()
    .any(|p| key.starts_with(p))
        || key == "persist.wal.bytes_written"
}

/// Fails the run when two passes over the same input counted different
/// work: a mismatch is an error, not noise.
pub fn check_repeat(out: &mut Outcome, first: &Snapshot, again: &Snapshot) {
    for ((key, a), (_, b)) in first.iter().zip(again.iter()) {
        out.check(!is_count(key) || a == b, || {
            format!("{key} counted {a} on the first pass and {b} on a repeat of the same input")
        });
    }
}
