//! `stream_small`: about 3k rows with 2% errors fed to an in-memory
//! `ShardedEngine` in 8-row `ingest` calls, with one shard. Its time goes
//! to engine upkeep — dirty-set widening, δ_η upkeep, R-set rebuilds and
//! resaves — and it skips shard fan-out, persistence and serving.
//!
//! The timed loop streams a few seeded inputs in turn, each through a
//! fresh engine; every pass must end bit-equal to one batch `save_all`
//! over the same rows.

use std::hint::black_box;
use std::time::{Duration, Instant};

use disc_core::{SaveReport, ShardedEngine};
use disc_data::Dataset;
use disc_distance::Value;
use disc_obs::hist::SHARD_FANOUT_MICROS;
use disc_obs::Snapshot;

use crate::calibrate::{self, Calibrator};
use crate::inputs::{self, Input};
use crate::measure::{self, median, ms, percentile, ratio, secs, Outcome};
use crate::trace::Tracer;
use crate::Args;

const ROWS: usize = 3_000;
const BATCH: usize = 8;
const SHARDS: usize = 1;
/// Inputs per run, streamed in turn.
const INPUTS: usize = 4;
/// Set-ups timed per run; their median is `setup_s`.
const SETUP_REPS: usize = 200;
/// Ingests between calibration samples.
const CAL_EVERY: u64 = 8;

pub fn run(args: &Args) -> Outcome {
    // Set-up is timed first, on a fresh heap: once the inputs exist and
    // a stream has run, the allocator's state varies with the seed, and
    // set-up time varied with it.
    let mut cal = Calibrator::default();
    let setup = (!args.trace).then(|| time_setup(&mut cal));
    let inputs = inputs::generate_set(INPUTS, ROWS, 1.0, ROWS / 50, ROWS / 100, args.seed);
    let references: Vec<Dataset> = inputs.iter().map(inputs::batch_repair).collect();
    let mut out = Outcome::default();
    match setup {
        None => traced(args, &inputs[0], &references[0], &mut out),
        Some(setup) => timed(args, &mut cal, setup, &inputs, &references, &mut out),
    }
    out
}

/// Median raw time of building an empty engine, and the slowdown to
/// convert it with.
fn time_setup(cal: &mut Calibrator) -> (f64, f64) {
    let mark = cal.mark();
    cal.take(calibrate::BURST);
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(build());
            secs(start.elapsed())
        })
        .collect();
    cal.take(calibrate::BURST);
    (median(&setup), cal.since(mark))
}

fn build() -> ShardedEngine {
    inputs::engine_config(SHARDS)
        .build_engine(inputs::schema())
        .expect("the benchmark's engine knobs are valid")
}

/// One ingest call as the benchmark saw it.
struct Call<'a> {
    op: u64,
    /// Rows the engine held before this call.
    first_new: usize,
    start: Instant,
    took: Duration,
    report: &'a SaveReport,
}

struct Pass {
    engine: ShardedEngine,
    took: Vec<Duration>,
    save_attempts: u64,
    delta: Snapshot,
}

/// Streams the input through a fresh engine, calling `after` between
/// ingests (outside the timed calls).
fn pass(
    out: &mut Outcome,
    input: &Input,
    reference: &Dataset,
    mut after: impl FnMut(&ShardedEngine, Call),
) -> Pass {
    let mut engine = build();
    let mut took = Vec::with_capacity(input.rows.len() / BATCH + 1);
    let mut save_attempts = 0;
    let before = Snapshot::take();
    for (op, chunk) in input.rows.chunks(BATCH).enumerate() {
        let batch = chunk.to_vec();
        let first_new = engine.len();
        let start = Instant::now();
        let result = engine.ingest(batch);
        let elapsed = start.elapsed();
        out.attempted += 1;
        match result {
            Ok(report) => {
                out.failed += u64::from(report.degraded);
                save_attempts += report.outliers.len() as u64;
                took.push(elapsed);
                let call = Call {
                    op: op as u64,
                    first_new,
                    start,
                    took: elapsed,
                    report: &report,
                };
                after(&engine, call);
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("ingest {op} rejected: {e}"));
            }
        }
    }
    let delta = Snapshot::take().delta_since(&before);
    measure::check_invariants(out, "stream", &delta, save_attempts);
    out.check(
        inputs::bit_equal(engine.dataset().rows(), reference.rows()),
        || "streamed dataset differs from batch save_all over the same rows".into(),
    );
    Pass {
        engine,
        took,
        save_attempts,
        delta,
    }
}

fn timed(
    args: &Args,
    cal: &mut Calibrator,
    (setup, setup_factor): (f64, f64),
    inputs: &[Input],
    references: &[Dataset],
    out: &mut Outcome,
) {
    // The process's first stream pays for growing the heap; keep it
    // out of the figures.
    pass(out, &inputs[0], &references[0], |_, _| {});
    let started = Instant::now();
    let (mut call_ms, mut raw_ms, mut rows, mut passes) = (Vec::new(), Vec::new(), 0, 0);
    let (mut total, mut raw_total) = (0.0, 0.0);
    let mut streamed_f1 = vec![None; inputs.len()];
    while passes == 0 || started.elapsed() < args.seconds {
        let k = (passes + 1) % inputs.len();
        // A sample before each window of `CAL_EVERY` ingests and one
        // after it; each ingest is converted with the four samples around
        // it (one noisy sample would widen the tail it converts).
        let mark = cal.mark();
        cal.take(1);
        let p = pass(out, &inputs[k], &references[k], |_, call| {
            if (call.op + 1) % CAL_EVERY == 0 {
                cal.take(1);
            }
        });
        for (op, &d) in p.took.iter().enumerate() {
            let window = mark + op / CAL_EVERY as usize;
            let factor = cal.between(window.saturating_sub(1).max(mark), window + 3);
            raw_ms.push(ms(d));
            call_ms.push(ms(d) / factor);
            raw_total += secs(d);
            total += secs(d) / factor;
        }
        rows += inputs[k].rows.len();
        passes += 1;
        if streamed_f1[k].is_none() {
            streamed_f1[k] = Some(inputs::cluster_f1(
                p.engine.dataset().rows(),
                &inputs[k].labels,
            ));
        }
    }
    let peak = measure::peak_rss_mb();
    let mut f1_sum = 0.0;
    for (k, (input, reference)) in inputs.iter().zip(references).enumerate() {
        let batch_f1 = inputs::cluster_f1(reference.rows(), &input.labels);
        if let Some(f1) = streamed_f1[k] {
            out.check(f1.to_bits() == batch_f1.to_bits(), || {
                format!("cluster_f1 {f1} of stream {k} differs from {batch_f1} of batch save_all")
            });
        }
        f1_sum += batch_f1;
    }
    out.put("setup_s", setup / setup_factor, "s");
    out.put("rows_per_s", rows as f64 / total, "rows/s");
    out.put("op_p50_ms", median(&call_ms), "ms");
    out.put("op_p95_ms", percentile(&call_ms, 95.0), "ms");
    out.put("op_samples", call_ms.len() as f64, "count");
    out.put(
        "op_beyond_p95",
        measure::beyond(&call_ms, 95.0) as f64,
        "count",
    );
    out.put("cluster_f1", f1_sum / inputs.len() as f64, "ratio");
    out.put("peak_rss_mb", peak, "MB");
    out.put("raw.setup_s", setup, "s");
    out.put("raw.rows_per_s", rows as f64 / raw_total, "rows/s");
    out.put("raw.op_p50_ms", median(&raw_ms), "ms");
    out.put("raw.op_p95_ms", percentile(&raw_ms, 95.0), "ms");
    out.put("calibration.slowdown", cal.overall(), "ratio");
    out.put("rows", inputs[0].rows.len() as f64, "count");
    out.put("passes", passes as f64, "count");
}

fn traced(args: &Args, input: &Input, reference: &Dataset, out: &mut Outcome) {
    let mut tracer = Tracer::new();
    // A warm-up, whose counts every later pass repeats exactly.
    let first = pass(out, input, reference, |_, _| {});
    let fanout_before = SHARD_FANOUT_MICROS.snapshot();
    let started = Instant::now();
    let mut units = 0u64;
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut detect, mut rset, mut save) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut resaves, mut changed) = (0u64, 0u64);
    let mut export_ms = Vec::new();
    while units == 0 || started.elapsed() < args.seconds {
        // An untraced pass, then a traced one timed whole with its
        // per-ingest hooks and span recording: the tracing overhead
        // compares the two.
        let start = Instant::now();
        let plain = pass(out, input, reference, |_, _| {});
        plain_s.push(secs(start.elapsed()));
        measure::check_repeat(out, &first.delta, &plain.delta);
        // The output rows as of the previous ingest, to tell which
        // resaves actually changed a row.
        let mut previous: Vec<Vec<Value>> = Vec::new();
        let start = Instant::now();
        let p = pass(out, input, reference, |engine, call| {
            let stages = &call.report.stats.stages;
            let id = tracer.span(
                "engine.ingest",
                call.op,
                None,
                call.start,
                call.start + call.took,
            );
            tracer.stages(id, call.op, call.start, stages, "engine.detect");
            detect += stages.detect;
            rset += stages.rset_build;
            save += stages.save;
            let now = engine.dataset().rows();
            for &row in call.report.outliers.iter().filter(|&&r| r < call.first_new) {
                resaves += 1;
                changed += u64::from(!inputs::bit_equal(&previous[row..=row], &now[row..=row]));
            }
            let start = Instant::now();
            let state = engine.export_state();
            let end = Instant::now();
            tracer.span("engine.export_state", call.op, None, start, end);
            export_ms.push(ms(end - start));
            previous = state.current;
        });
        traced_s.push(secs(start.elapsed()));
        measure::check_repeat(out, &first.delta, &p.delta);
        units += 1;
    }
    let fanout = measure::hist_delta(&fanout_before, &SHARD_FANOUT_MICROS.snapshot());
    let per = |d: Duration| secs(d) / units as f64;
    measure::kernel_index_saver(out, &first.delta, first.save_attempts);
    measure::engine_counts(out, &first.delta);
    out.put("saver.save_s", per(save), "s");
    out.put("saver.rset_build_s", per(rset), "s");
    out.put("engine.detect_s", per(detect), "s");
    out.put(
        "engine.resave_changed_ratio",
        ratio(changed as f64, resaves as f64),
        "ratio",
    );
    out.put("engine.export_state_ms", median(&export_ms), "ms");
    out.put("shard.fanout_us_p50", measure::bucket_median(&fanout), "us");
    out.put(
        "index.range_us_p50",
        measure::index_probe(&input.rows, &mut tracer),
        "us",
    );
    measure::put_self_times(out, &tracer, units as usize);
    out.put(
        "trace.overhead_pct",
        measure::overhead_pct(&traced_s, &plain_s),
        "%",
    );
    out.tracer = Some(tracer);
}
