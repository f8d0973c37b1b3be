//! `repair_batch`: one batch `save_all` over about 10k rows with 2%
//! injected errors — the paper's scalability setting. Its time goes to
//! index queries, distance kernels and Algorithm 1; it never touches
//! engine upkeep, persistence or serving.
//!
//! The timed loop runs `save_all` on fresh copies of a few seeded inputs
//! in turn; repeating an input must reproduce its rows bit for bit.

use std::hint::black_box;
use std::time::{Duration, Instant};

use disc_core::SaveReport;
use disc_data::Dataset;
use disc_obs::Snapshot;

use crate::calibrate::{self, Calibrator};
use crate::inputs::{self, Input};
use crate::measure::{self, median, ms, percentile, secs, Outcome};
use crate::trace::Tracer;
use crate::Args;

const ROWS: usize = 10_000;
/// Inputs per run, repaired in turn.
const INPUTS: usize = 3;
/// Set-ups timed after each timed pass; the median of all is `setup_s`.
const SETUPS_PER_PASS: usize = 50;

pub fn run(args: &Args) -> Outcome {
    let inputs = inputs::generate_set(INPUTS, ROWS, 1.0, ROWS / 50, ROWS / 100, args.seed);
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &inputs, &mut out);
    } else {
        timed(args, &inputs, &mut out);
    }
    out
}

/// Times the program's set-up for one repair: building the validated
/// saver, whose cost is mostly worker-count detection. Wrapping the
/// generated rows in a `Dataset` is input handling, the benchmark's own
/// work, and stays off the clock.
fn time_setup() -> f64 {
    let start = Instant::now();
    let saver = black_box(inputs::saver());
    let took = secs(start.elapsed());
    drop(saver);
    took
}

struct Pass {
    repaired: Dataset,
    report: SaveReport,
    start: Instant,
    took: Duration,
    delta: Snapshot,
}

fn pass(input: &Input) -> Pass {
    let saver = inputs::saver();
    let mut ds = Dataset::new(inputs::schema(), input.rows.clone());
    let before = Snapshot::take();
    let start = Instant::now();
    let report = saver.save_all(&mut ds);
    let took = start.elapsed();
    Pass {
        repaired: ds,
        report,
        start,
        took,
        delta: Snapshot::take().delta_since(&before),
    }
}

/// The first pass over each input; later passes must repeat it.
struct Firsts(Vec<Option<Pass>>);

impl Firsts {
    /// Counts a pass as one operation, checks it, and keeps it when it
    /// is the first over its input.
    fn account(&mut self, out: &mut Outcome, k: usize, p: Pass) {
        out.attempted += 1;
        out.failed += u64::from(p.report.degraded);
        measure::check_invariants(out, "save_all", &p.delta, p.report.outliers.len() as u64);
        match &self.0[k] {
            Some(first) => {
                out.check(
                    inputs::bit_equal(first.repaired.rows(), p.repaired.rows()),
                    || format!("save_all repaired input {k} differently on a repeat"),
                );
                measure::check_repeat(out, &first.delta, &p.delta);
            }
            None => self.0[k] = Some(p),
        }
    }

    /// Repairs every input not yet seen, untimed, and returns the mean
    /// cluster F1 over all inputs.
    fn mean_f1(&mut self, out: &mut Outcome, inputs: &[Input]) -> f64 {
        let mut sum = 0.0;
        for (k, input) in inputs.iter().enumerate() {
            if self.0[k].is_none() {
                self.account(out, k, pass(input));
            }
            let first = self.0[k].as_ref().expect("every input was repaired");
            sum += inputs::cluster_f1(first.repaired.rows(), &input.labels);
        }
        sum / inputs.len() as f64
    }
}

/// One untimed pass first: the process's first repair pays for growing
/// the heap, which makes it markedly slower than every later one.
fn warm_up(firsts: &mut Firsts, out: &mut Outcome, inputs: &[Input]) {
    firsts.account(out, 0, pass(&inputs[0]));
}

fn timed(args: &Args, inputs: &[Input], out: &mut Outcome) {
    let mut firsts = Firsts((0..inputs.len()).map(|_| None).collect());
    let mut cal = Calibrator::default();
    warm_up(&mut firsts, out, inputs);
    // A burst of calibration samples between passes; each pass, and the
    // set-ups timed after it, are converted with the bursts on either
    // side of it.
    let mut burst = cal.mark();
    cal.take(calibrate::BURST);
    let started = Instant::now();
    let (mut call_ms, mut raw_ms, mut rows) = (Vec::new(), Vec::new(), 0);
    let (mut setup, mut raw_setup) = (Vec::new(), Vec::new());
    while call_ms.is_empty() || started.elapsed() < args.seconds {
        let k = (call_ms.len() + 1) % inputs.len();
        let p = pass(&inputs[k]);
        // Set-ups spread over the whole run, so that no one moment of
        // the machine's weighs much in their median.
        let setups: Vec<f64> = (0..SETUPS_PER_PASS).map(|_| time_setup()).collect();
        let next = cal.mark();
        cal.take(calibrate::BURST);
        let factor = cal.since(burst);
        burst = next;
        setup.extend(setups.iter().map(|s| s / factor));
        raw_setup.extend(setups);
        raw_ms.push(ms(p.took));
        call_ms.push(ms(p.took) / factor);
        rows += inputs[k].rows.len();
        firsts.account(out, k, p);
    }
    let peak = measure::peak_rss_mb();
    let total_s = call_ms.iter().sum::<f64>() / 1e3;
    out.put("setup_s", median(&setup), "s");
    out.put("rows_per_s", rows as f64 / total_s, "rows/s");
    out.put("op_p50_ms", median(&call_ms), "ms");
    out.put("op_p95_ms", percentile(&call_ms, 95.0), "ms");
    out.put("op_samples", call_ms.len() as f64, "count");
    let f1 = firsts.mean_f1(out, inputs);
    out.put("cluster_f1", f1, "ratio");
    out.put("peak_rss_mb", peak, "MB");
    out.put("raw.setup_s", median(&raw_setup), "s");
    out.put(
        "raw.rows_per_s",
        rows as f64 * 1e3 / raw_ms.iter().sum::<f64>(),
        "rows/s",
    );
    out.put("raw.op_p50_ms", median(&raw_ms), "ms");
    out.put("raw.op_p95_ms", percentile(&raw_ms, 95.0), "ms");
    out.put("calibration.slowdown", cal.overall(), "ratio");
    let first = firsts.0[0].as_ref().expect("the warm-up repaired input 0");
    out.put("rows", inputs[0].rows.len() as f64, "count");
    out.put("outliers", first.report.outliers.len() as f64, "count");
    out.put("saved", first.report.saved.len() as f64, "count");
}

fn traced(args: &Args, inputs: &[Input], out: &mut Outcome) {
    let mut firsts = Firsts((0..inputs.len()).map(|_| None).collect());
    let mut tracer = Tracer::new();
    warm_up(&mut firsts, out, inputs);
    let started = Instant::now();
    let mut units = 0u64;
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut detect, mut rset, mut save) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    while units == 0 || started.elapsed() < args.seconds {
        // An untraced pass, then a traced one timed whole with its span
        // recording: the tracing overhead compares the two. Every pass
        // repeats the warm-up's counts.
        let start = Instant::now();
        let plain = pass(&inputs[0]);
        plain_s.push(secs(start.elapsed()));
        firsts.account(out, 0, plain);
        let start = Instant::now();
        let p = pass(&inputs[0]);
        let id = tracer.span("saver.save_all", units, None, p.start, p.start + p.took);
        let stages = &p.report.stats.stages;
        tracer.stages(id, units, p.start, stages, "saver.detect");
        traced_s.push(secs(start.elapsed()));
        detect += stages.detect;
        rset += stages.rset_build;
        save += stages.save;
        units += 1;
        firsts.account(out, 0, p);
    }
    let per = |d: Duration| secs(d) / units as f64;
    let first = firsts.0[0].as_ref().expect("the warm-up repaired input 0");
    measure::kernel_index_saver(out, &first.delta, first.report.outliers.len() as u64);
    out.put("saver.save_s", per(save), "s");
    out.put("saver.rset_build_s", per(rset), "s");
    out.put("saver.detect_s", per(detect), "s");
    out.put(
        "index.range_us_p50",
        measure::index_probe(&inputs[0].rows, &mut tracer),
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
