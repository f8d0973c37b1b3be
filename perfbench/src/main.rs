//! Seeded benchmark for the DISC workspace.
//!
//! ```text
//! perfbench --workload <repair_batch|stream_small|serve_durable>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its input from the seed, drives the public
//! crate APIs in-process for about `--seconds`, checks every output, and
//! prints its figures one per line followed by a last line of JSON:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the JSON carries the end-to-end metrics; with `--trace 1`
//! it carries the per-layer metrics of a traced run, whose spans are
//! written under `.bench_build/perfbench/`.

mod calibrate;
mod inputs;
mod measure;
mod repair;
mod serve;
mod stream;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Duration;

/// End-to-end metrics, measured with tracing off, on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("cluster_f1", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run; a layer a workload never reaches
/// reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("distance.evals", "count"),
    ("distance.early_exit_ratio", "ratio"),
    ("distance.fallback_ratio", "ratio"),
    ("index.queries", "count"),
    ("index.rows_visited_per_query", "rows"),
    ("index.range_us_p50", "us"),
    ("index.rebuilds", "count"),
    ("saver.saves", "count"),
    ("saver.saved_ratio", "ratio"),
    ("saver.nodes_per_save", "nodes"),
    ("saver.candidates_per_save", "candidates"),
    ("saver.lb_prune_ratio", "ratio"),
    ("saver.save_s", "s"),
    ("saver.rset_build_s", "s"),
    ("engine.detect_s", "s"),
    ("engine.dirty_rows_per_ingest", "rows"),
    ("engine.resaves_per_row", "saves"),
    ("engine.resave_changed_ratio", "ratio"),
    ("engine.promotions", "count"),
    ("engine.export_state_ms", "ms"),
    ("shard.fanout_us_p50", "us"),
    ("persist.wal_bytes_per_row", "B"),
    ("persist.fsyncs_per_ack", "count"),
    ("persist.append_us_p50", "us"),
    ("persist.replay_rows_per_s", "rows/s"),
    ("persist.snapshot_bytes", "B"),
    ("serve.server_ingest_us_p50", "us"),
    ("serve.wire_ms_mean", "ms"),
    ("serve.shutdown_s", "s"),
    ("serve.overloaded_ratio", "ratio"),
    ("repl.frames_per_poll", "frames"),
    ("repl.apply_us_per_frame", "us"),
    ("repl.bytes_shipped_per_row", "B"),
    ("repl.snapshots_installed", "count"),
    ("self_s.saver", "s"),
    ("self_s.engine", "s"),
    ("self_s.index", "s"),
    ("self_s.persist", "s"),
    ("self_s.serve", "s"),
    ("self_s.repl", "s"),
    ("trace.overhead_pct", "%"),
    ("repo.rust_lines", "lines"),
];

const USAGE: &str = "usage: perfbench --workload <repair_batch|stream_small|serve_durable> \
                     --seed <n> --seconds <s> --trace <0|1>";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?.to_string();
    if !["repair_batch", "stream_small", "serve_durable"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: Duration::from_secs(number("--seconds")?.max(1)),
        trace,
    })
}

/// Lines of Rust in the repository's program sources: every `.rs` file
/// under the checkout, skipping build output, hidden directories and
/// this benchmark.
fn rust_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut lines = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" && name != "perfbench" {
                lines += rust_lines(&path);
            }
        } else if name.ends_with(".rs") {
            let text = std::fs::read(&path).unwrap_or_default();
            lines += text.iter().filter(|&&b| b == b'\n').count() as u64;
        }
    }
    lines
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_build").join("perfbench");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }

    let mut out = match args.workload.as_str() {
        "repair_batch" => repair::run(&args),
        "stream_small" => stream::run(&args),
        _ => serve::run(&args, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    out.put(
        "repo.rust_lines",
        rust_lines(Path::new(".")) as f64,
        "lines",
    );
    if let Some(tracer) = &out.tracer {
        let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => out
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = Vec::new();
    for &(name, unit) in wanted {
        let value = match out.metrics.iter().find(|(n, _, _)| *n == name) {
            Some(&(_, v, u)) if u == unit && v.is_finite() => v,
            Some(&(_, v, u)) => {
                out.problems
                    .push(format!("{name} read {v} {u}, expected a finite {unit}"));
                0.0
            }
            None if args.trace => 0.0,
            None => {
                out.problems.push(format!("{name} was not measured"));
                0.0
            }
        };
        json.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }

    let correct = out.problems.is_empty();
    let attempted = out.attempted.max(1);
    let failed = if correct { out.failed } else { attempted };
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    for (name, value, unit) in &out.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("error_rate = {} ratio", failed as f64 / attempted as f64);
    for problem in &out.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        json.join(",")
    );
}
