//! `disc` — command-line interface to the outlier-saving toolkit.
//!
//! ```text
//! disc generate --out data.csv [--n 1000] [--m 4] [--classes 3]
//!               [--dirty 50] [--natural 10] [--seed 42]
//! disc params   --data data.csv [--sample 1.0]
//! disc detect   --data data.csv [--eps E --eta H]
//! disc repair   --data data.csv --out repaired.csv [--eps E --eta H]
//!               [--kappa K] [--method disc|dorc|eracer|holoclean|holistic]
//! disc cluster  --data data.csv [--eps E --eta H] [--algo dbscan|kmeans|
//!               kmeans--|cckm|srem|kmc|optics] [--k K] [--out labels.csv]
//! disc stream   --data data.csv [--out repaired.csv] [--eps E --eta H]
//!               [--kappa K] [--batch B] [--shards S] [--wal DIR]
//!               [--snapshot-every N]
//! disc recover  --wal DIR [--out repaired.csv]
//! disc serve    [--addr HOST:PORT] [--arity M] [--eps E --eta H]
//!               [--kappa K] [--shards S] [--wal DIR] [--max-queue N]
//!               [--snapshot-every N] [--replicate-from HOST:PORT]
//! disc repl-status --addr HOST:PORT
//! disc evaluate --labels predicted.csv --truth truth.csv
//! ```
//!
//! `stream` replays the CSV through the incremental engine in
//! micro-batches of `--batch` rows (default 64), printing per-batch save
//! activity; the final dataset is identical to one batch `repair` run
//! over the whole file. With `--wal DIR` the engine is durable: every
//! batch is appended to a write-ahead log (and fsynced) before it is
//! applied, with a checkpoint snapshot every `--snapshot-every N`
//! ingests (default: only a final checkpoint). `recover` reopens such a
//! store after a crash, reports what was replayed (and any torn log
//! tail that was truncated), and optionally exports the recovered
//! dataset.
//!
//! `--shards S` (on `stream` and `serve`) partitions the engine's rows
//! across `S` independently indexed shards whose queries fan out on
//! worker threads; `0` means one shard per core. Sharding is a pure
//! execution knob — results are bit-identical for every shard count —
//! and a durable store remembers its count, so a reopen without the
//! flag keeps the stored layout while a reopen with it re-partitions.
//!
//! `serve` exposes one engine to many clients over TCP, speaking
//! newline-delimited JSON (see `disc_serve::protocol` for the wire
//! format). Writes flow through a bounded single-writer queue
//! (`--max-queue`, default 64); a full queue answers `overloaded`.
//! With `--wal DIR` the served engine is durable: an existing store is
//! reopened (recovering as `recover` would), a missing one is created
//! with `--eps/--eta` (required then, as there is no data to determine
//! them from). The first stdout line is `listening on HOST:PORT` — with
//! `--addr` port 0 this is how callers learn the ephemeral port.
//! SIGINT/SIGTERM begin a graceful shutdown: admission closes, every
//! admitted batch drains, and a durable store is checkpointed and its
//! lock released, so no acknowledged ingest is ever lost.
//!
//! `serve --replicate-from HOST:PORT` runs a **read replica** instead:
//! `--wal DIR` (required) is the replica's own durable store, which
//! bootstraps from a leader snapshot and then tails the leader's WAL
//! over its serving socket, reconnecting with exponential backoff when
//! the link drops. Schema and saver configuration travel inside the
//! replicated snapshot, so `--eps/--eta/--arity/--kappa` must not be
//! given. The replica serves every read verb at the replicated state's
//! generation; writes answer a typed `not_leader` error naming the
//! leader. `repl-status` asks any server (`--addr`) for its replication
//! role and, on a follower, connection state, generations, and lag.
//!
//! Labels for `evaluate` come from a single-column CSV aligned with the
//! data rows. When `--eps/--eta` are omitted, the Poisson procedure of the
//! paper (Section 2.1.2) determines them from the data.
//!
//! Every `--data` loader accepts `--non-finite reject|null|drop` for
//! `nan`/`inf` tokens in numeric columns: `reject` (default) fails the
//! load naming the offending line and column, `null` demotes them to
//! missing values, `drop` discards the affected rows.
//!
//! Every subcommand accepts `--stats <path.json>`: after the command
//! completes, the process-wide observability counters (index queries per
//! backend, search nodes, bound prunes, budget cancellations, …) are
//! written to the path as a stable `disc-stats/1` JSON document.
//!
//! Exit codes are typed: `0` success, `2` unparseable flags or usage
//! errors, `3` invalid input data (CSV parse failures, non-finite
//! values, label mismatches), `4` filesystem or persistence failures,
//! `5` the run completed and wrote its outputs but degraded (budget
//! expiry or isolated panics left outliers unsaved). Errors go to
//! stderr.

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use disc::cleaning::{DiscRepairer, Dorc, Eracer, Holistic, HoloClean, Repairer};
use disc::clustering::Optics;
use disc::core::ParamConfig;
use disc::data::{csv, ClusterSpec, ErrorInjector, NonFinitePolicy};
use disc::persist::{DurableEngine, StoreOptions};
use disc::prelude::*;
use disc_distance::Norm;

/// A CLI failure, carrying its exit code class (see the module docs).
enum CliError {
    /// Unparseable flags, unknown subcommands, usage errors — exit 2.
    Parse(String),
    /// Inputs that were read but are invalid — exit 3.
    Validation(String),
    /// Filesystem / persistence failures — exit 4.
    Io(String),
    /// The run completed (outputs written) but degraded — exit 5.
    Degraded(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Parse(_) => ExitCode::from(2),
            CliError::Validation(_) => ExitCode::from(3),
            CliError::Io(_) => ExitCode::from(4),
            CliError::Degraded(_) => ExitCode::from(5),
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Parse(m)
            | CliError::Validation(m)
            | CliError::Io(m)
            | CliError::Degraded(m) => m,
        }
    }
}

/// Classifies a persistence-layer error: engine rejections are bad input,
/// everything else (IO, corruption, store state) is an IO failure.
fn persist_err(e: disc::persist::Error) -> CliError {
    match e {
        disc::persist::Error::Engine(e) => CliError::Validation(e.to_string()),
        other => CliError::Io(other.to_string()),
    }
}

struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse() -> Args {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it.next().unwrap_or_default();
                flags.insert(name.to_string(), value);
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| CliError::Parse(format!("--{name}: cannot parse {s:?}"))),
        }
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::Parse(format!("--{name} is required")))
    }
}

/// Loads a CSV under the `--non-finite` policy: `reject` (default) makes
/// `nan`/`inf` tokens in numeric columns a load error; `null` demotes them
/// to missing values; `drop` discards the whole row.
fn load(path: &str, args: &Args) -> Result<Dataset, CliError> {
    let policy = match args.get("non-finite") {
        None => NonFinitePolicy::default(),
        Some(s) => NonFinitePolicy::parse(s).ok_or_else(|| {
            CliError::Parse(format!(
                "--non-finite: expected reject|null|drop, got {s:?}"
            ))
        })?,
    };
    csv::read_file_with(path, policy).map_err(|e| {
        // The loader wraps parse/validation problems as `InvalidData`;
        // anything else is a real filesystem failure.
        let message = format!("reading {path}: {e}");
        if e.kind() == std::io::ErrorKind::InvalidData {
            CliError::Validation(message)
        } else {
            CliError::Io(message)
        }
    })
}

fn constraints_for(ds: &Dataset, args: &Args) -> Result<DistanceConstraints, CliError> {
    let dist = ds.schema().tuple_distance(Norm::L2);
    match (args.get("eps"), args.get("eta")) {
        (Some(e), Some(h)) => {
            let eps: f64 = e
                .parse()
                .map_err(|_| CliError::Parse("--eps: not a number".into()))?;
            let eta: usize = h
                .parse()
                .map_err(|_| CliError::Parse("--eta: not an integer".into()))?;
            Ok(DistanceConstraints::new(eps, eta))
        }
        (None, None) => {
            let sample: f64 = args.num("sample", 1.0f64.min(2000.0 / ds.len().max(1) as f64))?;
            let cfg = ParamConfig {
                sample_rate: sample,
                ..Default::default()
            };
            let choice = determine_parameters(ds.rows(), &dist, &cfg);
            eprintln!(
                "determined ε = {:.4}, η = {} (λε = {:.2}, violation rate {:.1}%)",
                choice.eps,
                choice.eta,
                choice.lambda,
                choice.outlier_rate * 100.0
            );
            Ok(DistanceConstraints::new(
                choice.eps.max(1e-9),
                choice.eta.max(1),
            ))
        }
        _ => Err(CliError::Parse(
            "--eps and --eta must be given together".into(),
        )),
    }
}

fn cmd_generate(args: &Args) -> Result<(), CliError> {
    let out = args.required("out")?;
    let n: usize = args.num("n", 1000)?;
    let m: usize = args.num("m", 4)?;
    let classes: usize = args.num("classes", 3)?;
    let dirty: usize = args.num("dirty", n / 20)?;
    let natural: usize = args.num("natural", n / 100)?;
    let seed: u64 = args.num("seed", 42)?;
    let mut ds = ClusterSpec::new(n, m, classes, seed).generate();
    let log = ErrorInjector::new(dirty.min(n), natural, seed ^ 0xC11).inject(&mut ds);
    csv::write_file(&ds, out).map_err(|e| CliError::Io(e.to_string()))?;
    // Ground-truth labels go to <out>.labels.csv for `evaluate`.
    let labels_path = format!("{out}.labels.csv");
    let labels = ds.labels().expect("generated data is labeled");
    let mut text = String::from("label\n");
    for l in labels {
        text.push_str(&format!("{l}\n"));
    }
    std::fs::write(&labels_path, text).map_err(|e| CliError::Io(e.to_string()))?;
    println!(
        "wrote {} rows × {} attrs to {out} ({} dirty, {} natural outliers); labels in {labels_path}",
        ds.len(),
        ds.arity(),
        log.errors.len(),
        log.natural_rows.len()
    );
    Ok(())
}

fn cmd_params(args: &Args) -> Result<(), CliError> {
    let ds = load(args.required("data")?, args)?;
    let dist = ds.schema().tuple_distance(Norm::L2);
    let sample: f64 = args.num("sample", 1.0f64.min(2000.0 / ds.len().max(1) as f64))?;
    let cfg = ParamConfig {
        sample_rate: sample,
        ..Default::default()
    };
    let choice = determine_parameters(ds.rows(), &dist, &cfg);
    println!(
        "ε = {:.6}\nη = {}\nλε = {:.3}\nviolation rate = {:.2}%\nelapsed = {:.3}s",
        choice.eps,
        choice.eta,
        choice.lambda,
        choice.outlier_rate * 100.0,
        choice.elapsed.as_secs_f64()
    );
    Ok(())
}

fn cmd_detect(args: &Args) -> Result<(), CliError> {
    let ds = load(args.required("data")?, args)?;
    let dist = ds.schema().tuple_distance(Norm::L2);
    let c = constraints_for(&ds, args)?;
    let split = disc::core::detect_outliers(ds.rows(), &dist, c);
    println!(
        "{} of {} tuples violate (ε = {:.4}, η = {})",
        split.outliers.len(),
        ds.len(),
        c.eps,
        c.eta
    );
    for &row in &split.outliers {
        println!("{row}\t{} ε-neighbors", split.counts[row]);
    }
    Ok(())
}

fn cmd_repair(args: &Args) -> Result<(), CliError> {
    let mut ds = load(args.required("data")?, args)?;
    let out = args.required("out")?;
    let dist = ds.schema().tuple_distance(Norm::L2);
    let c = constraints_for(&ds, args)?;
    let kappa: usize = args.num("kappa", 2)?;
    let method = args.get("method").unwrap_or("disc");
    let repairer: Box<dyn Repairer> = match method {
        "disc" => Box::new(DiscRepairer(
            SaverConfig::new(c, dist.clone())
                .kappa(kappa.max(1))
                .build_approx()
                .map_err(|e| CliError::Validation(e.to_string()))?,
        )),
        "dorc" => Box::new(Dorc::new(c, dist.clone())),
        "eracer" => Box::new(Eracer::new()),
        "holoclean" => Box::new(HoloClean::new()),
        "holistic" => Box::new(Holistic::new()),
        other => return Err(CliError::Parse(format!("unknown --method {other:?}"))),
    };
    let report = repairer.repair(&mut ds);
    csv::write_file(&ds, out).map_err(|e| CliError::Io(e.to_string()))?;
    println!(
        "{}: modified {} rows / {} cells; wrote {out}",
        repairer.name(),
        report.rows_modified(),
        report.cells_modified()
    );
    for (row, attrs) in &report.rows {
        println!("{row}\tattrs {:?}", attrs.iter().collect::<Vec<_>>());
    }
    Ok(())
}

fn cmd_cluster(args: &Args) -> Result<(), CliError> {
    let ds = load(args.required("data")?, args)?;
    let dist = ds.schema().tuple_distance(Norm::L2);
    let c = constraints_for(&ds, args)?;
    let k: usize = args.num("k", 3)?;
    let l: usize = args.num("l", ds.len() / 20)?;
    let seed: u64 = args.num("seed", 42)?;
    let algo = args.get("algo").unwrap_or("dbscan");
    let algorithm: Box<dyn ClusteringAlgorithm> = match algo {
        "dbscan" => Box::new(Dbscan::new(c.eps, c.eta)),
        "optics" => Box::new(Optics::new(c.eps, c.eta)),
        "kmeans" => Box::new(KMeans::new(k, seed)),
        "kmeans--" => Box::new(KMeansMinus::new(k, l, seed)),
        "cckm" => Box::new(Cckm::new(k, l, seed)),
        "srem" => Box::new(Srem::new(k, seed)),
        "kmc" => Box::new(Kmc::new(k, seed)),
        other => return Err(CliError::Parse(format!("unknown --algo {other:?}"))),
    };
    let labels = algorithm.cluster(ds.rows(), &dist);
    let clusters = {
        let mut ids: Vec<u32> = labels.iter().copied().filter(|&l| l != u32::MAX).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    };
    let noise = labels.iter().filter(|&&l| l == u32::MAX).count();
    println!(
        "{}: {clusters} clusters, {noise} noise points",
        algorithm.name()
    );
    if let Some(out) = args.get("out") {
        let mut text = String::from("label\n");
        for l in &labels {
            text.push_str(&format!("{l}\n"));
        }
        std::fs::write(out, text).map_err(|e| CliError::Io(e.to_string()))?;
        println!("labels written to {out}");
    }
    Ok(())
}

fn read_labels(path: &str) -> Result<Vec<u32>, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("reading {path}: {e}")))?;
    text.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.trim()
                .parse()
                .map_err(|_| CliError::Validation(format!("bad label {l:?}")))
        })
        .collect()
}

/// The optional `--shards` override: `Some(0)` requests auto (one shard
/// per core), `None` leaves the engine/store default in charge.
fn shards_flag(args: &Args) -> Result<Option<usize>, CliError> {
    match args.get("shards") {
        None => Ok(None),
        Some(s) => s
            .parse()
            .map(Some)
            .map_err(|_| CliError::Parse(format!("--shards: cannot parse {s:?}"))),
    }
}

/// The full engine knob set for a streaming/serving command; persisted
/// verbatim (via [`EngineConfig::encode`]) in a durable store's config
/// blob so `recover` can rebuild the exact saver with no flags.
fn stream_engine_config(
    arity: usize,
    c: DistanceConstraints,
    kappa: usize,
    shards: Option<usize>,
) -> EngineConfig {
    let config = EngineConfig::new(arity, c.eps, c.eta).kappa(kappa.max(1));
    match shards {
        Some(s) => config.shards(s),
        None => config,
    }
}

/// Rebuilds the streaming saver from a store's schema + config blob.
fn stream_saver_from_config(
    schema: &Schema,
    config: &[u8],
) -> Result<Box<dyn Saver>, disc::core::Error> {
    EngineConfig::decode(config)?.build_saver_for(schema)
}

fn print_batch_report(i: usize, rows: usize, report: &SaveReport) {
    println!(
        "batch {i}: +{rows} rows, {} dirty, {} saved, {} natural{}",
        report.outliers.len(),
        report.saved.len(),
        report.unsaved.len(),
        if report.degraded { " (degraded)" } else { "" }
    );
}

fn cmd_stream(args: &Args) -> Result<(), CliError> {
    let ds = load(args.required("data")?, args)?;
    let c = constraints_for(&ds, args)?;
    let kappa: usize = args.num("kappa", 2)?;
    let shards = shards_flag(args)?;
    let batch: usize = args.num("batch", 64)?;
    if batch == 0 {
        return Err(CliError::Parse("--batch must be at least 1".into()));
    }
    let snapshot_every: u64 = args.num("snapshot-every", 0)?;
    if snapshot_every > 0 && args.get("wal").is_none() {
        return Err(CliError::Parse("--snapshot-every requires --wal".into()));
    }
    let config = stream_engine_config(ds.schema().arity(), c, kappa, shards);

    let mut degraded = false;
    let engine = match args.get("wal") {
        Some(dir) => {
            // Durable path: every batch is WAL-appended and fsynced
            // before it is applied; `disc recover --wal DIR` resumes
            // after a crash.
            let mut store = DurableEngine::create_with_config(
                Path::new(dir),
                ds.schema().clone(),
                &config,
                StoreOptions {
                    snapshot_every: (snapshot_every > 0).then_some(snapshot_every),
                    shards: None,
                },
            )
            .map_err(persist_err)?;
            for (i, chunk) in ds.rows().chunks(batch).enumerate() {
                let report = store.ingest(chunk.to_vec()).map_err(|e| match e {
                    disc::persist::Error::Engine(e) => {
                        CliError::Validation(format!("batch {i}: {e}"))
                    }
                    other => CliError::Io(format!("batch {i}: {other}")),
                })?;
                print_batch_report(i, chunk.len(), &report);
                degraded |= report.degraded;
            }
            let generation = store.generation();
            let engine = store.close().map_err(persist_err)?;
            println!("durable store in {dir}: generation {generation}, checkpointed");
            engine
        }
        None => {
            let mut engine = config
                .build_engine(ds.schema().clone())
                .map_err(|e| CliError::Validation(e.to_string()))?;
            for (i, chunk) in ds.rows().chunks(batch).enumerate() {
                let report = engine
                    .ingest(chunk.to_vec())
                    .map_err(|e| CliError::Validation(format!("batch {i}: {e}")))?;
                print_batch_report(i, chunk.len(), &report);
                degraded |= report.degraded;
            }
            engine
        }
    };
    let outliers = engine.outliers();
    let pending = engine.pending();
    println!(
        "stream done: {} rows across {} shards, {} current outliers, {} pending retries",
        engine.len(),
        engine.shards(),
        outliers.len(),
        pending.len()
    );
    if let Some(out) = args.get("out") {
        csv::write_file(engine.dataset(), out).map_err(|e| CliError::Io(e.to_string()))?;
        println!("wrote {out}");
    }
    if degraded || !pending.is_empty() {
        return Err(CliError::Degraded(format!(
            "stream completed degraded: {} pending retries (outputs were written)",
            pending.len()
        )));
    }
    Ok(())
}

fn cmd_recover(args: &Args) -> Result<(), CliError> {
    let dir = args.required("wal")?;
    let (store, report) = DurableEngine::open(
        Path::new(dir),
        stream_saver_from_config,
        StoreOptions::default(),
    )
    .map_err(persist_err)?;
    println!(
        "recovered {dir}: snapshot generation {}, {} WAL records ({} rows) replayed",
        report.snapshot_generation, report.replayed_records, report.replayed_rows
    );
    match report.torn_tail {
        Some(tear) => println!(
            "torn WAL tail truncated: {} incomplete bytes dropped at offset {}",
            tear.dropped_bytes, tear.valid_len
        ),
        None => println!("log was clean (no torn tail)"),
    }
    let engine = store.engine();
    println!(
        "engine at generation {}: {} rows, {} current outliers, {} pending retries",
        report.generation,
        engine.len(),
        engine.outliers().len(),
        engine.pending().len()
    );
    if let Some(out) = args.get("out") {
        csv::write_file(engine.dataset(), out).map_err(|e| CliError::Io(e.to_string()))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// Set by the signal handler; polled by the server's accept loop.
static SERVE_SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    SERVE_SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Routes SIGINT (ctrl-c) and SIGTERM into [`SERVE_SHUTDOWN`] via the
/// libc `signal` entry point, which the platform C runtime always
/// exports — no binding crate needed.
fn install_shutdown_signals() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_shutdown_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// `--eps/--eta` without a dataset to determine them from: both flags
/// are required.
fn explicit_constraints(args: &Args) -> Result<DistanceConstraints, CliError> {
    let eps: f64 = args
        .required("eps")?
        .parse()
        .map_err(|_| CliError::Parse("--eps: not a number".into()))?;
    let eta: usize = args
        .required("eta")?
        .parse()
        .map_err(|_| CliError::Parse("--eta: not an integer".into()))?;
    Ok(DistanceConstraints::new(eps, eta))
}

/// `serve --replicate-from`: bring up a catch-up read replica over the
/// replica's own durable store, serve reads from its replicated state,
/// and tail the leader until shutdown.
fn cmd_serve_replica(args: &Args, leader: &str) -> Result<(), CliError> {
    use disc::replicate::{Follower, FollowerError, FollowerOptions};
    use disc::serve::{Server, ServerConfig};

    for flag in ["eps", "eta", "arity", "kappa"] {
        if args.get(flag).is_some() {
            return Err(CliError::Parse(format!(
                "--{flag} conflicts with --replicate-from: a replica takes schema and \
                 saver configuration from the leader's snapshot"
            )));
        }
    }
    let dir = args.get("wal").ok_or_else(|| {
        CliError::Parse("--replicate-from requires --wal DIR (the replica's own store)".into())
    })?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:0").to_string();
    let max_queue: usize = args.num("max-queue", 64)?;
    if max_queue == 0 {
        return Err(CliError::Parse("--max-queue must be at least 1".into()));
    }
    let snapshot_every: u64 = args.num("snapshot-every", 0)?;
    let options = FollowerOptions {
        store: StoreOptions {
            snapshot_every: (snapshot_every > 0).then_some(snapshot_every),
            shards: shards_flag(args)?,
        },
        ..FollowerOptions::default()
    };

    install_shutdown_signals();
    // Bootstrap, waiting for the leader: a replica is routinely started
    // before (or restarted independently of) its leader.
    let follower = loop {
        match Follower::bootstrap(
            Path::new(dir),
            leader,
            Box::new(stream_saver_from_config),
            options,
        ) {
            Ok(f) => break f,
            Err(FollowerError::Link(m)) => {
                if SERVE_SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
                    return Ok(());
                }
                eprintln!("leader {leader} not reachable ({m}); retrying");
                std::thread::sleep(std::time::Duration::from_millis(500));
            }
            Err(FollowerError::Store(e)) => return Err(persist_err(e)),
            Err(e) => return Err(CliError::Io(e.to_string())),
        }
    };
    eprintln!(
        "replica store in {dir}: generation {}, replicating from {leader}",
        follower.generation()
    );

    let (handle, publisher) = Server::start_replica(
        follower.store().engine().view(),
        leader.to_string(),
        ServerConfig {
            addr,
            max_queue,
            shutdown_flag: Some(&SERVE_SHUTDOWN),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| CliError::Io(format!("binding listener: {e}")))?;
    println!("listening on {}", handle.addr());

    let daemon = std::thread::spawn(move || follower.run(&publisher));
    let report = handle.wait();
    let outcome = daemon
        .join()
        .map_err(|_| CliError::Io("replication thread panicked".into()))?;
    println!(
        "shutdown complete: generation {}, {} rows",
        report.generation,
        report.state.len()
    );
    match outcome {
        Ok(()) => Ok(()),
        Err(FollowerError::Store(e)) => Err(persist_err(e)),
        Err(e) => Err(CliError::Io(e.to_string())),
    }
}

/// `repl-status`: one request against a running server, answer printed
/// verbatim (one machine-readable JSON line).
fn cmd_repl_status(args: &Args) -> Result<(), CliError> {
    use std::io::{BufRead, BufReader, Write};

    let addr = args.required("addr")?;
    let mut conn = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError::Io(format!("connecting to {addr}: {e}")))?;
    conn.write_all(b"{\"op\":\"repl_status\"}\n")
        .map_err(|e| CliError::Io(format!("sending request: {e}")))?;
    let mut line = String::new();
    BufReader::new(conn)
        .read_line(&mut line)
        .map_err(|e| CliError::Io(format!("reading response: {e}")))?;
    if line.is_empty() {
        return Err(CliError::Io(format!("{addr} closed without answering")));
    }
    println!("{}", line.trim_end());
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    use disc::serve::{EngineBackend, Server, ServerConfig};

    if let Some(leader) = args.get("replicate-from") {
        let leader = leader.to_string();
        return cmd_serve_replica(args, &leader);
    }

    let addr = args.get("addr").unwrap_or("127.0.0.1:0").to_string();
    let max_queue: usize = args.num("max-queue", 64)?;
    if max_queue == 0 {
        return Err(CliError::Parse("--max-queue must be at least 1".into()));
    }
    let kappa: usize = args.num("kappa", 2)?;
    let shards = shards_flag(args)?;
    let snapshot_every: u64 = args.num("snapshot-every", 0)?;
    if snapshot_every > 0 && args.get("wal").is_none() {
        return Err(CliError::Parse("--snapshot-every requires --wal".into()));
    }
    let options = StoreOptions {
        snapshot_every: (snapshot_every > 0).then_some(snapshot_every),
        shards,
    };

    let backend = match args.get("wal") {
        Some(dir) => {
            let path = Path::new(dir);
            // Reopen an existing store (recovering exactly as `recover`
            // would); only a missing one needs --eps/--eta to create.
            match DurableEngine::open(path, stream_saver_from_config, options) {
                Ok((store, report)) => {
                    eprintln!(
                        "reopened {dir}: generation {}, {} WAL records replayed",
                        report.generation, report.replayed_records
                    );
                    EngineBackend::Durable(store)
                }
                Err(disc::persist::Error::StoreMissing { .. }) => {
                    let c = explicit_constraints(args)?;
                    let arity: usize = args.num("arity", 2)?;
                    let config = stream_engine_config(arity, c, kappa, shards);
                    let store = DurableEngine::create_with_config(
                        path,
                        Schema::numeric(arity),
                        &config,
                        options,
                    )
                    .map_err(persist_err)?;
                    eprintln!(
                        "created durable store in {dir} ({} shards)",
                        store.engine().shards()
                    );
                    EngineBackend::Durable(store)
                }
                Err(e) => return Err(persist_err(e)),
            }
        }
        None => {
            let c = explicit_constraints(args)?;
            let arity: usize = args.num("arity", 2)?;
            let engine = stream_engine_config(arity, c, kappa, shards)
                .build_engine(Schema::numeric(arity))
                .map_err(|e| CliError::Validation(e.to_string()))?;
            EngineBackend::Memory(engine)
        }
    };

    install_shutdown_signals();
    let handle = Server::start(
        backend,
        ServerConfig {
            addr,
            max_queue,
            shutdown_flag: Some(&SERVE_SHUTDOWN),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| CliError::Io(format!("binding listener: {e}")))?;
    // First stdout line is machine-readable: callers binding port 0
    // parse the ephemeral port from it.
    println!("listening on {}", handle.addr());
    let report = handle.wait();
    if let Some(failure) = report.failure {
        return Err(CliError::Io(format!("serving stopped: {failure}")));
    }
    println!(
        "shutdown complete: generation {}, {} rows",
        report.generation,
        report.state.len()
    );
    match report.close_error {
        Some(e) => Err(CliError::Io(format!("closing durable store: {e}"))),
        None => Ok(()),
    }
}

fn cmd_evaluate(args: &Args) -> Result<(), CliError> {
    let pred = read_labels(args.required("labels")?)?;
    let truth = read_labels(args.required("truth")?)?;
    if pred.len() != truth.len() {
        return Err(CliError::Validation(format!(
            "label count mismatch: {} predictions vs {} truths",
            pred.len(),
            truth.len()
        )));
    }
    println!("pairwise F1 = {:.4}", pairwise_f1(&pred, &truth));
    println!(
        "NMI         = {:.4}",
        normalized_mutual_information(&pred, &truth)
    );
    println!("ARI         = {:.4}", adjusted_rand_index(&pred, &truth));
    Ok(())
}

fn usage() -> CliError {
    CliError::Parse(
        "usage: disc <generate|params|detect|repair|cluster|stream|recover|serve|repl-status|evaluate> [flags]\n\
         run with a subcommand; see the crate docs for the flag reference"
            .to_string(),
    )
}

/// Writes the process-wide observability counters as a `disc-stats/1`
/// JSON document (see `disc_obs`). Runs even for failed commands so a
/// partial run's work is still accounted for.
fn write_stats(path: &str, command: &str) -> Result<(), CliError> {
    let json = disc::obs::global_json(&[("command", command)]);
    std::fs::write(path, json).map_err(|e| CliError::Io(format!("writing stats to {path}: {e}")))
}

fn main() -> ExitCode {
    let args = Args::parse();
    let command = args.positional.first().map(String::as_str);
    let mut result = match command {
        Some("generate") => cmd_generate(&args),
        Some("params") => cmd_params(&args),
        Some("detect") => cmd_detect(&args),
        Some("repair") => cmd_repair(&args),
        Some("cluster") => cmd_cluster(&args),
        Some("stream") => cmd_stream(&args),
        Some("recover") => cmd_recover(&args),
        Some("serve") => cmd_serve(&args),
        Some("repl-status") => cmd_repl_status(&args),
        Some("evaluate") => cmd_evaluate(&args),
        _ => Err(usage()),
    };
    if let Some(path) = args.get("stats") {
        let stats_result = write_stats(path, command.unwrap_or(""));
        if result.is_ok() {
            result = stats_result;
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            e.exit_code()
        }
    }
}
