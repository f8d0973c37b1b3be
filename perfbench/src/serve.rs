//! `serve_durable`: an in-process durable leader (two shards, one WAL
//! fsync per ack) fed mostly clean clustered rows over two closed-loop
//! connections — one writer sending 8-row `ingest`s, one reader issuing
//! a `report` and a `query` of a published row after every ack, against
//! the same published state the writer's drains replace.
//! After the load a follower bootstraps at generation 0 and catches up
//! the whole WAL; the leader shuts down; the dropped follower store is
//! reopened, which replays its WAL. This stresses persistence, state
//! publication, the wire protocol, shard fan-out and replication.
//!
//! Every cycle checks that the follower equals the leader at the final
//! generation, that the reopened store equals it too, and that the rows
//! held are exactly the rows acked.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use disc_bench::serve_client::{ingest_line, ServeClient};
use disc_core::{EngineConfig, EngineState, Saver};
use disc_data::{Dataset, Schema};
use disc_distance::Value;
use disc_obs::hist::SHARD_FANOUT_MICROS;
use disc_obs::Snapshot;
use disc_persist::{DurableEngine, StoreOptions, Wal, WalReader};
use disc_replicate::{Follower, FollowerOptions};
use disc_serve::json::{self, Json};
use disc_serve::server::{EngineBackend, Server, ServerConfig, ServerHandle};

use crate::calibrate::{self, Calibrator};
use crate::inputs::{self, Input};
use crate::measure::{self, median, ms, percentile, ratio, secs, Outcome};
use crate::trace::Tracer;
use crate::Args;

const ACKS: usize = 500;
const BATCH: usize = 8;
const SHARDS: usize = 2;
/// How often the reader looks for a new ack.
const READ_POLL: Duration = Duration::from_micros(100);
/// Acks between calibration samples.
const CAL_EVERY: usize = 16;
/// Within-cluster spread: dense clusters keep saving a small share of
/// each ack.
const SPREAD: f64 = 0.5;
/// Inputs per run, served in turn.
const INPUTS: usize = 6;
/// Set-ups timed per run at least; their median is `setup_s`.
const MIN_SETUPS: usize = 9;
/// WAL frames replayed through `Wal::append_frame` in the traced run.
const APPEND_PROBES: usize = 200;
/// How long a published generation may lag the last ack.
const PUBLISH_WAIT: Duration = Duration::from_secs(30);

/// One input cut into the batches the writer sends.
struct Load {
    input: Input,
    batches: Vec<Vec<Vec<Value>>>,
    /// Batch `save_all` over all rows: what the served state must equal.
    repaired: Dataset,
}

pub fn run(args: &Args, scratch: &Path) -> Outcome {
    let n = ACKS * BATCH;
    let loads: Vec<Load> = inputs::generate_set(INPUTS, n, SPREAD, n / 200, 0, args.seed)
        .into_iter()
        .map(|input| {
            let repaired = inputs::batch_repair(&input);
            let batches = input.rows.chunks(BATCH).map(<[_]>::to_vec).collect();
            Load {
                input,
                batches,
                repaired,
            }
        })
        .collect();
    let mut out = Outcome::default();
    let dir = scratch.join("serve");
    if args.trace {
        traced(args, &loads[0].batches, &dir, &mut out);
    } else {
        timed(args, &loads, &dir, &mut out);
    }
    out
}

fn make_saver(schema: &Schema, blob: &[u8]) -> Result<Box<dyn Saver>, disc_core::Error> {
    EngineConfig::decode(blob)?.build_saver_for(schema)
}

/// One timed set-up of the leader, with the machine's speed around it.
struct Setup {
    wall: Duration,
    /// Time the setting-up thread spent on a CPU; the rest of the wall
    /// time it waited, mostly on disk syncs.
    cpu: Duration,
    cpu_factor: f64,
    disk_factor: f64,
}

impl Setup {
    /// Seconds on the reference machine: the on-CPU part converted with
    /// the CPU kernel's slowdown, the rest with the disk kernel's.
    fn converted(&self) -> f64 {
        secs(self.cpu) / self.cpu_factor
            + secs(self.wall.saturating_sub(self.cpu)) / self.disk_factor
    }

    fn cpu_share(&self) -> f64 {
        ratio(secs(self.cpu), secs(self.wall)).min(1.0)
    }
}

/// The program's set-up, timed: create the durable store under `dir`
/// and bind the server, after calibration samples of both kinds.
fn start_leader(cal: &mut Calibrator, dir: &Path) -> Result<(ServerHandle, Setup), String> {
    let mark = cal.mark();
    cal.take(calibrate::BURST);
    let disk_factor = calibrate::disk_factor(&dir.join("calibration"), 2)
        .map_err(|e| format!("disk calibration: {e}"))?;
    let cpu_factor = cal.since(mark);
    let cpu_before = calibrate::thread_cpu();
    let start = Instant::now();
    let store = DurableEngine::create_with_config(
        &dir.join("leader"),
        inputs::schema(),
        &inputs::engine_config(SHARDS),
        StoreOptions::default(),
    )
    .map_err(|e| format!("creating the leader store: {e}"))?;
    let handle = Server::start(EngineBackend::Durable(store), ServerConfig::default())
        .map_err(|e| format!("starting the server: {e}"))?;
    let wall = start.elapsed();
    let cpu = calibrate::thread_cpu().saturating_sub(cpu_before);
    let setup = Setup {
        wall,
        cpu,
        cpu_factor,
        disk_factor,
    };
    Ok((handle, setup))
}

/// What the writer connection saw.
#[derive(Default)]
struct Writer {
    /// Round trip of every acked ingest, in generation order.
    acks: Vec<(Instant, Duration)>,
    overloaded: u64,
    failed: u64,
    degraded: u64,
    save_attempts: u64,
    /// Calibration samples taken between acks.
    cal: Calibrator,
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |d, key| d.get(key))
}

/// Waits until the server is idle after `acks` acks: their last drain
/// has published its state and the reader has answered for the last
/// ack. False when that takes longer than `PUBLISH_WAIT`.
fn await_idle(server: &ServerHandle, acks: usize, answered: &AtomicUsize) -> bool {
    let deadline = Instant::now() + PUBLISH_WAIT;
    while server.snapshot().generation < acks as u64 || answered.load(Ordering::SeqCst) < acks {
        if Instant::now() > deadline {
            return false;
        }
        thread::sleep(READ_POLL);
    }
    true
}

/// Sends every batch in order over one connection, each after the
/// previous ack (closed loop). Every `CAL_EVERY` acks it waits until the
/// server is idle and takes a calibration sample, so the sample shares
/// the machine with nothing of the program's.
fn write_all(
    out: &mut Vec<String>,
    server: &ServerHandle,
    batches: &[Vec<Vec<Value>>],
    acked: &AtomicUsize,
    answered: &AtomicUsize,
) -> Writer {
    let mut w = Writer::default();
    let mut client = match ServeClient::connect(&server.addr().to_string()) {
        Ok(c) => c,
        Err(e) => {
            out.push(format!("writer cannot connect: {e}"));
            return w;
        }
    };
    for (k, batch) in batches.iter().enumerate() {
        if k % CAL_EVERY == 0 {
            if !await_idle(server, k, answered) {
                out.push(format!(
                    "the server was still busy {PUBLISH_WAIT:?} after ack {k}"
                ));
                break;
            }
            w.cal.take(1);
        }
        let line = ingest_line(batch);
        let start = Instant::now();
        let response = client.request(&line);
        let took = start.elapsed();
        let doc = match response.as_deref().map(json::parse) {
            Ok(Ok(doc)) => doc,
            other => {
                out.push(format!("ingest answered {other:?}"));
                w.failed += 1;
                break;
            }
        };
        if doc.get("ok") != Some(&Json::Bool(true)) {
            let kind = field(&doc, &["error", "kind"]).and_then(Json::as_str);
            if kind == Some("overloaded") {
                w.overloaded += 1;
            } else {
                w.failed += 1;
            }
            out.push(format!(
                "ingest refused ({kind:?}); the acked sequence stops here"
            ));
            break;
        }
        let generation = doc.get("generation").and_then(Json::as_u64);
        if generation != Some(w.acks.len() as u64 + 1) {
            out.push(format!(
                "ack {} named generation {generation:?}",
                w.acks.len() + 1
            ));
        }
        let count = |k: &str| {
            field(&doc, &["report", k])
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        w.save_attempts += count("outliers");
        w.degraded += u64::from(field(&doc, &["report", "degraded"]) == Some(&Json::Bool(true)));
        w.acks.push((start, took));
        acked.fetch_add(1, Ordering::SeqCst);
    }
    w
}

/// What the reader connection saw.
#[derive(Default)]
struct Reader {
    reads: Vec<(Instant, Duration)>,
    failed: u64,
}

/// After every ack the writer counts, sends a `report` and then a
/// `query` of a row the report says is published, then stores the acks
/// it has answered for in `answered`; stops at `done`.
fn read_until(
    addr: &str,
    acked: &AtomicUsize,
    answered: &AtomicUsize,
    done: &AtomicBool,
) -> Reader {
    let mut r = Reader::default();
    let Ok(mut client) = ServeClient::connect(addr) else {
        r.failed += 1;
        // Nothing left to wait for.
        answered.store(usize::MAX, Ordering::SeqCst);
        return r;
    };
    let (mut seen, mut rows, mut k) = (0, 0u64, 0u64);
    while !done.load(Ordering::SeqCst) {
        let now = acked.load(Ordering::SeqCst);
        if now == seen {
            thread::sleep(READ_POLL);
            continue;
        }
        seen = now;
        for query in [false, true] {
            let line = if query && rows > 0 {
                k += 1;
                format!(r#"{{"op":"query","row":{}}}"#, (k * 7919) % rows)
            } else {
                r#"{"op":"report"}"#.to_string()
            };
            let start = Instant::now();
            let response = client.request(&line);
            let took = start.elapsed();
            match response.as_deref().map(json::parse) {
                Ok(Ok(doc)) if doc.get("ok") == Some(&Json::Bool(true)) => {
                    if let Some(n) = doc.get("rows").and_then(Json::as_u64) {
                        rows = n;
                    }
                    r.reads.push((start, took));
                }
                _ => r.failed += 1,
            }
        }
        answered.store(seen, Ordering::SeqCst);
    }
    r
}

/// Server-side ingest latency from the `stats` verb's log₂ histogram:
/// the interpolated median and the exact mean, in µs.
fn server_ingest_us(addr: &str) -> Result<(f64, f64), String> {
    let line = ServeClient::connect(addr)
        .and_then(|mut c| c.request(r#"{"op":"stats"}"#))
        .map_err(|e| format!("stats: {e}"))?;
    let doc = json::parse(&line).map_err(|e| format!("stats: {e}"))?;
    let ingest =
        field(&doc, &["latency_micros", "ingest"]).ok_or("stats carries no ingest latency")?;
    let pairs: Vec<(u64, u64)> = ingest
        .get("buckets")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|b| {
            let pair = b.as_array()?;
            Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
        })
        .collect();
    let total = |k: &str| ingest.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    Ok((
        measure::bucket_median(&pairs),
        ratio(total("sum"), total("count")),
    ))
}

/// A running leader that is shut down and joined however the cycle
/// ends, so an early error leaves no server threads behind.
struct Running(Option<ServerHandle>);

impl Running {
    fn handle(&self) -> &ServerHandle {
        self.0
            .as_ref()
            .expect("the leader runs until it is stopped")
    }

    /// Requests shutdown and waits for the drain and final checkpoint.
    fn stop(&mut self) -> Option<disc_serve::server::ShutdownReport> {
        let handle = self.0.take()?;
        handle.request_shutdown();
        Some(handle.wait())
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A follower's bootstrap and catch-up over the leader's whole WAL.
struct CatchUp {
    bootstrap: (Instant, Duration),
    polls: Vec<(Instant, Duration)>,
    took: Duration,
    delta: Snapshot,
    /// Slowdown against the reference machine around the catch-up.
    factor: f64,
}

/// The reopen of the dropped follower store, replaying its WAL.
struct Reopen {
    took: (Instant, Duration),
    factor: f64,
    replayed_rows: u64,
}

/// One leader lifetime, optionally followed by a replica's catch-up
/// and reopen.
struct Cycle {
    setup: Setup,
    writer: Writer,
    reader: Reader,
    acked_rows: usize,
    leader: Arc<EngineState>,
    /// Server-side ingest latency, median and mean, in µs.
    server_ingest_us: (f64, f64),
    load_delta: Snapshot,
    fanout: Vec<(u64, u64)>,
    shutdown: (Instant, Duration),
    snapshot_bytes: u64,
    replica: Option<(CatchUp, Reopen)>,
}

fn cycle(
    out: &mut Outcome,
    cal: &mut Calibrator,
    batches: &[Vec<Vec<Value>>],
    dir: &Path,
    with_replica: bool,
) -> Result<Cycle, String> {
    let leader_dir = dir.join("leader");
    let follower_dir = dir.join("follower");
    let _ = std::fs::remove_dir_all(dir);

    let (handle, setup) = start_leader(cal, dir)?;
    let mut server = Running(Some(handle));
    let addr = server.handle().addr().to_string();

    let load_before = Snapshot::take();
    let fanout_before = SHARD_FANOUT_MICROS.snapshot();
    let done = AtomicBool::new(false);
    let acked = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let mut notes = Vec::new();
    let (writer, reader) = thread::scope(|s| {
        let reader = s.spawn(|| read_until(&addr, &acked, &answered, &done));
        let writer = write_all(&mut notes, server.handle(), batches, &acked, &answered);
        done.store(true, Ordering::SeqCst);
        (writer, reader.join().expect("reader thread panicked"))
    });
    let load_delta = Snapshot::take().delta_since(&load_before);
    let fanout = measure::hist_delta(&fanout_before, &SHARD_FANOUT_MICROS.snapshot());
    out.problems.extend(notes);
    let acked = writer.acks.len();
    let acked_rows: usize = batches[..acked].iter().map(Vec::len).sum();
    out.attempted += (acked as u64 + writer.overloaded + writer.failed)
        + (reader.reads.len() as u64 + reader.failed);
    out.failed += writer.overloaded + writer.failed + writer.degraded + reader.failed;
    measure::check_invariants(out, "serve load", &load_delta, writer.save_attempts);
    let server_ingest_us = server_ingest_us(&addr)?;

    // Acks precede publication: wait for the last acked generation.
    let deadline = Instant::now() + PUBLISH_WAIT;
    while server.handle().snapshot().generation < acked as u64 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    let leader = server.handle().snapshot();
    out.check(leader.generation == acked as u64, || {
        format!(
            "leader publishes generation {} after {acked} acks",
            leader.generation
        )
    });
    let sent: Vec<Vec<Value>> = batches[..acked].concat();
    out.check(inputs::bit_equal(&leader.original, &sent), || {
        "the leader holds other rows than the rows acked".into()
    });

    let catch_up = if with_replica {
        Some(catch_up(out, cal, &addr, &follower_dir, &leader)?)
    } else {
        None
    };

    let start = Instant::now();
    let report = server.stop().expect("the leader was still running");
    let shutdown = (start, start.elapsed());
    out.check(report.close_error.is_none(), || {
        format!("leader close failed: {:?}", report.close_error)
    });
    out.check(report.state == *leader, || {
        "the leader's final state differs from its last published one".into()
    });
    let snapshot_bytes = std::fs::metadata(leader_dir.join("engine.snap")).map_or(0, |m| m.len());

    let replica = match catch_up {
        Some(c) => Some((c, reopen(out, cal, &follower_dir, &leader)?)),
        None => None,
    };
    Ok(Cycle {
        setup,
        writer,
        reader,
        acked_rows,
        leader,
        server_ingest_us,
        load_delta,
        fanout,
        shutdown,
        snapshot_bytes,
        replica,
    })
}

/// Bootstraps a follower at generation 0 from the running leader and
/// catches it up to `leader`'s generation, then drops it unclosed.
fn catch_up(
    out: &mut Outcome,
    cal: &mut Calibrator,
    addr: &str,
    dir: &Path,
    leader: &EngineState,
) -> Result<CatchUp, String> {
    let mark = cal.mark();
    cal.take(calibrate::BURST);
    let before = Snapshot::take();
    let start = Instant::now();
    let mut follower = Follower::bootstrap(
        dir,
        addr.to_string(),
        Box::new(make_saver),
        FollowerOptions::default(),
    )
    .map_err(|e| format!("follower bootstrap: {e}"))?;
    let bootstrap = (start, start.elapsed());
    let mut polls = Vec::new();
    while follower.generation() < leader.generation {
        let poll = Instant::now();
        follower
            .catch_up_once()
            .map_err(|e| format!("follower catch-up: {e}"))?;
        polls.push((poll, poll.elapsed()));
    }
    let took = start.elapsed();
    let delta = Snapshot::take().delta_since(&before);
    cal.take(calibrate::BURST);
    out.check(follower.state() == *leader, || {
        format!(
            "the follower differs from the leader at generation {}",
            leader.generation
        )
    });
    let applied = delta.get("repl.frames_applied");
    out.check(applied == leader.generation, || {
        format!(
            "repl.frames_applied = {applied}, but {} ingests were acked",
            leader.generation
        )
    });
    let installed = delta.get("repl.snapshots_installed");
    out.check(installed == 1, || {
        format!("the follower installed {installed} snapshots, expected only the bootstrap")
    });
    Ok(CatchUp {
        bootstrap,
        polls,
        took,
        delta,
        factor: cal.since(mark),
    })
}

/// Reopens the follower store, which replays its whole WAL, and checks
/// it against the leader.
fn reopen(
    out: &mut Outcome,
    cal: &mut Calibrator,
    dir: &Path,
    leader: &EngineState,
) -> Result<Reopen, String> {
    let mark = cal.mark();
    cal.take(calibrate::BURST);
    let start = Instant::now();
    let (store, recovery) = DurableEngine::open(dir, make_saver, StoreOptions::default())
        .map_err(|e| format!("reopening the follower store: {e}"))?;
    let took = (start, start.elapsed());
    cal.take(calibrate::BURST);
    out.check(store.engine().export_state() == *leader, || {
        "the reopened follower store differs from the leader".into()
    });
    out.check(recovery.replayed_records == leader.generation, || {
        format!(
            "reopen replayed {} WAL records, expected {}",
            recovery.replayed_records, leader.generation
        )
    });
    Ok(Reopen {
        took,
        factor: cal.since(mark),
        replayed_rows: recovery.replayed_rows,
    })
}

fn timed(args: &Args, loads: &[Load], dir: &Path, out: &mut Outcome) {
    let mut cal = Calibrator::default();
    let started = Instant::now();
    let mut cycles = Vec::new();
    while cycles.is_empty() || started.elapsed() < args.seconds {
        let load = &loads[cycles.len() % loads.len()];
        // Only the first cycle replicates: later ones spend the run on
        // more load, the figures the bounds gate.
        match cycle(out, &mut cal, &load.batches, dir, cycles.is_empty()) {
            Ok(c) => {
                out.check(
                    inputs::bit_equal(&c.leader.current, load.repaired.rows()),
                    || "the served state differs from batch save_all over the acked rows".into(),
                );
                cycles.push(c);
            }
            Err(e) => return out.problems.push(e),
        }
    }
    let peak = measure::peak_rss_mb();
    let mut setups: Vec<&Setup> = cycles.iter().map(|c| &c.setup).collect();
    let mut extra = Vec::new();
    while setups.len() + extra.len() < MIN_SETUPS {
        let _ = std::fs::remove_dir_all(dir);
        match start_leader(&mut cal, dir) {
            Ok((handle, setup)) => {
                extra.push(setup);
                Running(Some(handle)).stop();
            }
            Err(e) => return out.problems.push(e),
        }
    }
    setups.extend(&extra);
    // Each ack is converted with the writer's samples on either side of
    // its window of `CAL_EVERY` acks; reads, which ran alongside, with
    // all of that cycle's writer samples; the other steps with the
    // samples taken around them.
    let ack = |f: fn(f64, f64) -> f64| -> Vec<f64> {
        cycles
            .iter()
            .flat_map(|c| {
                c.writer.acks.iter().enumerate().map(move |(k, &(_, d))| {
                    let window = k / CAL_EVERY;
                    f(ms(d), c.writer.cal.between(window, window + 2))
                })
            })
            .collect()
    };
    let (ack_ms, raw_ack_ms) = (ack(|t, f| t / f), ack(|t, _| t));
    let read_ms: Vec<f64> = cycles
        .iter()
        .flat_map(|c| {
            let factor = c.writer.cal.overall();
            c.reader.reads.iter().map(move |&(_, d)| ms(d) / factor)
        })
        .collect();
    let rows = cycles.iter().map(|c| c.acked_rows).sum::<usize>() as f64;
    let replicas: Vec<(usize, &CatchUp, &Reopen)> = cycles
        .iter()
        .filter_map(|c| c.replica.as_ref().map(|(u, r)| (c.acked_rows, u, r)))
        .collect();
    let replicated_rows = replicas.iter().map(|r| r.0).sum::<usize>() as f64;
    let catchup_s: f64 = replicas.iter().map(|r| secs(r.1.took) / r.1.factor).sum();
    let recover: Vec<f64> = replicas
        .iter()
        .map(|r| secs(r.2.took.1) / r.2.factor)
        .collect();
    let setup_s: Vec<f64> = setups.iter().map(|s| s.converted()).collect();
    let raw_setup_s: Vec<f64> = setups.iter().map(|s| secs(s.wall)).collect();
    let cpu_share: Vec<f64> = setups.iter().map(|s| s.cpu_share()).collect();
    out.put("setup_s", median(&setup_s), "s");
    out.put(
        "rows_per_s",
        rows * 1e3 / ack_ms.iter().sum::<f64>(),
        "rows/s",
    );
    out.put("op_p50_ms", median(&ack_ms), "ms");
    out.put("op_p95_ms", percentile(&ack_ms, 95.0), "ms");
    out.put("op_samples", ack_ms.len() as f64, "count");
    out.put(
        "op_beyond_p95",
        measure::beyond(&ack_ms, 95.0) as f64,
        "count",
    );
    let f1: f64 = loads
        .iter()
        .map(|l| inputs::cluster_f1(l.repaired.rows(), &l.input.labels))
        .sum();
    out.put("cluster_f1", f1 / loads.len() as f64, "ratio");
    out.put("peak_rss_mb", peak, "MB");
    out.put("read_p50_ms", median(&read_ms), "ms");
    out.put("read_p95_ms", percentile(&read_ms, 95.0), "ms");
    out.put("read_samples", read_ms.len() as f64, "count");
    out.put("catchup_rows_per_s", replicated_rows / catchup_s, "rows/s");
    out.put("recover_s", median(&recover), "s");
    out.put("raw.setup_s", median(&raw_setup_s), "s");
    out.put("setup_cpu_share", median(&cpu_share), "ratio");
    out.put(
        "raw.rows_per_s",
        rows * 1e3 / raw_ack_ms.iter().sum::<f64>(),
        "rows/s",
    );
    out.put("raw.op_p50_ms", median(&raw_ack_ms), "ms");
    out.put("raw.op_p95_ms", percentile(&raw_ack_ms, 95.0), "ms");
    out.put("calibration.slowdown", cal.overall(), "ratio");
    out.put("cycles", cycles.len() as f64, "count");
}

/// Feeds the acked batches through a direct `DurableEngine::ingest` and
/// splits each ack: engine time from the report's stage timers, persist
/// time the rest of the call, serve time the ack round trip minus the
/// whole call (the shadow call is recorded as a child of its ack span).
struct Shadow {
    detect: Duration,
    rset: Duration,
    save: Duration,
    resaves: u64,
    changed: u64,
    export_ms: Vec<f64>,
}

fn shadow(
    tracer: &mut Tracer,
    ack_spans: &[usize],
    batches: &[Vec<Vec<Value>>],
    dir: &Path,
) -> Result<Shadow, String> {
    let mut store = DurableEngine::create_with_config(
        dir,
        inputs::schema(),
        &inputs::engine_config(SHARDS),
        StoreOptions::default(),
    )
    .map_err(|e| format!("creating the shadow store: {e}"))?;
    let mut s = Shadow {
        detect: Duration::ZERO,
        rset: Duration::ZERO,
        save: Duration::ZERO,
        resaves: 0,
        changed: 0,
        export_ms: Vec::new(),
    };
    let mut previous: Vec<Vec<Value>> = Vec::new();
    for (k, (batch, &ack)) in batches.iter().zip(ack_spans).enumerate() {
        let op = k as u64 + 1;
        let first_new = store.engine().len();
        let start = Instant::now();
        let report = store
            .ingest(batch.clone())
            .map_err(|e| format!("shadow ingest {op}: {e}"))?;
        let end = Instant::now();
        let stages = report.stats.stages;
        let call = tracer.span("persist.shadow_ingest", op, Some(ack), start, end);
        let engine_start = end.checked_sub(stages.total).unwrap_or(start).max(start);
        let engine = tracer.span("engine.ingest", op, Some(call), engine_start, end);
        tracer.stages(engine, op, engine_start, &stages, "engine.detect");
        s.detect += stages.detect;
        s.rset += stages.rset_build;
        s.save += stages.save;
        let now = store.engine().dataset().rows();
        for &row in report.outliers.iter().filter(|&&r| r < first_new) {
            s.resaves += 1;
            s.changed += u64::from(!inputs::bit_equal(&previous[row..=row], &now[row..=row]));
        }
        let start = Instant::now();
        let state = store.engine().export_state();
        let end = Instant::now();
        tracer.span("engine.export_state", op, None, start, end);
        s.export_ms.push(ms(end - start));
        previous = state.current;
    }
    Ok(s)
}

/// Times `Wal::append_frame` replaying the run's own WAL frames (read
/// back from the follower's log) into a scratch log.
fn append_probe(tracer: &mut Tracer, wal: &Path, dir: &Path) -> Result<f64, String> {
    let bytes = std::fs::read(wal).map_err(|e| format!("reading {}: {e}", wal.display()))?;
    let mut reader = WalReader::new(&bytes)?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut log = Wal::create(&dir.join("engine.wal")).map_err(|e| e.to_string())?;
    let mut micros = Vec::new();
    while let Some(frame) = reader.next_frame()? {
        if micros.len() == APPEND_PROBES {
            break;
        }
        let start = Instant::now();
        log.append_frame(&frame).map_err(|e| e.to_string())?;
        let end = Instant::now();
        tracer.span("persist.append_frame", frame.generation, None, start, end);
        micros.push((end - start).as_secs_f64() * 1e6);
    }
    Ok(median(&micros))
}

fn traced(args: &Args, batches: &[Vec<Vec<Value>>], dir: &Path, out: &mut Outcome) {
    let mut cal = Calibrator::default();
    let mut tracer = Tracer::new();
    let started = Instant::now();
    let mut units = 0usize;
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut shadows = Vec::new();
    let mut last = None;
    let mut append_us = 0.0;
    while units == 0 || started.elapsed() < args.seconds {
        // An untraced cycle, then a traced one timed whole with its span
        // recording: the tracing overhead compares the two. The WAL
        // append and shadow replay probes run outside both.
        let start = Instant::now();
        let plain = cycle(out, &mut cal, batches, dir, true);
        plain_s.push(secs(start.elapsed()));
        if let Err(e) = plain {
            return out.problems.push(e);
        }
        let start = Instant::now();
        let c = match cycle(out, &mut cal, batches, dir, true) {
            Ok(c) => c,
            Err(e) => return out.problems.push(e),
        };
        let Some((catch_up, reopen)) = &c.replica else {
            unreachable!("traced cycles replicate");
        };
        // Op ids: the cycle's own id, then one per ack (its generation).
        let base = (units * (ACKS + 1)) as u64;
        let span = |tracer: &mut Tracer, name, op, (start, took): (Instant, Duration)| {
            tracer.span(name, op, None, start, start + took)
        };
        let acks: Vec<usize> = c
            .writer
            .acks
            .iter()
            .enumerate()
            .map(|(k, &ack)| span(&mut tracer, "serve.ack", base + k as u64 + 1, ack))
            .collect();
        span(&mut tracer, "repl.bootstrap", base, catch_up.bootstrap);
        for &poll in &catch_up.polls {
            span(&mut tracer, "repl.catch_up_once", base, poll);
        }
        span(&mut tracer, "serve.shutdown", base, c.shutdown);
        span(&mut tracer, "persist.open", base, reopen.took);
        traced_s.push(secs(start.elapsed()));
        if units == 0 {
            let wal = dir.join("follower").join("engine.wal");
            match append_probe(&mut tracer, &wal, &dir.join("append")) {
                Ok(us) => append_us = us,
                Err(e) => return out.problems.push(e),
            }
        }
        match shadow(
            &mut tracer,
            &acks,
            &batches[..acks.len()],
            &dir.join("shadow"),
        ) {
            Ok(s) => shadows.push(s),
            Err(e) => return out.problems.push(e),
        }
        units += 1;
        last = Some(c);
    }
    let Some(c) = last else {
        return;
    };
    let Some((catch_up, reopen)) = &c.replica else {
        unreachable!("traced cycles replicate");
    };
    let per =
        |f: fn(&Shadow) -> Duration| shadows.iter().map(|s| secs(f(s))).sum::<f64>() / units as f64;
    let d = &c.load_delta;
    let acks = c.writer.acks.len() as f64;
    let rows = c.acked_rows as f64;
    measure::kernel_index_saver(out, d, c.writer.save_attempts);
    measure::engine_counts(out, d);
    out.put("saver.save_s", per(|s| s.save), "s");
    out.put("saver.rset_build_s", per(|s| s.rset), "s");
    out.put("engine.detect_s", per(|s| s.detect), "s");
    let (resaves, changed) = shadows
        .iter()
        .fold((0, 0), |(r, c), s| (r + s.resaves, c + s.changed));
    out.put(
        "engine.resave_changed_ratio",
        ratio(changed as f64, resaves as f64),
        "ratio",
    );
    let export_ms: Vec<f64> = shadows
        .iter()
        .flat_map(|s| s.export_ms.iter().copied())
        .collect();
    out.put("engine.export_state_ms", median(&export_ms), "ms");
    out.put(
        "shard.fanout_us_p50",
        measure::bucket_median(&c.fanout),
        "us",
    );
    out.put(
        "persist.wal_bytes_per_row",
        ratio(d.get("persist.wal.bytes_written") as f64, rows),
        "B",
    );
    out.put(
        "persist.fsyncs_per_ack",
        ratio(d.get("persist.wal.fsyncs") as f64, acks),
        "count",
    );
    out.put("persist.append_us_p50", append_us, "us");
    out.put(
        "persist.replay_rows_per_s",
        ratio(reopen.replayed_rows as f64, secs(reopen.took.1)),
        "rows/s",
    );
    out.put("persist.snapshot_bytes", c.snapshot_bytes as f64, "B");
    let ack_ms: Vec<f64> = c.writer.acks.iter().map(|&(_, d)| ms(d)).collect();
    let (server_p50, server_mean) = c.server_ingest_us;
    out.put("serve.server_ingest_us_p50", server_p50, "us");
    out.put(
        "serve.wire_ms_mean",
        ack_ms.iter().sum::<f64>() / acks - server_mean / 1e3,
        "ms",
    );
    out.put("serve.shutdown_s", secs(c.shutdown.1), "s");
    out.put(
        "serve.overloaded_ratio",
        ratio(
            c.writer.overloaded as f64,
            acks + (c.writer.overloaded + c.writer.failed) as f64,
        ),
        "ratio",
    );
    let r = &catch_up.delta;
    let frames = r.get("repl.frames_applied") as f64;
    out.put(
        "repl.frames_per_poll",
        ratio(frames, (catch_up.polls.len() + 1) as f64),
        "frames",
    );
    out.put(
        "repl.apply_us_per_frame",
        ratio(secs(catch_up.took) * 1e6, frames),
        "us",
    );
    out.put(
        "repl.bytes_shipped_per_row",
        ratio(r.get("repl.bytes_shipped") as f64, rows),
        "B",
    );
    out.put(
        "repl.snapshots_installed",
        r.get("repl.snapshots_installed") as f64,
        "count",
    );
    measure::put_self_times(out, &tracer, units);
    out.put(
        "trace.overhead_pct",
        measure::overhead_pct(&traced_s, &plain_s),
        "%",
    );
    out.tracer = Some(tracer);
}
