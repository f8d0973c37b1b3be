//! The loom-free concurrency battery: N client threads with randomized
//! ingest/read interleavings against one server, checked against a
//! serial reference replay.
//!
//! The server's contract is that concurrency changes *scheduling*, never
//! *results*: every acknowledged batch got its own generation, so
//! replaying the acked batches serially — sorted by acknowledged
//! generation — into a fresh engine must land on a state (and per-batch
//! `SaveReport`s) bit-equal to what the server produced under any
//! thread interleaving.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Barrier, Mutex};
use std::time::Duration;

use disc_core::{DiscEngine, DistanceConstraints, Query, Response, SaveReport, Saver, SaverConfig};
use disc_data::Schema;
use disc_distance::{TupleDistance, Value};
use disc_obs::Snapshot;
use disc_serve::{json, EngineBackend, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn saver() -> Box<dyn Saver> {
    Box::new(
        SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap(),
    )
}

fn memory_backend() -> EngineBackend {
    EngineBackend::Memory(DiscEngine::new(Schema::numeric(2), saver()))
}

/// A deterministic per-client batch: a handful of grid-ish points plus
/// the occasional far outlier, all finite so every batch is valid.
fn batch_for(client: usize, round: usize, rng: &mut StdRng) -> Vec<Vec<Value>> {
    let size = rng.random_range(1..5usize);
    (0..size)
        .map(|k| {
            if rng.random_range(0..8u32) == 0 {
                vec![
                    Value::Num(40.0 + (client * 10 + round) as f64),
                    Value::Num(40.0),
                ]
            } else {
                let i = rng.random_range(0..6u32);
                let j = rng.random_range(0..6u32);
                let _ = k;
                vec![Value::Num(0.2 * i as f64), Value::Num(0.2 * j as f64)]
            }
        })
        .collect()
}

/// Replay acked `(generation, rows)` batches serially, in generation
/// order, into a fresh engine; returns the engine and per-generation
/// reports.
fn serial_replay(mut acked: Vec<(u64, Vec<Vec<Value>>)>) -> (DiscEngine, Vec<(u64, SaveReport)>) {
    acked.sort_by_key(|(generation, _)| *generation);
    let mut engine = DiscEngine::new(Schema::numeric(2), saver());
    let mut reports = Vec::new();
    for (generation, rows) in acked {
        assert_eq!(
            generation,
            engine.generation() + 1,
            "acked generations must be gapless"
        );
        let report = engine.ingest(rows).expect("replay of an acked batch");
        reports.push((generation, report));
    }
    (engine, reports)
}

#[test]
fn concurrent_ingest_is_bit_equal_to_serial_replay() {
    let handle = Server::start(memory_backend(), ServerConfig::default()).unwrap();
    let clients = 6usize;
    let rounds = 8usize;
    let acked: Mutex<Vec<(u64, Vec<Vec<Value>>)>> = Mutex::new(Vec::new());
    let reports: Mutex<Vec<(u64, SaveReport)>> = Mutex::new(Vec::new());
    let barrier = Barrier::new(clients);

    std::thread::scope(|scope| {
        for client in 0..clients {
            let handle = &handle;
            let acked = &acked;
            let reports = &reports;
            let barrier = &barrier;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(42 + client as u64);
                barrier.wait();
                for round in 0..rounds {
                    let rows = batch_for(client, round, &mut rng);
                    let ack = handle.ingest(rows.clone()).expect("admitted ingest");
                    acked.lock().unwrap().push((ack.generation, rows));
                    reports.lock().unwrap().push((ack.generation, ack.report));
                    // Interleave reads from the published snapshot; they
                    // must never block or observe a torn state.
                    let snap = handle.snapshot();
                    assert_eq!(snap.original.len(), snap.current.len());
                    if rng.random_range(0..2u32) == 0 {
                        std::thread::sleep(Duration::from_micros(rng.random_range(0..500u64)));
                    }
                }
            });
        }
    });

    handle.request_shutdown();
    let shutdown = handle.wait();
    assert!(shutdown.close_error.is_none());

    let acked = acked.into_inner().unwrap();
    assert_eq!(acked.len(), clients * rounds, "every ingest was admitted");
    let (reference, serial_reports) = serial_replay(acked);
    assert_eq!(
        shutdown.state,
        reference.export_state(),
        "server state must be bit-equal to the serial replay"
    );
    assert_eq!(shutdown.generation, (clients * rounds) as u64);

    // Per-batch reports are bit-equal too (PR 4's equivalence contract,
    // extended to concurrent admission).
    let mut live = reports.into_inner().unwrap();
    live.sort_by_key(|(generation, _)| *generation);
    assert_eq!(live.len(), serial_reports.len());
    for ((g_live, r_live), (g_serial, r_serial)) in live.iter().zip(&serial_reports) {
        assert_eq!(g_live, g_serial);
        assert_eq!(r_live, r_serial, "report for generation {g_live} diverged");
    }
}

#[test]
fn tcp_protocol_round_trip() {
    let handle = Server::start(memory_backend(), ServerConfig::default()).unwrap();
    let addr = handle.addr();

    let send = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str| {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        json::parse(response.trim()).expect("response is valid JSON")
    };

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Ingest a grid plus one far outlier, then read it back.
    let mut rows = String::from("[");
    for i in 0..6 {
        for j in 0..6 {
            if i + j > 0 {
                rows.push(',');
            }
            rows.push_str(&format!("[{},{}]", 0.2 * i as f64, 0.2 * j as f64));
        }
    }
    rows.push_str(",[0.5,30]]");
    let ack = send(
        &mut stream,
        &mut reader,
        &format!(r#"{{"op":"ingest","rows":{rows}}}"#),
    );
    assert_eq!(ack.get("ok"), Some(&json::Json::Bool(true)));
    assert_eq!(ack.get("generation").unwrap().as_usize(), Some(1));
    assert_eq!(ack.get("rows").unwrap().as_usize(), Some(37));

    let report = send(&mut stream, &mut reader, r#"{"op":"report"}"#);
    assert_eq!(report.get("ok"), Some(&json::Json::Bool(true)));
    assert_eq!(report.get("rows").unwrap().as_usize(), Some(37));

    // The far row (index 36) was saved or flagged; query both ends.
    let q0 = send(&mut stream, &mut reader, r#"{"op":"query","row":0}"#);
    assert_eq!(q0.get("inlier"), Some(&json::Json::Bool(true)));
    let q_oob = send(&mut stream, &mut reader, r#"{"op":"query","row":99}"#);
    assert_eq!(q_oob.get("ok"), Some(&json::Json::Bool(false)));
    assert_eq!(
        q_oob.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("invalid")
    );

    let snapshot = send(&mut stream, &mut reader, r#"{"op":"snapshot"}"#);
    assert_eq!(snapshot.get("rows").unwrap().as_array().unwrap().len(), 37);

    let stats = send(&mut stream, &mut reader, r#"{"op":"stats"}"#);
    assert_eq!(stats.get("ok"), Some(&json::Json::Bool(true)));
    assert!(stats.get("latency_micros").is_some());
    assert!(stats.get("process").is_some());

    // Malformed lines get typed errors, and the connection survives.
    let bad = send(&mut stream, &mut reader, "this is not json");
    assert_eq!(
        bad.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("parse")
    );
    let unknown = send(&mut stream, &mut reader, r#"{"op":"dance"}"#);
    assert_eq!(
        unknown.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("invalid")
    );

    // Graceful shutdown over the wire.
    let bye = send(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok"), Some(&json::Json::Bool(true)));
    let shutdown = handle.wait();
    assert!(matches!(
        shutdown.state.query(Query::Len),
        Response::Len(37)
    ));
}

/// Newline framing: a 1 MiB request written in 8 KiB pieces, with pauses
/// longer than the poll interval inside it, is served whole, and
/// pipelined lines plus a partial tail are answered in order.
#[test]
fn long_split_and_pipelined_lines_are_framed_in_order() {
    let config = ServerConfig {
        poll_interval: Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let handle = Server::start(memory_backend(), config).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut next = || {
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        json::parse(response.trim()).expect("response is valid JSON")
    };
    let pause = || std::thread::sleep(Duration::from_millis(10));

    stream.write_all(br#"{"op":"rep"#).unwrap();
    pause();
    stream.write_all(br#"ort""#).unwrap();
    let blanks = [b' '; 8192];
    for i in 0..128 {
        stream.write_all(&blanks).unwrap();
        if i % 32 == 0 {
            pause();
        }
    }
    stream.write_all(b"}\n").unwrap();
    let report = next();
    assert_eq!(report.get("ok"), Some(&json::Json::Bool(true)));
    assert_eq!(report.get("rows").unwrap().as_usize(), Some(0));

    stream
        .write_all(b"{\"op\":\"query\",\"row\":0}\n\n{\"op\":\"stats\"}\n{\"op\":\"rep")
        .unwrap();
    pause();
    stream.write_all(b"ort\"}\n").unwrap();
    let query = next();
    assert_eq!(
        query.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("invalid"),
        "row 0 of an empty engine"
    );
    assert!(next().get("latency_micros").is_some(), "then stats");
    assert!(next().get("rows").is_some(), "then the report");

    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    assert_eq!(next().get("ok"), Some(&json::Json::Bool(true)));
    handle.wait();
}

#[test]
fn overload_returns_typed_response_and_counts_rejections() {
    // Capacity 1 plus a writer throttle holds the first job queued long
    // enough that the barrier-released rivals are refused.
    let config = ServerConfig {
        max_queue: 1,
        writer_throttle: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    };
    let handle = Server::start(memory_backend(), config).unwrap();
    let before = Snapshot::take();
    let clients = 4usize;
    let barrier = Barrier::new(clients);
    type Outcome = Result<(u64, Vec<Vec<Value>>), &'static str>;
    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for client in 0..clients {
            let handle = &handle;
            let barrier = &barrier;
            let outcomes = &outcomes;
            scope.spawn(move || {
                let rows = vec![vec![
                    Value::Num(0.1 * client as f64),
                    Value::Num(0.1 * client as f64),
                ]];
                barrier.wait();
                let outcome = match handle.ingest(rows.clone()) {
                    Ok(ack) => Ok((ack.generation, rows)),
                    Err(e) => {
                        assert_eq!(e.kind, "overloaded", "refusals must be typed: {e:?}");
                        Err(e.kind)
                    }
                };
                outcomes.lock().unwrap().push(outcome);
            });
        }
    });

    handle.request_shutdown();
    let shutdown = handle.wait();

    let outcomes = outcomes.into_inner().unwrap();
    let acked: Vec<(u64, Vec<Vec<Value>>)> =
        outcomes.iter().filter_map(|o| o.clone().ok()).collect();
    let rejected = outcomes.iter().filter(|o| o.is_err()).count();
    assert_eq!(acked.len() + rejected, clients);
    assert!(!acked.is_empty(), "at least one ingest is admitted");
    assert!(rejected >= 1, "capacity 1 must refuse concurrent rivals");

    // The rejected-request counter moved by exactly what the clients saw.
    let delta = Snapshot::take().delta_since(&before);
    assert!(
        delta.get("serve.rejected_overloaded") >= rejected as u64,
        "counter {} < rejected {rejected}",
        delta.get("serve.rejected_overloaded")
    );

    // Acknowledged writes were not dropped: the final state is the
    // serial replay of exactly the acked batches.
    let (reference, _) = serial_replay(acked);
    assert_eq!(shutdown.state, reference.export_state());
}

#[test]
fn shutdown_drains_admitted_jobs_and_refuses_new_ones() {
    let config = ServerConfig {
        max_queue: 16,
        writer_throttle: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    };
    let handle = Server::start(memory_backend(), config).unwrap();

    // Admit jobs from a background thread (each blocks for its ack),
    // then shut down while they are still queued behind the throttle.
    let results: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for i in 0..3u64 {
            let handle = &handle;
            let results = &results;
            scope.spawn(move || {
                let rows = vec![vec![Value::Num(i as f64), Value::Num(0.0)]];
                let ack = handle.ingest(rows).expect("admitted before shutdown");
                results.lock().unwrap().push(ack.generation);
            });
        }
        // Give the spawns a moment to enqueue, then close admission.
        std::thread::sleep(Duration::from_millis(30));
        handle.request_shutdown();
        // Post-shutdown ingests are refused with the typed kind.
        let late = handle.ingest(vec![vec![Value::Num(9.0), Value::Num(9.0)]]);
        assert_eq!(late.unwrap_err().kind, "shutting_down");
    });

    let shutdown = handle.wait();
    let mut generations = results.into_inner().unwrap();
    generations.sort_unstable();
    assert_eq!(
        generations,
        vec![1, 2, 3],
        "every admitted job is drained and acknowledged"
    );
    assert!(
        matches!(shutdown.state.query(Query::Len), Response::Len(3)),
        "the late batch was never applied"
    );
}
