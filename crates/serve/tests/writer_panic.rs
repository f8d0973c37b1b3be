//! A writer that panics mid-ingest fails loudly and fast, never hangs.
//!
//! Compiled under `--cfg disc_fault` only. A durable server acks three
//! batches; then the ingest that becomes generation 4 panics after its
//! phase 1, with two more jobs queued behind it (the writer throttle
//! holds them). All three get the typed `internal` error within a time
//! bound, reads keep answering generation 3 until the server exits, and
//! `wait` names the failure. The store was not checkpointed: a reopen
//! replays its log, which holds every acked batch and the batch that hit
//! the panic (logged before it was applied).
#![cfg(disc_fault)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use disc_core::fault::{self, FaultPlan};
use disc_core::{DiscEngine, DistanceConstraints, Saver, SaverConfig};
use disc_data::Schema;
use disc_distance::{TupleDistance, Value};
use disc_persist::{DurableEngine, StoreOptions};
use disc_serve::{EngineBackend, IngestError, Server, ServerConfig};

fn saver() -> Box<dyn Saver> {
    Box::new(
        SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap(),
    )
}

fn make_saver(_schema: &Schema, _config: &[u8]) -> Result<Box<dyn Saver>, disc_core::Error> {
    Ok(saver())
}

/// Batch `k`: four rows near `(k/10, k/10)`.
fn batch(k: u32) -> Vec<Vec<Value>> {
    (0..4)
        .map(|i| {
            let x = f64::from(k) / 10.0 + f64::from(i) * 0.05;
            vec![Value::Num(x), Value::Num(x)]
        })
        .collect()
}

/// One request line on `conn`, its response line back.
fn request(conn: &mut BufReader<TcpStream>, line: &str) -> String {
    let out = conn.get_mut();
    out.write_all(line.as_bytes()).unwrap();
    out.write_all(b"\n").unwrap();
    let mut reply = String::new();
    conn.read_line(&mut reply).unwrap();
    reply
}

#[test]
fn a_writer_panic_answers_every_queued_job_and_keeps_reads() {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "disc_serve_writer_panic/store-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DurableEngine::create(
        &dir,
        Schema::numeric(2),
        saver(),
        Vec::new(),
        StoreOptions::default(),
    )
    .unwrap();
    // The throttle holds each drain's jobs queued for 300 ms, so the
    // three jobs sent together are queued when the first one panics. The
    // long poll keeps the reader connection open across the failure.
    let config = ServerConfig {
        writer_throttle: Some(Duration::from_millis(300)),
        poll_interval: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let handle = Server::start(EngineBackend::Durable(store), config).unwrap();
    for k in 1..=3 {
        assert_eq!(handle.ingest(batch(k)).unwrap().generation, u64::from(k));
    }
    let mut conn = BufReader::new(TcpStream::connect(handle.addr()).unwrap());
    assert!(request(&mut conn, r#"{"op":"report"}"#).contains("\"ok\":true"));

    // Three jobs of one batch, so whichever is admitted first becomes
    // generation 4 and hits the panic.
    let started = Instant::now();
    let (outcomes, fired) = fault::scoped(FaultPlan::new().panic_in_ingest(4), || {
        std::thread::scope(|s| {
            let jobs: Vec<_> = (0..3)
                .map(|_| s.spawn(|| handle.ingest(batch(4)).map(|ack| ack.generation)))
                .collect();
            jobs.into_iter()
                .map(|job| job.join().unwrap())
                .collect::<Vec<Result<u64, IngestError>>>()
        })
    });
    assert!(fired, "the ingest of generation 4 panicked");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the queued jobs waited {:?}",
        started.elapsed()
    );
    for outcome in &outcomes {
        let err = outcome.as_ref().unwrap_err();
        assert_eq!(err.kind, "internal", "{err:?}");
        assert!(err.message.contains("generation 4"), "{}", err.message);
    }

    // Reads still answer from the last published view.
    let reply = request(&mut conn, r#"{"op":"query","row":0}"#);
    assert!(reply.contains("\"generation\":3"), "{reply}");
    assert_eq!(handle.snapshot().generation, 3);
    let refused = handle.ingest(batch(5)).unwrap_err();
    assert_eq!(refused.kind, "shutting_down");

    let report = handle.wait();
    let failure = report.failure.expect("wait names the failure");
    assert!(failure.contains("injected fault"), "{failure}");
    assert_eq!((report.generation, report.close_error), (3, None));

    // The final state is the last published one, generation 3; the log
    // holds acks 1-3 and the failed batch, so a reopen replays all four,
    // bit-equal to a serial run of them.
    let mut reference = DiscEngine::new(Schema::numeric(2), saver());
    for k in 1..=3 {
        reference.ingest(batch(k)).unwrap();
    }
    assert_eq!(report.state, reference.export_state());
    reference.ingest(batch(4)).unwrap();
    let (reopened, recovery) =
        DurableEngine::open(&dir, make_saver, StoreOptions::default()).unwrap();
    assert_eq!(recovery.generation, 4);
    assert_eq!(reopened.engine().export_state(), reference.export_state());
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
