//! Serving over the crash-safe backend: concurrent acknowledged ingests
//! must survive shutdown and reopen bit-equal, and the store lock must
//! keep a second writer out while the server runs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use disc_core::{DiscEngine, DistanceConstraints, Saver, SaverConfig};
use disc_data::Schema;
use disc_distance::{TupleDistance, Value};
use disc_persist::{DurableEngine, Error as PersistError, StoreOptions};
use disc_serve::{EngineBackend, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn temp_store(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "disc_serve_durable_tests/{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn saver() -> Box<dyn Saver> {
    Box::new(
        SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap(),
    )
}

fn make_saver(schema: &Schema, _config: &[u8]) -> Result<Box<dyn Saver>, disc_core::Error> {
    assert_eq!(schema.arity(), 2);
    Ok(saver())
}

#[test]
fn durable_serving_recovers_bit_equal_and_locks_out_rivals() {
    let dir = temp_store("serve");
    let store = DurableEngine::create(
        &dir,
        Schema::numeric(2),
        saver(),
        Vec::new(),
        StoreOptions::default(),
    )
    .unwrap();
    let handle = Server::start(EngineBackend::Durable(store), ServerConfig::default()).unwrap();

    // While the server owns the store, a second `disc stream`-style
    // session must fail fast with the typed lock error.
    let err = DurableEngine::open(&dir, make_saver, StoreOptions::default())
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, PersistError::Locked { .. }), "{err}");

    let clients = 4usize;
    let rounds = 5usize;
    let acked: Mutex<Vec<(u64, Vec<Vec<Value>>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in 0..clients {
            let handle = &handle;
            let acked = &acked;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7 + client as u64);
                for _ in 0..rounds {
                    let size = rng.random_range(1..4usize);
                    let rows: Vec<Vec<Value>> = (0..size)
                        .map(|_| {
                            let i = rng.random_range(0..6u32);
                            let j = rng.random_range(0..6u32);
                            vec![Value::Num(0.2 * i as f64), Value::Num(0.2 * j as f64)]
                        })
                        .collect();
                    let ack = handle.ingest(rows.clone()).expect("admitted ingest");
                    acked.lock().unwrap().push((ack.generation, rows));
                }
            });
        }
    });

    // A wrong-arity batch is refused with the engine's bare message (the
    // in-memory backend answers the same), and applies nothing.
    let refused = handle
        .ingest(vec![vec![
            Value::Num(1.0),
            Value::Num(2.0),
            Value::Num(3.0),
        ]])
        .unwrap_err();
    assert_eq!(refused.kind, "rejected");
    assert_eq!(
        refused.message,
        "arity mismatch: batch row 0 has 3 attributes, schema expects 2"
    );

    handle.request_shutdown();
    let shutdown = handle.wait();
    assert!(shutdown.close_error.is_none(), "{:?}", shutdown.close_error);
    assert_eq!(shutdown.generation, (clients * rounds) as u64);

    // Reference replay: the acked batches, serially, in generation order.
    let mut batches = acked.into_inner().unwrap();
    batches.sort_by_key(|(generation, _)| *generation);
    let mut reference = DiscEngine::new(Schema::numeric(2), saver());
    for (_, rows) in batches {
        reference.ingest(rows).unwrap();
    }
    assert_eq!(shutdown.state, reference.export_state());

    // The shutdown handoff checkpointed and released the lock: reopen
    // replays nothing and lands on the identical state.
    let (reopened, recovery) =
        DurableEngine::open(&dir, make_saver, StoreOptions::default()).unwrap();
    assert_eq!(recovery.replayed_records, 0, "close() absorbed the WAL");
    assert_eq!(
        reopened.engine().export_state(),
        shutdown.state,
        "recovered state must be bit-equal to the served final state"
    );
    std::fs::remove_dir_all(&dir).ok();
}
