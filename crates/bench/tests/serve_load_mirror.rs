//! `run_load` in mirror mode against a real leader + replica pair: the
//! load generator must close the read-your-writes loop on the leader,
//! mirror reads to the replica, compare the pair at an identical
//! generation, and find zero divergence.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use disc_bench::serve_client::{run_load, ServeClient};
use disc_core::{DistanceConstraints, Saver, SaverConfig};
use disc_data::Schema;
use disc_distance::{TupleDistance, Value};
use disc_persist::{DurableEngine, StoreOptions};
use disc_replicate::{Follower, FollowerOptions, SaverFactory};
use disc_serve::{EngineBackend, Server, ServerConfig};

fn temp_store(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "disc_serve_load_mirror/{tag}-{}-{}",
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

fn saver_factory() -> SaverFactory {
    Box::new(|_schema: &Schema, _config: &[u8]| Ok(saver()))
}

#[test]
fn mirrored_load_finds_no_divergence() {
    let leader_dir = temp_store("leader");
    let follower_dir = temp_store("follower");
    let store = DurableEngine::create(
        &leader_dir,
        Schema::numeric(2),
        saver(),
        Vec::new(),
        StoreOptions::default(),
    )
    .unwrap();
    let leader = Server::start(EngineBackend::Durable(store), ServerConfig::default()).unwrap();
    let leader_addr = leader.addr().to_string();

    // A little history before the replica exists.
    leader
        .ingest(vec![
            vec![Value::Num(0.1), Value::Num(0.1)],
            vec![Value::Num(0.15), Value::Num(0.12)],
        ])
        .unwrap();

    let follower = Follower::bootstrap(
        &follower_dir,
        leader_addr.clone(),
        saver_factory(),
        FollowerOptions {
            io_timeout: Duration::from_secs(10),
            ..FollowerOptions::default()
        },
    )
    .unwrap();
    let (replica, publisher) = Server::start_replica(
        follower.store().engine().view(),
        leader_addr.clone(),
        ServerConfig::default(),
    )
    .unwrap();
    let replica_addr = replica.addr().to_string();
    let daemon = std::thread::spawn(move || follower.run(&publisher));

    let clients = 3;
    let report = run_load(&leader_addr, Some(&replica_addr), clients, 5, 3, 11);

    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.divergent, 0, "{report:?}");
    assert_eq!(report.acked_batches, (clients * 5) as u64, "{report:?}");
    // One mirrored report per ack, plus catch-up polls and one
    // comparison read per verb per client.
    assert!(
        report.replica_reads >= report.acked_batches + (clients * 4) as u64,
        "{report:?}"
    );
    // Every client pinned report/stats/snapshot once.
    assert_eq!(report.divergence_checks, (clients * 3) as u64, "{report:?}");
    assert_eq!(
        report.replica_latencies_ms.len() as u64,
        report.replica_reads
    );
    assert!(report.replica_p50_ms().is_some());
    assert!(report.replica_p99_ms().unwrap() >= report.replica_p50_ms().unwrap());

    // The standalone read helpers: a fresh client observes the final
    // generation on both ends.
    let generation = leader.snapshot().generation;
    let mut conn = ServeClient::connect(&replica_addr).unwrap();
    let observed = conn
        .await_generation(generation, Duration::from_secs(30))
        .unwrap();
    assert!(observed >= generation);
    for op in ["report", "stats", "snapshot"] {
        let (g, _) = conn.read_at(op).unwrap();
        assert!(
            g >= generation,
            "{op} answered below generation {generation}"
        );
    }

    replica.request_shutdown();
    daemon.join().unwrap().unwrap();
    replica.wait();
    leader.request_shutdown();
    leader.wait();
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}
