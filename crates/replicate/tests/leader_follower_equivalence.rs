//! The replication contract: after the follower acks generation `g`,
//! its state — `export_state`, outlier classification, and every
//! per-batch `SaveReport` — is **bit-equal** to the leader's at `g`,
//! across bootstraps, interleaved catch-ups, checkpoint-forced resyncs,
//! and follower restarts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use disc_core::{DistanceConstraints, SaveReport, Saver, SaverConfig};
use disc_data::Schema;
use disc_distance::{TupleDistance, Value};
use disc_persist::{DurableEngine, StoreOptions};
use disc_replicate::{Follower, FollowerOptions, SaverFactory};
use disc_serve::{EngineBackend, Server, ServerConfig, ServerHandle};
use proptest::prelude::*;

fn temp_store(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "disc_replicate_tests/{tag}-{}-{}",
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
    Box::new(|schema: &Schema, _config: &[u8]| {
        assert_eq!(schema.arity(), 2);
        Ok(saver())
    })
}

/// A leader serving a durable store with the given checkpoint cadence.
fn start_leader(dir: &std::path::Path, snapshot_every: Option<u64>) -> ServerHandle {
    let store = DurableEngine::create(
        dir,
        Schema::numeric(2),
        saver(),
        Vec::new(),
        StoreOptions {
            snapshot_every,
            shards: None,
        },
    )
    .unwrap();
    Server::start(EngineBackend::Durable(store), ServerConfig::default()).unwrap()
}

fn follower_options() -> FollowerOptions {
    FollowerOptions {
        max_frames: 4, // small, so catch-up takes several polls
        io_timeout: Duration::from_secs(10),
        ..FollowerOptions::default()
    }
}

/// Catches up fully, collecting `(generation, report)` for every frame
/// applied along the way.
fn catch_up_fully(follower: &mut Follower) -> Vec<(u64, SaveReport)> {
    let mut applied = Vec::new();
    loop {
        let round = follower.catch_up_once().unwrap();
        applied.extend(round.applied);
        if round.caught_up {
            return applied;
        }
    }
}

/// Acks precede state publication: wait for the server's published
/// snapshot to reach `generation` before comparing against it.
fn await_published(server: &ServerHandle, generation: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.snapshot().generation < generation {
        assert!(
            std::time::Instant::now() < deadline,
            "server never published generation {generation}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn batch_strategy() -> impl Strategy<Value = Vec<Vec<Vec<f64>>>> {
    // A stream of 2..8 batches, each 1..5 rows of 2 values drawn from a
    // small grid (so ε-neighborhoods actually form and savers run).
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(0.0f64..1.2, 2), 1..5),
        2..8,
    )
}

fn to_rows(batch: &[Vec<f64>]) -> Vec<Vec<Value>> {
    batch
        .iter()
        .map(|row| row.iter().map(|&v| Value::Num(v)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole equivalence: bootstrap mid-stream, catch up
    /// interleaved with leader writes, restart the follower, and at
    /// every acked generation the replica is bit-equal to the leader —
    /// states, outliers, and save reports.
    #[test]
    fn follower_is_bit_equal_at_every_acked_generation(batches in batch_strategy()) {
        let leader_dir = temp_store("eq-leader");
        let follower_dir = temp_store("eq-follower");
        // snapshot_every: exercise checkpoints (and therefore
        // snapshot-continued catch-up) mid-stream.
        let leader = start_leader(&leader_dir, Some(3));
        let addr = leader.addr().to_string();

        let mut leader_reports: Vec<(u64, SaveReport)> = Vec::new();
        let split = batches.len() / 2;

        // First half ingested before the follower exists: bootstrap
        // must carry this prefix over via the snapshot + carried frames.
        for batch in &batches[..split] {
            let ack = leader.ingest(to_rows(batch)).unwrap();
            leader_reports.push((ack.generation, ack.report));
        }

        let mut follower = Follower::bootstrap(
            &follower_dir,
            addr.clone(),
            saver_factory(),
            follower_options(),
        )
        .unwrap();
        let mut follower_reports = catch_up_fully(&mut follower);

        // Second half interleaved: ingest one batch, catch up once.
        for batch in &batches[split..] {
            let ack = leader.ingest(to_rows(batch)).unwrap();
            leader_reports.push((ack.generation, ack.report));
            follower_reports.extend(catch_up_fully(&mut follower));
        }

        await_published(&leader, leader_reports.last().map(|(g, _)| *g).unwrap_or(0));
        let leader_state = (*leader.snapshot()).clone();
        prop_assert_eq!(follower.generation(), leader_state.generation);
        prop_assert_eq!(&follower.state(), &leader_state);
        prop_assert_eq!(follower.store().engine().view().outliers(), leader.view().outliers());

        // Every report the follower produced is bit-equal to the
        // leader's ack for the same generation. (Generations covered by
        // the bootstrap snapshot are carried as state, not reports.)
        prop_assert!(!follower_reports.is_empty() || batches[split..].is_empty());
        for (generation, report) in &follower_reports {
            let (_, leader_report) = leader_reports
                .iter()
                .find(|(g, _)| g == generation)
                .expect("follower applied a generation the leader never acked");
            prop_assert_eq!(report, leader_report, "report diverged at generation {}", generation);
        }
        // No generation applied twice.
        let mut gens: Vec<u64> = follower_reports.iter().map(|(g, _)| *g).collect();
        let before = gens.len();
        gens.dedup();
        prop_assert_eq!(gens.len(), before);

        // Restart the follower (crash persona: drop without close) and
        // resume from its own durable store — still bit-equal.
        drop(follower);
        let mut reopened = Follower::bootstrap(
            &follower_dir,
            addr,
            saver_factory(),
            follower_options(),
        )
        .unwrap();
        catch_up_fully(&mut reopened);
        prop_assert_eq!(&reopened.state(), &leader_state);

        leader.request_shutdown();
        leader.wait();
        std::fs::remove_dir_all(&leader_dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();
    }
}

/// A follower that lags across a leader checkpoint cannot be continued
/// frame-by-frame (the WAL was reset); the leader ships a snapshot and
/// the follower resyncs through it, landing bit-equal.
#[test]
fn follower_resyncs_through_a_leader_checkpoint() {
    let leader_dir = temp_store("resync-leader");
    let follower_dir = temp_store("resync-follower");
    let leader = start_leader(&leader_dir, Some(2)); // checkpoint every 2 ingests
    let addr = leader.addr().to_string();

    leader
        .ingest(vec![vec![Value::Num(0.1), Value::Num(0.1)]])
        .unwrap();
    let mut follower =
        Follower::bootstrap(&follower_dir, addr, saver_factory(), follower_options()).unwrap();
    catch_up_fully(&mut follower);
    assert_eq!(follower.generation(), 1);
    let installs_before = follower.health().snapshots_installed;

    // Four more ingests: two checkpoints fire, discarding the frames
    // the follower would need to continue from generation 1.
    for i in 0..4u32 {
        leader
            .ingest(vec![vec![Value::Num(0.1 * i as f64), Value::Num(0.2)]])
            .unwrap();
    }
    let applied = catch_up_fully(&mut follower);
    assert_eq!(follower.generation(), 5);
    await_published(&leader, 5);
    assert_eq!(&follower.state(), &*leader.snapshot());
    assert!(
        follower.health().snapshots_installed > installs_before,
        "catch-up across a checkpoint must have installed a snapshot"
    );
    // Frames not covered by the resync snapshot were applied normally.
    assert!(applied.iter().all(|(g, _)| *g > 1 && *g <= 5));

    leader.request_shutdown();
    leader.wait();
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}

/// A follower bootstrapped at generation 0 catches up on a 24-frame
/// backlog over several polls of at most 8 frames: it applies every
/// frame exactly once, in order, and lands bit-equal to the leader.
#[test]
fn follower_catches_up_on_a_frame_backlog() {
    let leader_dir = temp_store("backlog-leader");
    let follower_dir = temp_store("backlog-follower");
    let leader = start_leader(&leader_dir, None); // every frame stays replayable
    let options = FollowerOptions {
        max_frames: 8,
        ..follower_options()
    };
    let mut follower = Follower::bootstrap(
        &follower_dir,
        leader.addr().to_string(),
        saver_factory(),
        options,
    )
    .unwrap();
    assert_eq!(follower.generation(), 0);
    for b in 0..24usize {
        let rows = (0..20)
            .map(|r| {
                let cell = b * 20 + r;
                vec![
                    Value::Num(0.2 * (cell % 6) as f64),
                    Value::Num(0.2 * (cell / 6 % 6) as f64),
                ]
            })
            .collect();
        leader.ingest(rows).unwrap();
    }
    let mut applied = Vec::new();
    let mut polls = 0;
    loop {
        let round = follower.catch_up_once().unwrap();
        polls += 1;
        applied.extend(round.applied.iter().map(|(g, _)| *g));
        if round.caught_up {
            break;
        }
    }
    assert_eq!(applied, (1..=24).collect::<Vec<u64>>());
    assert!(polls >= 3, "24 frames in {polls} polls of at most 8");
    await_published(&leader, 24);
    assert_eq!(&follower.state(), &*leader.snapshot());

    leader.request_shutdown();
    leader.wait();
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}

/// The full daemon: a replica server fed by `Follower::run` serves
/// reads at the leader's generation and refuses writes with a typed
/// `not_leader` error naming the leader.
#[test]
fn replica_server_serves_reads_and_refuses_writes() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let leader_dir = temp_store("daemon-leader");
    let follower_dir = temp_store("daemon-follower");
    let leader = start_leader(&leader_dir, None);
    let leader_addr = leader.addr().to_string();

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
        follower_options(),
    )
    .unwrap();
    let (replica, publisher) = Server::start_replica(
        follower.store().engine().view(),
        leader_addr.clone(),
        ServerConfig::default(),
    )
    .unwrap();
    let replica_addr = replica.addr();
    let daemon = std::thread::spawn(move || follower.run(&publisher));

    // Writes are refused with the typed error naming the leader — both
    // in-process and over the wire.
    let err = replica
        .ingest(vec![vec![Value::Num(0.2), Value::Num(0.2)]])
        .unwrap_err();
    assert_eq!(err.kind, "not_leader");
    assert!(err.message.contains(&leader_addr), "{}", err.message);

    let request = |line: &str| -> String {
        let mut conn = TcpStream::connect(replica_addr).unwrap();
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(conn).read_line(&mut reply).unwrap();
        reply
    };
    let refused = request(r#"{"op":"ingest","rows":[[0.2,0.2]]}"#);
    assert!(refused.contains("not_leader"), "{refused}");
    assert!(refused.contains(&leader_addr), "{refused}");

    // A later leader write becomes readable on the replica.
    let ack = leader
        .ingest(vec![vec![Value::Num(0.9), Value::Num(0.9)]])
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while replica.snapshot().generation < ack.generation {
        assert!(
            std::time::Instant::now() < deadline,
            "replica never caught up to generation {}",
            ack.generation
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    await_published(&leader, ack.generation);
    assert_eq!(&*replica.snapshot(), &*leader.snapshot());

    // State is published just before health; retry briefly so the
    // status read cannot race the health store.
    let status = loop {
        let status = request(r#"{"op":"repl_status"}"#);
        if status.contains(r#""lag":0"#) || std::time::Instant::now() >= deadline {
            break status;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.contains(r#""role":"follower""#), "{status}");
    assert!(status.contains(r#""lag":0"#), "{status}");
    assert!(status.contains(r#""connected":true"#), "{status}");

    let report = request(r#"{"op":"report"}"#);
    assert!(
        report.contains(&format!("\"generation\":{}", ack.generation)),
        "{report}"
    );

    replica.request_shutdown();
    daemon.join().unwrap().unwrap();
    replica.wait();
    leader.request_shutdown();
    leader.wait();
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}
