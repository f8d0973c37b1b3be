//! Exactly-once across link failures, proved exhaustively.
//!
//! Compiled under `--cfg disc_fault` only. The sweep drops the
//! replication link at *every* send and receive boundary of a full
//! bootstrap-and-catch-up workload (`k = 0, 1, 2, …` until the plan
//! stops firing) and asserts, for each drop point, that the follower
//! recovers by reconnecting and lands bit-equal to the leader with no
//! generation applied twice and none skipped.
#![cfg(disc_fault)]

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use disc_core::fault::{self, FaultPlan};
use disc_core::{DistanceConstraints, Saver, SaverConfig};
use disc_data::Schema;
use disc_distance::{TupleDistance, Value};
use disc_persist::{DurableEngine, StoreOptions};
use disc_replicate::{Follower, FollowerError, FollowerOptions, SaverFactory};
use disc_serve::{EngineBackend, Server, ServerConfig};

fn temp_store(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "disc_replicate_fault_tests/{tag}-{}-{}",
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

#[test]
fn link_drops_at_every_boundary_never_double_apply_or_skip() {
    // One quiescent leader for the whole sweep: 6 acked generations,
    // small frames-per-poll so catch-up spans several polls (several
    // link operations to kill).
    let leader_dir = temp_store("sweep-leader");
    let store = DurableEngine::create(
        &leader_dir,
        Schema::numeric(2),
        saver(),
        Vec::new(),
        StoreOptions::default(),
    )
    .unwrap();
    let leader = Server::start(EngineBackend::Durable(store), ServerConfig::default()).unwrap();
    let addr = leader.addr().to_string();
    for i in 0..6u32 {
        leader
            .ingest(vec![
                vec![Value::Num(0.1 * i as f64), Value::Num(0.1)],
                vec![Value::Num(0.1 * i as f64), Value::Num(0.15)],
            ])
            .unwrap();
    }
    // Acks precede state publication; wait for the writer to publish
    // the final generation before pinning the reference state.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while leader.snapshot().generation < 6 {
        assert!(
            std::time::Instant::now() < deadline,
            "leader never published generation 6"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let leader_state = (*leader.snapshot()).clone();
    assert_eq!(leader_state.generation, 6);

    let options = FollowerOptions {
        max_frames: 2,
        io_timeout: Duration::from_secs(10),
        ..FollowerOptions::default()
    };

    let mut drop_points = 0u64;
    for k in 0.. {
        let follower_dir = temp_store(&format!("sweep-follower-{k}"));
        let ((), fired) = fault::scoped(FaultPlan::new().drop_link(k), || {
            // Bootstrap, tolerating the injected drop: the plan fires
            // once, so one retry always gets through. A store the first
            // attempt managed to create is resumed, not re-created.
            let mut follower = loop {
                match Follower::bootstrap(&follower_dir, addr.clone(), saver_factory(), options) {
                    Ok(f) => break f,
                    Err(FollowerError::Link(_)) => continue,
                    Err(e) => panic!("bootstrap failed non-retryably: {e}"),
                }
            };
            // Catch up, reconnecting across the drop; every applied
            // generation must be globally unique.
            let mut seen = HashSet::new();
            loop {
                match follower.catch_up_once() {
                    Ok(round) => {
                        for (generation, _) in &round.applied {
                            assert!(
                                seen.insert(*generation),
                                "k={k}: generation {generation} applied twice"
                            );
                        }
                        if round.caught_up {
                            break;
                        }
                    }
                    Err(FollowerError::Link(_)) => continue,
                    Err(e) => panic!("k={k}: catch-up failed non-retryably: {e}"),
                }
            }
            assert_eq!(
                follower.state(),
                leader_state,
                "k={k}: follower diverged from leader"
            );
            assert_eq!(follower.generation(), 6, "k={k}: generations skipped");
        });
        std::fs::remove_dir_all(&follower_dir).ok();
        if !fired {
            // k is past the workload's total link-op count: the sweep
            // covered every boundary.
            assert!(k >= 4, "workload too small to be a meaningful sweep");
            break;
        }
        drop_points += 1;
    }
    assert!(
        drop_points >= 4,
        "sweep exercised only {drop_points} drop points"
    );

    leader.request_shutdown();
    leader.wait();
    std::fs::remove_dir_all(&leader_dir).ok();
}
