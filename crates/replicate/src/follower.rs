//! The follower applier: bootstrap, catch-up, and the daemon loop.
//!
//! A [`Follower`] owns a full [`DurableEngine`] store of its own — the
//! replica's WAL and snapshot are its crash-safe resume point, so after
//! any crash (or restart) it reopens like any durable engine and
//! resumes polling from its **own** durably applied generation. No
//! replication-specific recovery state exists.
//!
//! One [`Follower::catch_up_once`] is one poll-and-apply round:
//!
//! 1. poll the leader from `self.generation()` (forcing a snapshot into
//!    the response after a [`ReplApply::Gap`]);
//! 2. install the shipped snapshot if it advances this store (a forced
//!    redelivery at or below our generation is ignored);
//! 3. apply each frame through
//!    [`DurableEngine::apply_replicated`] — the exactly-once rule lives
//!    there, so redelivered frames are skipped and out-of-order frames
//!    schedule a resync instead of corrupting the store.
//!
//! [`Follower::bootstrap`] applies the frames of its first response with
//! the same step-3 loop. [`Follower::run`] wraps rounds in the daemon
//! loop: publish a view of every new state (sharing the store engine's
//! rows and tables) to the read-only server via its
//! [`StatePublisher`], sleep `POLL_INTERVAL` when caught up, and
//! reconnect with exponential backoff (`MIN_BACKOFF` … `MAX_BACKOFF`)
//! when the link drops.

use std::path::Path;
use std::time::{Duration, Instant};

use disc_core::{EngineState, SaveReport, Saver};
use disc_data::Schema;
use disc_obs::counters;
use disc_obs::hist::REPL_SHIP_MICROS;
use disc_persist::{snapshot, DurableEngine, ReplApply, StoreOptions, WalFrame};
use disc_serve::protocol::DEFAULT_MAX_FRAMES;
use disc_serve::{ReplHealth, StatePublisher};

use crate::client::{PollError, ReplClient};

/// Rebuilds a saver from a store's schema + config blob. Replication
/// calls it on bootstrap, on every snapshot resync, and on reopen —
/// the same role [`DurableEngine::open`]'s factory plays, boxed so the
/// follower can keep it for the resyncs.
pub type SaverFactory =
    Box<dyn Fn(&Schema, &[u8]) -> Result<Box<dyn Saver>, disc_core::Error> + Send>;

/// The daemon's sleep between polls once caught up.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The daemon's first reconnect delay after a dropped link.
const MIN_BACKOFF: Duration = Duration::from_millis(50);

/// The reconnect delay ceiling (the delay doubles up to this).
const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// Follower tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FollowerOptions {
    /// Options for the replica's own store (checkpoint cadence, shard
    /// override). The replica checkpoints independently of the leader;
    /// its snapshot cadence does not affect replicated state.
    pub store: StoreOptions,
    /// Frames requested per poll (bounds one response line).
    pub max_frames: usize,
    /// Connect timeout, and read/write timeout on the link.
    pub io_timeout: Duration,
}

impl Default for FollowerOptions {
    fn default() -> Self {
        FollowerOptions {
            store: StoreOptions::default(),
            max_frames: DEFAULT_MAX_FRAMES,
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// What one [`Follower::catch_up_once`] round did.
#[derive(Debug)]
pub struct CatchUp {
    /// The leader's generation as of this poll.
    pub leader_generation: u64,
    /// Frames durably applied this round, in generation order, with the
    /// [`SaveReport`] each produced — bit-equal to the report the
    /// leader acked for the same generation.
    pub applied: Vec<(u64, SaveReport)>,
    /// The generation of a snapshot installed this round (bootstrap
    /// completion or gap resync), if any.
    pub snapshot_installed: Option<u64>,
    /// True when this store now matches the leader's generation (and no
    /// resync is pending) — the daemon's cue to sleep before polling
    /// again.
    pub caught_up: bool,
}

/// Why the follower could not make progress.
#[derive(Debug)]
pub enum FollowerError {
    /// The link to the leader failed; reconnect and retry.
    Link(String),
    /// The leader refused replication or shipped something that does
    /// not decode; retrying cannot help.
    Protocol(String),
    /// The replica's own store failed (IO, corruption, poisoning).
    Store(disc_persist::Error),
}

impl std::fmt::Display for FollowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FollowerError::Link(m) => write!(f, "replication link: {m}"),
            FollowerError::Protocol(m) => write!(f, "replication protocol: {m}"),
            FollowerError::Store(e) => write!(f, "replica store: {e}"),
        }
    }
}

impl std::error::Error for FollowerError {}

fn poll_err(e: PollError) -> FollowerError {
    match e {
        PollError::Link(m) => FollowerError::Link(m),
        PollError::Refused(m) => FollowerError::Protocol(m),
    }
}

/// A catch-up read replica; see the [module docs](self).
pub struct Follower {
    store: DurableEngine,
    leader_addr: String,
    client: Option<ReplClient>,
    make_saver: SaverFactory,
    options: FollowerOptions,
    health: ReplHealth,
    /// Set by a [`ReplApply::Gap`]; the next poll forces a snapshot.
    resync_next: bool,
    /// Whether any connect has succeeded — later connect attempts count
    /// as reconnects.
    connected_once: bool,
}

impl Follower {
    /// Brings up a follower store in `dir`: an existing store is
    /// reopened (recovering exactly as [`DurableEngine::open`] would,
    /// then resuming from its own durable generation); a missing one is
    /// bootstrapped by pulling a snapshot from the leader and installing
    /// it bit-for-bit, plus any frames the same response carried.
    ///
    /// One-shot: an unreachable leader on a fresh bootstrap surfaces as
    /// [`FollowerError::Link`] — callers that want to wait for the
    /// leader retry this in their own loop (the CLI does, so it can
    /// also watch for shutdown signals).
    pub fn bootstrap(
        dir: &Path,
        leader_addr: impl Into<String>,
        make_saver: SaverFactory,
        options: FollowerOptions,
    ) -> Result<Follower, FollowerError> {
        let leader_addr = leader_addr.into();
        if snapshot::snapshot_path(dir).exists() {
            let (store, _report) = DurableEngine::open(dir, |s, c| make_saver(s, c), options.store)
                .map_err(FollowerError::Store)?;
            let health = ReplHealth {
                applied_generation: store.generation(),
                ..ReplHealth::default()
            };
            return Ok(Follower {
                store,
                leader_addr,
                client: None,
                make_saver,
                options,
                health,
                resync_next: false,
                connected_once: false,
            });
        }

        let mut client = ReplClient::connect(&leader_addr, options.io_timeout).map_err(poll_err)?;
        let batch = client.poll(0, options.max_frames, true).map_err(poll_err)?;
        let image = batch.snapshot.as_deref().ok_or_else(|| {
            FollowerError::Protocol("leader shipped no snapshot for a fresh bootstrap".into())
        })?;
        let store =
            DurableEngine::create_from_snapshot(dir, image, |s, c| make_saver(s, c), options.store)
                .map_err(FollowerError::Store)?;
        counters::REPL_SNAPSHOTS_INSTALLED.incr();
        let mut follower = Follower {
            store,
            leader_addr,
            client: Some(client),
            make_saver,
            options,
            health: ReplHealth {
                connected: true,
                leader_generation: batch.leader_generation,
                snapshots_installed: 1,
                ..ReplHealth::default()
            },
            resync_next: false,
            connected_once: true,
        };
        // Apply the frames the same response carried, so the first
        // published state is as fresh as the response allows.
        follower.apply(&batch.frames)?;
        Ok(follower)
    }

    /// The leader this follower replicates from.
    pub fn leader_addr(&self) -> &str {
        &self.leader_addr
    }

    /// This replica's last durably applied generation.
    pub fn generation(&self) -> u64 {
        self.store.generation()
    }

    /// A full image of the replica's current engine state.
    pub fn state(&self) -> EngineState {
        self.store.engine().export_state()
    }

    /// Current replication health (what `repl_status` serves).
    pub fn health(&self) -> ReplHealth {
        self.health.clone()
    }

    /// The replica's own durable store (read-only).
    pub fn store(&self) -> &DurableEngine {
        &self.store
    }

    /// One poll-and-apply round; see the [module docs](self).
    ///
    /// A [`FollowerError::Link`] leaves the store untouched and the
    /// client dropped; the next call reconnects and repeats the poll —
    /// harmless, because redelivered frames are skipped by generation.
    pub fn catch_up_once(&mut self) -> Result<CatchUp, FollowerError> {
        if self.client.is_none() {
            if self.connected_once {
                self.health.reconnects += 1;
                counters::REPL_RECONNECTS.incr();
            }
            match ReplClient::connect(&self.leader_addr, self.options.io_timeout) {
                Ok(client) => self.client = Some(client),
                Err(e) => {
                    self.health.connected = false;
                    return Err(poll_err(e));
                }
            }
        }
        let from = self.store.generation();
        let started = Instant::now();
        let client = self.client.as_mut().expect("client connected above");
        let batch = match client.poll(from, self.options.max_frames, self.resync_next) {
            Ok(batch) => batch,
            Err(PollError::Link(m)) => {
                self.client = None;
                self.health.connected = false;
                return Err(FollowerError::Link(m));
            }
            Err(PollError::Refused(m)) => return Err(FollowerError::Protocol(m)),
        };
        self.connected_once = true;
        self.health.connected = true;
        self.health.leader_generation = batch.leader_generation;
        self.resync_next = false;
        if batch.snapshot.is_some() || !batch.frames.is_empty() {
            REPL_SHIP_MICROS.record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }

        let mut snapshot_installed = None;
        if let Some(image) = batch.snapshot.as_deref() {
            let data = snapshot::snapshot_from_bytes(image).map_err(|e| {
                FollowerError::Protocol(format!("shipped snapshot does not decode: {e}"))
            })?;
            // A forced snapshot (resync request raced a reconnect) can
            // arrive at or below our generation; installing it would
            // regress acknowledged state, so it is ignored and the
            // frames carry us forward instead.
            if data.state.generation > self.store.generation() {
                let store = &mut self.store;
                let make = &self.make_saver;
                let generation = store
                    .install_snapshot(image, |s, c| make(s, c))
                    .map_err(FollowerError::Store)?;
                counters::REPL_SNAPSHOTS_INSTALLED.incr();
                self.health.snapshots_installed += 1;
                snapshot_installed = Some(generation);
            }
        }

        let applied = self.apply(&batch.frames)?;
        Ok(CatchUp {
            leader_generation: batch.leader_generation,
            applied,
            snapshot_installed,
            caught_up: !self.resync_next && self.store.generation() >= batch.leader_generation,
        })
    }

    /// Applies shipped frames in order through
    /// [`DurableEngine::apply_replicated`], returning the report of each
    /// one applied, and brings the health's applied generation and the
    /// lag gauge up to date.
    fn apply(&mut self, frames: &[WalFrame]) -> Result<Vec<(u64, SaveReport)>, FollowerError> {
        let mut applied = Vec::new();
        for frame in frames {
            match self
                .store
                .apply_replicated(frame)
                .map_err(FollowerError::Store)?
            {
                ReplApply::Applied(report) => {
                    counters::REPL_FRAMES_APPLIED.incr();
                    applied.push((frame.generation, *report));
                }
                ReplApply::AlreadyApplied => counters::REPL_FRAMES_SKIPPED.incr(),
                ReplApply::Gap { .. } => {
                    // The intermediate frames are gone from the leader's
                    // log (it checkpointed past them); force a snapshot
                    // into the next poll and drop the rest of this batch
                    // — its frames are all beyond the gap too.
                    self.resync_next = true;
                    break;
                }
            }
        }
        self.health.applied_generation = self.store.generation();
        counters::REPL_LAG_GENERATIONS.set(self.health.lag());
        Ok(applied)
    }

    /// The daemon loop: poll, apply, publish, until the server shuts
    /// down; then checkpoint and release the replica's store.
    ///
    /// Link failures reconnect with exponential backoff (health —
    /// including the disconnect — stays published throughout, so
    /// `repl_status` tells the truth while the leader is away).
    /// Protocol and store failures are fatal: the error is returned
    /// after requesting server shutdown, because a replica that cannot
    /// apply can only fall further behind while serving stale reads.
    pub fn run(mut self, publisher: &StatePublisher) -> Result<(), FollowerError> {
        publisher.publish(self.store.engine().view());
        publisher.set_health(self.health.clone());
        let mut backoff = MIN_BACKOFF;
        while !publisher.is_shutting_down() {
            match self.catch_up_once() {
                Ok(round) => {
                    backoff = MIN_BACKOFF;
                    if !round.applied.is_empty() || round.snapshot_installed.is_some() {
                        publisher.publish(self.store.engine().view());
                    }
                    publisher.set_health(self.health.clone());
                    if round.caught_up {
                        pause(POLL_INTERVAL, publisher);
                    }
                }
                Err(FollowerError::Link(_)) => {
                    publisher.set_health(self.health.clone());
                    pause(backoff, publisher);
                    backoff = (backoff * 2).min(MAX_BACKOFF);
                }
                Err(fatal) => {
                    publisher.set_health(self.health.clone());
                    publisher.request_shutdown();
                    // Best-effort close: after a store error the handle
                    // may be poisoned; the fatal error is the story.
                    let _ = self.store.close();
                    return Err(fatal);
                }
            }
        }
        self.store.close().map(drop).map_err(FollowerError::Store)
    }
}

/// Sleeps `total` in small steps, returning early once the server
/// begins shutting down (bounds how long shutdown waits on an idle or
/// backing-off follower).
fn pause(total: Duration, publisher: &StatePublisher) {
    let step = Duration::from_millis(10);
    let mut remaining = total;
    while remaining > Duration::ZERO && !publisher.is_shutting_down() {
        let chunk = remaining.min(step);
        std::thread::sleep(chunk);
        remaining -= chunk;
    }
}
