//! Leader→follower replication for the durable DISC engine.
//!
//! A **follower** is a catch-up read replica: it bootstraps from a
//! leader snapshot, then pulls checksummed WAL frames over the leader's
//! ordinary serving socket (`disc_serve`'s `replicate` verb) and applies
//! them through the same durable-ingest path recovery uses
//! ([`disc_persist::DurableEngine::apply_replicated`]). Because the
//! engine is deterministic and frames are applied byte-for-byte in
//! generation order, a follower that has acked generation `g` is
//! **bit-identical** to the leader at `g` — same `export_state`, same
//! outlier classification, same per-batch [`disc_core::SaveReport`]s.
//!
//! The moving parts:
//!
//! * [`ReplClient`] ([`client`]) — the wire half: one TCP connection to
//!   the leader, one `replicate` poll per call, every frame re-verified
//!   (CRC) before the caller sees it;
//! * [`Follower`] ([`follower`]) — the applier: owns the replica's own
//!   durable store (its WAL/snapshot are the crash-safe resume point),
//!   installs shipped snapshots, applies frames under the exactly-once
//!   rule, and tracks [`disc_serve::ReplHealth`];
//! * [`Follower::run`] — the daemon loop: poll, apply, publish a view of
//!   the new state ([`disc_core::EngineView`]) to a read-only
//!   [`disc_serve::Server`] replica via its
//!   [`disc_serve::StatePublisher`], reconnect with exponential backoff
//!   when the link drops.
//!
//! Exactly-once across reconnects needs no handshake: the follower's
//! poll carries its own durable generation, redelivered frames are
//! skipped by generation, and a frame from the future triggers a
//! snapshot resync. Under `--cfg disc_fault`, [`ReplClient::poll`] ticks
//! the link failpoint of `disc_core::fault`, which drops the link at
//! chosen points so tests can prove no frame is ever applied twice or
//! skipped, wherever the connection dies.

pub mod client;
pub mod follower;

pub use client::{PollError, ReplClient};
pub use follower::{CatchUp, Follower, FollowerError, FollowerOptions, SaverFactory};
