//! A concurrent multi-client serving layer over the streaming DISC
//! engine.
//!
//! `disc-serve` turns the single-caller [`disc_core::DiscEngine`] (or
//! its crash-safe wrapper, [`disc_persist::DurableEngine`]) into a
//! std-only TCP service speaking newline-delimited JSON: one request
//! line, one response line ([`protocol`]).
//!
//! The design is **single-writer / snapshot-readers** ([`server`]):
//!
//! * all `ingest` requests flow through a bounded FIFO queue into one
//!   writer thread that owns the engine — applied in admission order,
//!   one engine generation per client batch, so results are bit-equal
//!   to the same batches ingested serially;
//! * a full queue refuses new writes immediately with a typed
//!   `overloaded` response (admission-control backpressure);
//! * reads (`query`, `report`, `stats`, `snapshot`) are answered from
//!   the [`disc_core::EngineView`] the writer published after its last
//!   drain — a read-only view sharing the engine's rows and
//!   copy-on-write tables, so publishing copies no row — and never block
//!   on, or get blocked by, the writer;
//! * a writer that panics while applying a batch answers that batch and
//!   every queued one with a typed `internal` error and shuts the
//!   server down without a checkpoint, while reads keep answering;
//! * graceful shutdown closes admission, drains every admitted job, and
//!   (for a durable backend) checkpoints and releases the store — no
//!   acknowledged ingest is ever lost.
//!
//! Per-request observability flows through [`disc_obs`]: request
//! counters per verb, a queue-depth gauge, a rejected-request counter,
//! and per-verb latency histograms served by the `stats` op.
//!
//! The serving layer is also replication's wire: a leader over a
//! durable backend answers the `replicate` verb with checksummed WAL
//! frames (and, when the follower cannot be continued frame-by-frame, a
//! full snapshot image), while [`Server::start_replica`] runs the
//! follower side — a read-only server whose state is pushed by the
//! replication applier through a [`StatePublisher`], and whose `ingest`
//! answers a typed `not_leader` error naming the leader. The applier
//! itself lives in the `disc-replicate` crate.
//!
//! ```no_run
//! use disc_serve::{EngineBackend, Server, ServerConfig};
//! # fn saver() -> Box<dyn disc_core::Saver> { unimplemented!() }
//! let engine = disc_core::DiscEngine::new(disc_data::Schema::numeric(2), saver());
//! let handle = Server::start(EngineBackend::Memory(engine), ServerConfig::default()).unwrap();
//! println!("listening on {}", handle.addr());
//! let report = handle.wait(); // blocks until shutdown is requested
//! assert!(report.close_error.is_none());
//! ```

pub mod json;
pub mod protocol;
pub mod server;

pub use protocol::{BadRequest, ReplicateBatch, Request};
pub use server::{
    Acked, EngineBackend, IngestError, ReplHealth, Server, ServerConfig, ServerHandle, ServerRole,
    ShutdownReport, StatePublisher,
};
