//! Crash-safe persistence for the streaming DISC engine.
//!
//! [`DurableEngine`] wraps a [`disc_core::DiscEngine`] with two on-disk
//! structures in a *store directory*:
//!
//! * a **write-ahead log** (`engine.wal`) of every ingest batch —
//!   appended and fsynced *before* the engine mutates, so an applied
//!   ingest is always recoverable ([`wal`]);
//! * periodic **snapshots** (`engine.snap`) of the full engine state —
//!   written to a temp file, fsynced, and atomically renamed into place,
//!   so the visible snapshot is always complete ([`snapshot`]).
//!
//! Every handle comes up through one path ([`store`]) and holds the
//! store's [`StoreLock`], a kernel lock that dies with its holder.
//!
//! Recovery ([`DurableEngine::open`]) is deterministic: load the
//! snapshot at generation `g`, truncate any torn WAL tail (the expected
//! artifact of a crash mid-append), and replay the surviving records
//! `g+1, g+2, …` through the ordinary ingest path. The result is
//! bit-identical — down to f64 bit patterns — to the state of an
//! uninterrupted run, for any crash point and any worker count; the
//! crash-equivalence suite pins this by injecting IO faults (through
//! `disc_core::fault`, compiled under `--cfg disc_fault`) at every write,
//! fsync, truncate, and rename boundary.
//!
//! Durability invariants, in one place:
//!
//! 1. **Validate before append** — a batch the engine would reject is
//!    never made durable, so replay cannot fail on bad input.
//! 2. **Append before apply** — WAL record `k+1` is fsynced before the
//!    engine moves to generation `k+1`; on-disk state is never *behind*
//!    a mutation the caller observed.
//! 3. **Snapshot atomically, then reset the log** — a crash between the
//!    two leaves records at generations the snapshot already covers;
//!    replay skips them (and rejects any true generation gap as
//!    corruption).
//! 4. **Poison on IO failure** — after any failed write the handle
//!    refuses further mutation ([`Error::Poisoned`]); reopening the
//!    store is the one recovery path, and it is total.
//!
//! Checksums (CRC-32, [`crc`]) distinguish *torn* writes — truncated
//! and reported via [`RecoveryReport::torn_tail`] — from *corrupt*
//! files (bad magic, checksum-valid bytes that do not decode, gap in
//! the generation sequence), which fail loudly as [`Error::Corrupt`].
//! Everything is std-only: the byte formats live in
//! [`disc_data::binary`], so a store written on one platform reads
//! identically on any other.

pub mod crc;
pub mod error;
mod io;
pub mod lock;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use error::Error;
pub use lock::StoreLock;
pub use snapshot::{SnapshotData, SNAP_MAGIC, SNAP_VERSION};
pub use store::{DurableEngine, RecoveryReport, ReplApply, StoreOptions};
pub use wal::{TornTail, Wal, WalEnd, WalFrame, WalReader, WalRecord, WAL_MAGIC};
