//! Deterministic fault injection (test-only): the workspace's one
//! failpoint mechanism.
//!
//! Compiled only under `--cfg disc_fault` (CI runs the whole workspace a
//! second time with `RUSTFLAGS="--cfg disc_fault"`). One process-global
//! [`FaultPlan`] drives every hook:
//!
//! * the save pipeline calls [`hit`] with each outlier's row index right
//!   before saving it; the plan can make that save panic (exercising the
//!   pipeline's panic isolation) or sleep (exercising deadline cutoff);
//! * the streaming engine calls [`ingest`] with the generation an ingest
//!   becomes, after phase 1 has changed the engine; the plan can make
//!   that ingest panic (exercising a caller's containment of a panic
//!   that leaves the engine half-applied);
//! * `disc-persist` calls [`tick`]`(`[`Point::Io`]`)` before every write,
//!   truncate, fsync, and rename; the plan can fail the chosen operation
//!   or make a write persist only a prefix of its buffer — the moral
//!   equivalent of losing power mid-`write(2)`;
//! * `disc-replicate` calls [`tick`]`(`[`Point::Link`]`)` before sending a
//!   poll and again before reading its response; the plan can drop the
//!   link at the chosen operation.
//!
//! Each point numbers its own operations from 0 within a scope, so a test
//! can sweep `k = 0, 1, 2, …` and interrupt a workload at *every* boundary
//! of one kind: [`scoped`] reports whether a fault fired, so the sweep
//! stops at the first `k` past the workload's operation count. Only the
//! thread that opened the scope numbers operations — the store and the
//! replication client do their IO on the caller's thread — so another
//! test's IO, running concurrently outside any scope, neither shifts the
//! numbering nor gets faulted. Save and ingest faults fire on any thread,
//! because saves run on [`parallel_map`](crate::parallel::parallel_map)'s
//! workers and a server ingests on its writer thread.
//!
//! The plan is process-global, so the hooks need no plumbing through the
//! saver, store, or client APIs, and [`scoped`] serializes callers, so
//! concurrent tests cannot observe each other's faults. Injected panics
//! unwind with [`std::panic::resume_unwind`], which skips the panic hook:
//! they are expected and caught, so they print nothing, and no hook is
//! ever silenced — a real assertion failure inside a scope still reports.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// A failpoint that numbers its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Point {
    /// A durable IO operation in `disc-persist`.
    Io,
    /// A send or receive on a replication link.
    Link,
}

/// What a fault at a [`Point`] does to its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injected {
    /// Fail the operation without performing it.
    Fail,
    /// For a write: persist only this many prefix bytes, then fail. Any
    /// other operation fails outright.
    Torn {
        /// Prefix bytes that reach the file.
        keep: usize,
    },
}

/// What to inject when the pipeline reaches a chosen row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SaveFault {
    /// Panic with the deterministic message `injected fault at row {row}`.
    Panic,
    /// Sleep for the given number of milliseconds before saving.
    DelayMs(u64),
}

/// A schedule of faults: per-row save faults plus per-point operation
/// faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rows: HashMap<usize, SaveFault>,
    ops: HashMap<(Point, u64), Injected>,
    /// The generation whose ingest panics, if any.
    ingest_panic: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Panics when the pipeline is about to save dataset row `row`.
    pub fn panic_at(mut self, row: usize) -> Self {
        self.rows.insert(row, SaveFault::Panic);
        self
    }

    /// Sleeps `ms` milliseconds when about to save dataset row `row`.
    pub fn delay_at(mut self, row: usize, ms: u64) -> Self {
        self.rows.insert(row, SaveFault::DelayMs(ms));
        self
    }

    /// Panics inside the engine ingest that becomes generation
    /// `generation`, after its phase 1.
    pub fn panic_in_ingest(mut self, generation: u64) -> Self {
        self.ingest_panic = Some(generation);
        self
    }

    /// Fails the `k`-th IO operation (0-based) of the scope.
    pub fn fail_io(mut self, k: u64) -> Self {
        self.ops.insert((Point::Io, k), Injected::Fail);
        self
    }

    /// Tears the `k`-th IO operation: if it is a write, only the first
    /// `keep` bytes of its buffer reach the file before the injected
    /// error; any other operation fails outright.
    pub fn torn_write(mut self, k: u64, keep: usize) -> Self {
        self.ops.insert((Point::Io, k), Injected::Torn { keep });
        self
    }

    /// Drops the link at the `k`-th link operation (0-based) of the
    /// scope; each poll is two operations (send, then receive).
    pub fn drop_link(mut self, k: u64) -> Self {
        self.ops.insert((Point::Link, k), Injected::Fail);
        self
    }
}

#[derive(Debug)]
struct Active {
    plan: FaultPlan,
    /// The thread that opened the scope; only it numbers operations.
    owner: ThreadId,
    /// Next operation number, per [`Point`].
    next_op: [u64; 2],
    fired: bool,
}

/// The active plan, if a [`scoped`] call is in flight.
static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

/// Serializes [`scoped`] calls across test threads.
static SCOPE: Mutex<()> = Mutex::new(());

fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
    // Faults fire after the guard is released, so these locks are never
    // poisoned by an injected panic; recover defensively anyway.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with `plan` active, returning its result and whether any
/// fault fired. Calls are serialized process-wide; the plan is cleared
/// afterwards even if `f` panics.
pub fn scoped<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> (R, bool) {
    let _serial = lock(&SCOPE);
    *lock(&ACTIVE) = Some(Active {
        plan,
        owner: thread::current().id(),
        next_op: [0; 2],
        fired: false,
    });
    struct Clear;
    impl Drop for Clear {
        fn drop(&mut self) {
            *lock(&ACTIVE) = None;
        }
    }
    let _clear = Clear;
    let out = f();
    let fired = lock(&ACTIVE).as_ref().is_some_and(|a| a.fired);
    (out, fired)
}

/// The pipeline-side hook: fires the fault scheduled for `row`, if any.
/// No-op when no plan is active.
pub fn hit(row: usize) {
    let fault = {
        let mut guard = lock(&ACTIVE);
        let Some(active) = guard.as_mut() else {
            return;
        };
        let fault = active.plan.rows.get(&row).copied();
        active.fired |= fault.is_some();
        fault
    };
    match fault {
        Some(SaveFault::Panic) => {
            std::panic::resume_unwind(Box::new(format!("injected fault at row {row}")))
        }
        Some(SaveFault::DelayMs(ms)) => thread::sleep(Duration::from_millis(ms)),
        None => {}
    }
}

/// The engine-side hook: panics when the plan schedules a panic for the
/// ingest becoming `generation`. No-op when no plan is active.
pub fn ingest(generation: u64) {
    let fire = {
        let mut guard = lock(&ACTIVE);
        let Some(active) = guard.as_mut() else {
            return;
        };
        let fire = active.plan.ingest_panic == Some(generation);
        active.fired |= fire;
        fire
    };
    if fire {
        std::panic::resume_unwind(Box::new(format!(
            "injected fault in ingest at generation {generation}"
        )));
    }
}

/// Numbers one operation at `point` and reports the fault scheduled for
/// it, if any. `None` when no plan is active or the caller is not the
/// thread that opened the scope.
pub fn tick(point: Point) -> Option<Injected> {
    let mut guard = lock(&ACTIVE);
    let active = guard
        .as_mut()
        .filter(|a| a.owner == thread::current().id())?;
    let op = active.next_op[point as usize];
    active.next_op[point as usize] += 1;
    let injected = active.plan.ops.get(&(point, op)).copied();
    active.fired |= injected.is_some();
    injected
}
