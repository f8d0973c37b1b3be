//! The thread-per-connection server: single writer, concurrent readers,
//! bounded admission.
//!
//! # Concurrency model
//!
//! The engine is **never shared**: a single writer thread owns the
//! backend outright, fed from a bounded FIFO queue of ingest jobs. Reads
//! never touch the engine — after every drain the writer publishes an
//! [`EngineView`] behind an `Arc`, and connection threads answer
//! `query`/`report`/`snapshot`/`stats` from whichever published view
//! they grab. A view shares the engine's write-once rows and
//! copy-on-write tables, so a publish clones chunk pointers and copies
//! no row, and later ingests copy only the chunks they write that a view
//! still holds. There is no engine lock to contend on and no torn read
//! to defend against; a read races only the *pointer swap*, never the
//! mutation. [`ServerHandle::snapshot`] hands out the view's flat
//! [`EngineState`], built once per published view.
//!
//! # Ordering and equivalence
//!
//! The queue is drained in admission order and each client batch is
//! applied as its **own** `ingest` call (one generation, one WAL record)
//! — coalescing batches *across* a drain never merges them *within* an
//! apply. The final engine state is therefore bit-equal to replaying the
//! acknowledged batches serially in acknowledgement-generation order,
//! which is exactly what the concurrency battery asserts (extending the
//! PR 4 split-invariance contract to concurrent clients).
//!
//! # Backpressure
//!
//! Admission control is a hard bound: when `max_queue` jobs are waiting,
//! new ingests are refused immediately with the typed `overloaded`
//! response (and counted in `serve.rejected_overloaded`) instead of
//! growing the queue without limit. A refused batch was never queued, so
//! it participates in no ordering.
//!
//! # Shutdown
//!
//! Graceful shutdown (SIGTERM/ctrl-c via [`ServerConfig::shutdown_flag`],
//! the `shutdown` op, or [`ServerHandle::request_shutdown`]) closes
//! admission — late ingests get `shutting_down` — then drains the queue
//! completely, so every acknowledged ingest is applied and durable, and
//! finally closes a durable backend ([`DurableEngine::close`]:
//! checkpoint, WAL reset, lock release). Nothing acknowledged is ever
//! lost.
//!
//! # Writer failure
//!
//! Each batch is applied under `catch_unwind`. A panic leaves the engine
//! half-applied, so the writer stops there: the batch that hit it and
//! every batch still queued are answered with the typed `internal`
//! error, admission closes and the server shuts down. Reads keep
//! answering from the last published view until it exits. The backend
//! is dropped, never closed: a checkpoint would persist the half-applied
//! engine. A durable store logged the failed batch before applying it,
//! so a reopen replays it along with every acknowledged one.
//! [`ServerHandle::wait`] returns a [`ShutdownReport`] whose `failure`
//! names the panic.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use disc_core::pipeline::panic_message;
use disc_core::{DiscEngine, EngineState, EngineView, SaveReport};
use disc_distance::Value;
use disc_obs::hist::{REPL_SHIP_MICROS, SHARD_FANOUT_MICROS};
use disc_obs::json::Obj;
use disc_obs::{counters, global_json, hist_json, Histogram};
use disc_persist::{snapshot, store, wal, DurableEngine};

use crate::protocol::{
    self, Request, KIND_INTERNAL, KIND_INVALID, KIND_IO, KIND_NOT_LEADER, KIND_OVERLOADED,
    KIND_REJECTED, KIND_SHUTTING_DOWN, MAX_LINE_BYTES,
};

/// How the server stores ingested rows.
pub enum EngineBackend {
    /// In-memory only; state dies with the process.
    Memory(DiscEngine),
    /// Crash-safe: WAL-append + fsync before every apply, checkpoint on
    /// close.
    Durable(DurableEngine),
}

impl EngineBackend {
    fn engine(&self) -> &DiscEngine {
        match self {
            EngineBackend::Memory(engine) => engine,
            EngineBackend::Durable(store) => store.engine(),
        }
    }

    /// Applies `rows`: an engine refusal is `rejected` with the engine's
    /// own message, any other (storage) failure is `io`.
    fn ingest(&mut self, rows: Vec<Vec<Value>>) -> Result<SaveReport, IngestError> {
        let result = match self {
            EngineBackend::Memory(engine) => {
                engine.ingest(rows).map_err(disc_persist::Error::Engine)
            }
            EngineBackend::Durable(store) => store.ingest(rows),
        };
        result.map_err(|e| match e {
            disc_persist::Error::Engine(e) => IngestError {
                kind: KIND_REJECTED,
                message: e.to_string(),
            },
            other => IngestError {
                kind: KIND_IO,
                message: other.to_string(),
            },
        })
    }

    /// Final flush: checkpoint + lock release for a durable backend.
    fn close(self) -> Option<String> {
        match self {
            EngineBackend::Memory(_) => None,
            EngineBackend::Durable(store) => store.close().err().map(|e| e.to_string()),
        }
    }

    fn store_dir(&self) -> Option<PathBuf> {
        match self {
            EngineBackend::Memory(_) => None,
            EngineBackend::Durable(store) => Some(store.dir().to_path_buf()),
        }
    }
}

/// Which side of replication this server is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerRole {
    /// The single writer. Serves every verb; `replicate` ships WAL
    /// frames when the backend is durable.
    Leader,
    /// A catch-up read replica: reads are served from replicated state,
    /// writes are refused with a typed `not_leader` error naming the
    /// leader to retry against.
    Follower {
        /// The leader's client address, surfaced in `not_leader` errors
        /// and `repl_status`.
        leader_addr: String,
    },
}

/// A follower's replication health, published by the replication
/// applier and served by the `repl_status` verb.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplHealth {
    /// Whether the link to the leader is currently up.
    pub connected: bool,
    /// The leader's generation as of the last successful poll.
    pub leader_generation: u64,
    /// This replica's last durably applied generation.
    pub applied_generation: u64,
    /// Reconnect attempts that followed a broken link.
    pub reconnects: u64,
    /// Snapshot installs (bootstrap and gap resyncs).
    pub snapshots_installed: u64,
}

impl ReplHealth {
    /// Generations the replica trails the leader by (saturating; 0 when
    /// caught up or when the leader has not been seen yet).
    pub fn lag(&self) -> u64 {
        self.leader_generation
            .saturating_sub(self.applied_generation)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port (read the bound
    /// address back from [`ServerHandle::addr`]).
    pub addr: String,
    /// Ingest-queue capacity: jobs beyond this are refused `overloaded`.
    pub max_queue: usize,
    /// Artificial pause before each writer drain, holding queued jobs in
    /// place. A load-shaping/test hook: it makes queue-full windows
    /// deterministic. `None` (the default) drains as fast as possible.
    pub writer_throttle: Option<Duration>,
    /// Poll interval for connection reads and the accept loop; bounds
    /// how long shutdown waits on idle connections.
    pub poll_interval: Duration,
    /// External shutdown request (a signal handler writes it; the accept
    /// loop polls it).
    pub shutdown_flag: Option<&'static AtomicBool>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_queue: 64,
            writer_throttle: None,
            poll_interval: Duration::from_millis(25),
            shutdown_flag: None,
        }
    }
}

/// A successfully applied (and, on a durable backend, fsynced) ingest.
#[derive(Debug, Clone)]
pub struct Acked {
    /// The generation this batch became; acknowledged batches replayed
    /// serially in generation order reproduce the engine bit-for-bit.
    pub generation: u64,
    /// The save report for this batch — bit-equal to the report the same
    /// batch would produce ingested serially at the same generation.
    pub report: SaveReport,
}

/// Why an ingest was not applied. `kind` is the wire-protocol error kind
/// (`overloaded`, `shutting_down`, `rejected`, `io`, or `internal`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestError {
    /// Typed kind, one of the `protocol::KIND_*` constants.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

/// What the writer thread hands back after the final drain.
#[derive(Debug)]
pub struct ShutdownReport {
    /// The last published state (after a clean drain, every
    /// acknowledged ingest applied).
    pub state: EngineState,
    /// The generation of `state`.
    pub generation: u64,
    /// A durable backend's close failure, if any. Even then, every
    /// acknowledged ingest is already durable in the WAL.
    pub close_error: Option<String>,
    /// Why the writer stopped early, if it did: a panic while applying a
    /// batch (see the [module docs](self)). The backend was not closed.
    pub failure: Option<String>,
}

struct Job {
    rows: Vec<Vec<Value>>,
    reply: mpsc::Sender<Result<Acked, IngestError>>,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Per-verb request latency (microseconds), reported by the `stats` op.
#[derive(Default)]
struct Latency {
    ingest: Histogram,
    query: Histogram,
    report: Histogram,
    stats: Histogram,
    snapshot: Histogram,
    replicate: Histogram,
}

struct Shared {
    queue: Mutex<Queue>,
    not_empty: Condvar,
    /// The latest published engine view; swapped whole by the writer
    /// (leader) or the replication applier (follower).
    view: Mutex<Arc<EngineView>>,
    latency: Mutex<Latency>,
    shutdown: AtomicBool,
    max_queue: usize,
    role: ServerRole,
    /// The durable store directory, when the backend has one — the
    /// leader's `replicate` verb reads WAL frames and snapshot images
    /// straight from these files (both are safe to read concurrently
    /// with the writer: appends are frame-at-a-time and the snapshot is
    /// atomically replaced).
    repl_source: Option<PathBuf>,
    /// Follower replication health, published by the applier.
    repl_health: Mutex<ReplHealth>,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        drop(q);
        self.not_empty.notify_all();
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Swaps in `view` for readers. The replaced view is dropped after
    /// the lock is released, so no reader waits on freeing it.
    fn publish(&self, view: EngineView) {
        let view = Arc::new(view);
        let replaced = std::mem::replace(
            &mut *self.view.lock().unwrap_or_else(|e| e.into_inner()),
            view,
        );
        drop(replaced);
    }

    fn current(&self) -> Arc<EngineView> {
        self.view.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The shutdown report of the last published view.
    fn report(&self, close_error: Option<String>, failure: Option<String>) -> ShutdownReport {
        let view = self.current();
        ShutdownReport {
            state: EngineState::clone(&view.state()),
            generation: view.generation(),
            close_error,
            failure,
        }
    }

    /// Admission control: enqueue or refuse, atomically against the
    /// writer's drain. A follower has no writer — every ingest is
    /// refused up front with the leader's address, so a job can never
    /// sit in a queue nothing drains.
    fn enqueue(
        &self,
        rows: Vec<Vec<Value>>,
    ) -> Result<mpsc::Receiver<Result<Acked, IngestError>>, IngestError> {
        if let ServerRole::Follower { leader_addr } = &self.role {
            counters::SERVE_REJECTED_NOT_LEADER.incr();
            return Err(IngestError {
                kind: KIND_NOT_LEADER,
                message: format!(
                    "this server is a read replica; write to the leader at {leader_addr}"
                ),
            });
        }
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.closed {
            return Err(IngestError {
                kind: KIND_SHUTTING_DOWN,
                message: "server is draining; ingest not admitted".to_string(),
            });
        }
        if q.jobs.len() >= self.max_queue {
            counters::SERVE_REJECTED_OVERLOAD.incr();
            return Err(IngestError {
                kind: KIND_OVERLOADED,
                message: format!("ingest queue full ({} waiting)", q.jobs.len()),
            });
        }
        let (tx, rx) = mpsc::channel();
        q.jobs.push_back(Job { rows, reply: tx });
        counters::SERVE_QUEUE_DEPTH.set(q.jobs.len() as u64);
        counters::SERVE_REQUESTS_INGEST.incr();
        drop(q);
        self.not_empty.notify_one();
        Ok(rx)
    }
}

/// A running server; see the [module docs](self) for the model.
pub struct Server;

impl Server {
    /// Binds, publishes the backend's current state for readers, and
    /// spawns the writer and accept threads. Returns once listening.
    pub fn start(backend: EngineBackend, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            not_empty: Condvar::new(),
            view: Mutex::new(Arc::new(backend.engine().view())),
            latency: Mutex::new(Latency::default()),
            shutdown: AtomicBool::new(false),
            max_queue: config.max_queue.max(1),
            role: ServerRole::Leader,
            repl_source: backend.store_dir(),
            repl_health: Mutex::new(ReplHealth::default()),
        });

        let writer = {
            let shared = Arc::clone(&shared);
            let throttle = config.writer_throttle;
            thread::Builder::new()
                .name("disc-serve-writer".to_string())
                .spawn(move || writer_loop(backend, &shared, throttle))?
        };

        let (connections, accept) = Self::start_accept(listener, &shared, &config)?;
        Ok(ServerHandle {
            addr,
            shared,
            connections,
            writer: Some(writer),
            accept,
        })
    }

    /// Binds a **read replica**: no writer thread, reads served from the
    /// state the returned [`StatePublisher`] publishes, ingests refused
    /// with `not_leader` naming `leader_addr`. The replication applier
    /// (which owns the replica's durable store) drives the publisher and
    /// watches [`StatePublisher::is_shutting_down`] to exit with the
    /// server.
    pub fn start_replica(
        initial: EngineView,
        leader_addr: String,
        config: ServerConfig,
    ) -> std::io::Result<(ServerHandle, StatePublisher)> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            not_empty: Condvar::new(),
            view: Mutex::new(Arc::new(initial)),
            latency: Mutex::new(Latency::default()),
            shutdown: AtomicBool::new(false),
            max_queue: config.max_queue.max(1),
            role: ServerRole::Follower { leader_addr },
            repl_source: None,
            repl_health: Mutex::new(ReplHealth::default()),
        });

        let (connections, accept) = Self::start_accept(listener, &shared, &config)?;
        let publisher = StatePublisher {
            shared: Arc::clone(&shared),
        };
        Ok((
            ServerHandle {
                addr,
                shared,
                connections,
                writer: None,
                accept,
            },
            publisher,
        ))
    }

    #[allow(clippy::type_complexity)]
    fn start_accept(
        listener: TcpListener,
        shared: &Arc<Shared>,
        config: &ServerConfig,
    ) -> std::io::Result<(Arc<Mutex<Vec<JoinHandle<()>>>>, JoinHandle<()>)> {
        let connections = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(shared);
            let connections = Arc::clone(&connections);
            let poll = config.poll_interval;
            let flag = config.shutdown_flag;
            thread::Builder::new()
                .name("disc-serve-accept".to_string())
                .spawn(move || accept_loop(listener, &shared, &connections, poll, flag))?
        };
        Ok((connections, accept))
    }
}

/// A follower server's write half: the replication applier publishes
/// a view of each newly applied engine (and its health) through this
/// handle, exactly as the leader's writer thread publishes after each
/// drain. Reads on the replica always see a complete view.
pub struct StatePublisher {
    shared: Arc<Shared>,
}

impl StatePublisher {
    /// Publish a new engine view for readers.
    pub fn publish(&self, view: EngineView) {
        self.shared.publish(view);
    }

    /// Publish replication health (served by `repl_status`) and mirror
    /// the lag into the `repl.lag_generations` gauge.
    pub fn set_health(&self, health: ReplHealth) {
        counters::REPL_LAG_GENERATIONS.set(health.lag());
        *self
            .shared
            .repl_health
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = health;
    }

    /// True once the server began shutting down (signal or `shutdown`
    /// op) — the applier's cue to stop polling and close its store.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// Begin server shutdown from the applier side (e.g. the leader
    /// told us to stop, or the applier hit an unrecoverable error).
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

/// Control handle for a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// The single writer thread; `None` on a follower, whose state is
    /// mutated by the replication applier instead.
    writer: Option<JoinHandle<ShutdownReport>>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The latest published engine view (what reads are served from).
    pub fn view(&self) -> Arc<EngineView> {
        self.shared.current()
    }

    /// The flat image of the latest published view, built at most once
    /// per view: calls at one generation share one image.
    pub fn snapshot(&self) -> Arc<EngineState> {
        self.shared.current().state()
    }

    /// In-process client: submit a batch through the same admission
    /// queue TCP clients use and block for the acknowledgement.
    pub fn ingest(&self, rows: Vec<Vec<Value>>) -> Result<Acked, IngestError> {
        let rx = self.shared.enqueue(rows)?;
        rx.recv().unwrap_or_else(|_| {
            Err(IngestError {
                kind: KIND_SHUTTING_DOWN,
                message: "writer exited before replying".to_string(),
            })
        })
    }

    /// Begin graceful shutdown: close admission, let the writer drain.
    /// Returns immediately; [`ServerHandle::wait`] completes the drain.
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the server shuts down (external flag, `shutdown` op,
    /// [`ServerHandle::request_shutdown`], or a writer failure), then
    /// completes the drain: joins the accept loop, every connection, and
    /// the writer, and returns the final engine state.
    pub fn wait(self) -> ShutdownReport {
        // The accept loop exits only after a shutdown request (it polls
        // the external flag and the internal state).
        let _ = self.accept.join();
        // Redundant when the accept loop already initiated it; harmless.
        self.shared.begin_shutdown();
        // The writer drains every admitted job, replies to each, then
        // exits — joining it is the "no acknowledged ingest lost" step.
        // A follower has no writer: its final state is whatever the
        // replication applier last published (the applier durably owns
        // the store and closes it itself).
        let report = match self.writer {
            Some(writer) => writer.join().unwrap_or_else(|payload| {
                let failure = format!("writer thread panicked: {}", panic_message(payload));
                self.shared.report(None, Some(failure))
            }),
            None => self.shared.report(None, None),
        };
        // Connection threads see the shutdown flag at their next poll
        // tick (all pending replies were just delivered).
        let handles: Vec<JoinHandle<()>> = {
            let mut conns = self.connections.lock().unwrap_or_else(|e| e.into_inner());
            conns.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        report
    }
}

fn writer_loop(
    mut backend: EngineBackend,
    shared: &Shared,
    throttle: Option<Duration>,
) -> ShutdownReport {
    let mut published = backend.engine().generation();
    loop {
        let jobs: Vec<Job> = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            while q.jobs.is_empty() && !q.closed {
                q = shared.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            if q.jobs.is_empty() {
                break; // closed and fully drained
            }
            if let Some(pause) = throttle {
                // Pause with the jobs still *queued* (lock released), so
                // the backpressure window is observable and testable.
                drop(q);
                thread::sleep(pause);
                q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            }
            let drained = q.jobs.drain(..).collect();
            counters::SERVE_QUEUE_DEPTH.set(0);
            drained
        };
        // Coalesced apply: one pass over many queued batches, but each
        // batch keeps its own ingest call (own generation, own WAL
        // record) so reports stay bit-equal to serial execution.
        let mut jobs = jobs.into_iter();
        while let Some(job) = jobs.next() {
            let outcome = match catch_unwind(AssertUnwindSafe(|| backend.ingest(job.rows))) {
                Ok(outcome) => outcome.map(|report| Acked {
                    generation: backend.engine().generation(),
                    report,
                }),
                Err(payload) => {
                    let failure = format!(
                        "the writer panicked applying generation {}: {}",
                        backend.engine().generation(),
                        panic_message(payload)
                    );
                    return writer_failed(shared, job.reply, jobs, failure);
                }
            };
            // A dropped receiver (client hung up mid-wait) is fine: the
            // batch is applied and durable regardless.
            let _ = job.reply.send(outcome);
        }
        // A drain whose every batch was rejected changed nothing, and
        // republishing would only make readers rebuild the same image.
        if backend.engine().generation() != published {
            published = backend.engine().generation();
            shared.publish(backend.engine().view());
        }
    }
    // The loop exits only on an empty, closed queue, so the last drain
    // (or `Server::start`) already published this generation.
    let close_error = backend.close();
    shared.report(close_error, None)
}

/// Contains a writer panic (see the [module docs](self)): answers the
/// failed job's `reply`, the rest of its drain and every job still
/// queued with `internal`, and shuts the server down on the last
/// published view. The caller drops the backend unclosed.
fn writer_failed(
    shared: &Shared,
    reply: mpsc::Sender<Result<Acked, IngestError>>,
    drain: impl Iterator<Item = Job>,
    failure: String,
) -> ShutdownReport {
    shared.begin_shutdown();
    let queued: Vec<Job> = {
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        counters::SERVE_QUEUE_DEPTH.set(0);
        q.jobs.drain(..).collect()
    };
    let replies = std::iter::once(reply).chain(drain.chain(queued).map(|job| job.reply));
    for reply in replies {
        let _ = reply.send(Err(IngestError {
            kind: KIND_INTERNAL,
            message: failure.clone(),
        }));
    }
    shared.report(None, Some(failure))
}

fn accept_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    poll: Duration,
    flag: Option<&'static AtomicBool>,
) {
    loop {
        if flag.is_some_and(|f| f.load(Ordering::SeqCst)) {
            shared.begin_shutdown();
        }
        if shared.is_shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                counters::SERVE_CONNECTIONS.incr();
                let shared = Arc::clone(shared);
                let handle = thread::Builder::new()
                    .name("disc-serve-conn".to_string())
                    .spawn(move || connection_loop(stream, &shared, poll));
                let mut conns = connections.lock().unwrap_or_else(|e| e.into_inner());
                // A finished thread keeps its stack mapped until joined.
                for done in conns.extract_if(.., |h| h.is_finished()) {
                    let _ = done.join();
                }
                if let Ok(handle) = handle {
                    conns.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(poll),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => thread::sleep(poll),
        }
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>, poll: Duration) {
    counters::SERVE_OPEN_CONNECTIONS.inc();
    serve_connection(stream, shared, poll);
    counters::SERVE_OPEN_CONNECTIONS.dec();
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>, poll: Duration) {
    // Timeouts keep reads from pinning a thread past shutdown; a partial
    // line survives across timeouts in `line`, since `read_until` keeps
    // the bytes it read before an error. Each read stops one byte past
    // `MAX_LINE_BYTES`, so an over-long line shows without buffering
    // the rest of it.
    let _ = stream.set_read_timeout(Some(poll));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        let budget = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', &mut line) {
            Ok(_) if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                let response = protocol::error_response(None, KIND_INVALID, &message);
                let out = reader.get_mut();
                let _ = out
                    .write_all(response.as_bytes())
                    .and_then(|()| out.write_all(b"\n"));
                return;
            }
            // EOF, between lines or inside one.
            Ok(_) if line.last() != Some(&b'\n') => return,
            Ok(_) => {
                let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                let request = text.trim();
                if !request.is_empty() {
                    let response = handle_request(request, shared);
                    let out = reader.get_mut();
                    if out.write_all(response.as_bytes()).is_err() || out.write_all(b"\n").is_err()
                    {
                        return;
                    }
                }
                line.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.is_shutting_down() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Decode, dispatch, and render one request line.
fn handle_request(line: &str, shared: &Arc<Shared>) -> String {
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err(bad) => return protocol::error_response(None, bad.kind, &bad.message),
    };
    let op = request.op();
    let started = Instant::now();
    let response = match request {
        Request::Ingest { rows } => {
            let n = rows.len();
            match shared.enqueue(rows) {
                Ok(rx) => match rx.recv() {
                    Ok(Ok(acked)) => protocol::ingest_response(acked.generation, n, &acked.report),
                    Ok(Err(e)) => protocol::error_response(Some("ingest"), e.kind, &e.message),
                    Err(_) => protocol::error_response(
                        Some("ingest"),
                        KIND_SHUTTING_DOWN,
                        "writer exited before replying",
                    ),
                },
                Err(e) => protocol::error_response(Some("ingest"), e.kind, &e.message),
            }
        }
        Request::Query { row } => {
            counters::SERVE_REQUESTS_QUERY.incr();
            protocol::query_response(&shared.current(), row)
        }
        Request::Report => {
            counters::SERVE_REQUESTS_REPORT.incr();
            protocol::report_response(&shared.current())
        }
        Request::Stats => {
            counters::SERVE_REQUESTS_STATS.incr();
            stats_response(shared)
        }
        Request::Snapshot => {
            counters::SERVE_REQUESTS_SNAPSHOT.incr();
            protocol::snapshot_response(&shared.current())
        }
        Request::Replicate {
            from,
            max_frames,
            need_snapshot,
        } => {
            counters::REPL_REQUESTS.incr();
            match &shared.repl_source {
                Some(dir) => replicate_response(shared, dir, from, max_frames, need_snapshot),
                None => protocol::error_response(
                    Some("replicate"),
                    KIND_INVALID,
                    match shared.role {
                        ServerRole::Leader => {
                            "replication requires a durable backend (serve with --wal)"
                        }
                        ServerRole::Follower { .. } => {
                            "this server is itself a replica; replicate from the leader"
                        }
                    },
                ),
            }
        }
        Request::ReplStatus => repl_status_response(shared),
        Request::Shutdown => {
            shared.begin_shutdown();
            let mut o = Obj::new();
            o.raw("ok", "true").str("op", "shutdown");
            o.finish()
        }
    };
    let micros = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let mut latency = shared.latency.lock().unwrap_or_else(|e| e.into_inner());
    match op {
        "ingest" => latency.ingest.record(micros),
        "query" => latency.query.record(micros),
        "report" => latency.report.record(micros),
        "stats" => latency.stats.record(micros),
        "snapshot" => latency.snapshot.record(micros),
        "replicate" => latency.replicate.record(micros),
        _ => {}
    }
    response
}

/// Serve one `replicate` pull from the leader's store files. The frame
/// plan: ship the WAL suffix continuing exactly from `from`; when the
/// log cannot continue (a fresh follower, or a checkpoint discarded the
/// needed frames) ship the current snapshot image plus the frames past
/// it. Either way the follower receives a sequence it can apply
/// exactly once.
fn replicate_response(
    shared: &Shared,
    dir: &std::path::Path,
    from: u64,
    max_frames: usize,
    need_snapshot: bool,
) -> String {
    let fail = |e: &disc_persist::Error| {
        protocol::error_response(Some("replicate"), KIND_IO, &e.to_string())
    };
    let frames = match wal::frames_after(&store::wal_path(dir), from, max_frames) {
        Ok(frames) => frames,
        Err(e) => return fail(&e),
    };
    let leader_generation = shared.current().generation();
    let continues = frames.first().is_some_and(|f| f.generation == from + 1);
    let (snapshot_bytes, frames) = if continues && !need_snapshot {
        (None, frames)
    } else {
        // The log does not continue from `from`; decide via the
        // snapshot. (Reading it is cheap at checkpoint cadence, and the
        // atomic-rename protocol means we always see a complete image.)
        let (bytes, data) = match snapshot::read_snapshot_bytes(dir) {
            Ok(pair) => pair,
            Err(e) => return fail(&e),
        };
        let snap_gen = data.state.generation;
        if need_snapshot || snap_gen > from {
            // Bootstrap or resync from the image, then the frames past
            // it (contiguous by the WAL invariants: the log never holds
            // a gap above the snapshot).
            let after: Vec<_> = frames
                .into_iter()
                .filter(|f| f.generation > snap_gen)
                .collect();
            (Some(bytes), after)
        } else if frames.is_empty() {
            // Caught up: nothing past `from` anywhere.
            (None, frames)
        } else {
            // Frames exist past `from` but neither the log nor the
            // snapshot bridges the gap — a store no crash can produce.
            return protocol::error_response(
                Some("replicate"),
                KIND_IO,
                &format!(
                    "store cannot continue from generation {from}: log resumes at {}, snapshot at {snap_gen}",
                    frames[0].generation
                ),
            );
        }
    };
    if snapshot_bytes.is_some() {
        counters::REPL_SNAPSHOTS_SHIPPED.incr();
    }
    counters::REPL_FRAMES_SHIPPED.add(frames.len() as u64);
    counters::REPL_BYTES_SHIPPED.add(
        frames.iter().map(|f| f.payload.len() as u64).sum::<u64>()
            + snapshot_bytes.as_ref().map_or(0, |b| b.len() as u64),
    );
    protocol::replicate_response(leader_generation, snapshot_bytes.as_deref(), &frames)
}

/// Render `repl_status` for either role.
fn repl_status_response(shared: &Shared) -> String {
    let generation = shared.current().generation();
    let mut o = Obj::new();
    o.raw("ok", "true").str("op", "repl_status");
    match &shared.role {
        ServerRole::Leader => {
            o.str("role", "leader").u64("generation", generation).raw(
                "replicable",
                if shared.repl_source.is_some() {
                    "true"
                } else {
                    "false"
                },
            );
        }
        ServerRole::Follower { leader_addr } => {
            let health = shared
                .repl_health
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            o.str("role", "follower")
                .u64("generation", generation)
                .str("leader", leader_addr)
                .raw("connected", if health.connected { "true" } else { "false" })
                .u64("leader_generation", health.leader_generation)
                .u64("applied_generation", health.applied_generation)
                .u64("lag", health.lag())
                .u64("reconnects", health.reconnects)
                .u64("snapshots_installed", health.snapshots_installed);
        }
    }
    o.finish()
}

fn stats_response(shared: &Shared) -> String {
    let latency = shared.latency.lock().unwrap_or_else(|e| e.into_inner());
    let mut lat = Obj::new();
    lat.raw("ingest", &hist_json(&latency.ingest))
        .raw("query", &hist_json(&latency.query))
        .raw("report", &hist_json(&latency.report))
        .raw("stats", &hist_json(&latency.stats))
        .raw("snapshot", &hist_json(&latency.snapshot))
        .raw("replicate", &hist_json(&latency.replicate))
        // Engine-side shard fan-out latency (process-wide, recorded by
        // the sharded engine itself). Served here only — it never enters
        // the pinned `disc-stats/1` document or report equality.
        .raw("shard_fanout", &hist_json(&SHARD_FANOUT_MICROS.snapshot()))
        // Follower-side ship latency (round-trip + durable apply per
        // non-empty replicate poll); same served-only contract.
        .raw("repl_ship", &hist_json(&REPL_SHIP_MICROS.snapshot()));
    drop(latency);
    let mut o = Obj::new();
    o.raw("ok", "true")
        .str("op", "stats")
        // Like every other read, stats names the generation of the
        // published image it describes, so clients can correlate
        // counters with a specific engine state.
        .u64("generation", shared.current().generation())
        .u64("queue_depth", counters::SERVE_QUEUE_DEPTH.get())
        .raw("latency_micros", &lat.finish())
        .raw("process", &global_json(&[("source", "disc-serve")]));
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::{DistanceConstraints, SaverConfig};
    use disc_data::Schema;
    use disc_distance::TupleDistance;

    #[test]
    fn finished_connection_threads_are_joined() {
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let engine = DiscEngine::new(Schema::numeric(2), Box::new(saver));
        let config = ServerConfig {
            poll_interval: Duration::from_millis(1),
            ..ServerConfig::default()
        };
        let handle = Server::start(EngineBackend::Memory(engine), config).unwrap();
        for _ in 0..300 {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            stream.write_all(b"{\"op\":\"report\"}\n").unwrap();
            let mut reply = String::new();
            BufReader::new(&stream).read_line(&mut reply).unwrap();
            assert!(reply.contains("\"ok\":true"), "{reply}");
        }
        let held = handle.connections.lock().unwrap().len();
        assert!(
            held <= 8,
            "{held} connection handles held after 300 closed connections"
        );
        handle.request_shutdown();
        handle.wait();
    }

    #[test]
    fn shutdown_publishes_no_new_image() {
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let engine = DiscEngine::new(Schema::numeric(2), Box::new(saver));
        let handle = Server::start(EngineBackend::Memory(engine), ServerConfig::default()).unwrap();
        let acked = handle
            .ingest(vec![vec![Value::Num(0.0), Value::Num(0.0)]; 5])
            .unwrap();
        // Acks precede publication: wait for the drain's image.
        while handle.snapshot().generation != acked.generation {
            thread::sleep(Duration::from_millis(1));
        }
        let published = handle.snapshot();
        assert!(
            Arc::ptr_eq(&published, &handle.snapshot()),
            "one view built two images"
        );
        let shared = Arc::clone(&handle.shared);
        handle.request_shutdown();
        let report = handle.wait();
        assert!(
            Arc::ptr_eq(&published, &shared.current().state()),
            "shutdown replaced the published image"
        );
        assert_eq!(report.state, *published);
        assert_eq!(report.generation, acked.generation);
        assert_eq!(report.failure, None);
    }
}
