//! The serving loop: resident sessions, deadlines, shedding, recovery.
//!
//! The daemon owns a [`Workspace`] and serves protocol requests against
//! a resident [`Session`] over a Unix socket. Its lifetime is a
//! sequence of **epochs**: within an epoch the program is immutable and
//! a fixed pool of workers answers `check`/`query`/`stats` requests
//! concurrently; an `edit` that parses ends the serving scope, the
//! workers finish the requests they hold, and the barrier lowers the
//! edited workspace once. If it lowers, the workspace advances and the
//! next epoch's session is built over that program, with the incremental
//! machinery ([`diff_and_adopt`]) arming the persistent store to adopt
//! every cluster the edit provably did not touch; if not, the edit is
//! rejected and the epoch resumes.
//!
//! Threads wait on events, not timers. One acceptor lives for the whole
//! [`serve`] call: it blocks in `accept` and feeds a daemon-wide bounded
//! queue, so an epoch's end needs no wake-up, and connections that
//! arrive during a barrier wait in the queue for the next epoch's
//! workers. The workers and the watchdog live for one serving scope: the
//! barrier joins the workers, which take no new connection once the
//! scope has ended, and then tells the watchdog to return. Only shutdown
//! wakes the acceptor, with one connection to the daemon's own socket
//! that no worker ever sees.
//!
//! Robustness layers, in request order:
//!
//! * **Shedding** — the acceptor keeps a bounded queue of accepted
//!   connections; beyond the cap it answers `overloaded` with a retry
//!   hint and closes, so latency stays bounded under storm load, and the
//!   connections that arrive during an edit barrier stay bounded too.
//! * **Deadlines & cancellation** — each request's [`QueryLimits`]
//!   carry a wall deadline and a cancel flag; while a request is in
//!   flight a watchdog thread polls its connection and flips the flag
//!   when the client vanishes, so abandoned work degrades down the
//!   precision ladder and returns instead of wedging a worker.
//! * **Isolation** — request handlers run under `catch_unwind`; a
//!   panicked batch is retried once on a fresh analyzer with a doubled
//!   interning arena (the parallel driver's cluster-retry idiom), and a
//!   second failure becomes a structured `internal-panic` error.
//! * **Recovery** — every epoch is journaled (temp + rename +
//!   checksum); after SIGKILL a restart replays the journal and the
//!   store warm-starts the session to the same findings a cold run of
//!   that workspace produces.
//!
//! [`FaultPhase::Serve`] plans inject daemon-level faults for the chaos
//! soak: `panic` drops the connection without answering at the chosen
//! request tick, `budget` stalls the worker, and `arena-full` corrupts
//! the journal after its next publish. Analysis-phase plans pass
//! through to the session config unchanged.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::{self, Write};
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bootstrap_checks::{render_text, run_checks_with, CheckerKind};
use bootstrap_client::{decode_request, hex_u64, DirtySummary, Json, Request, Response, MAX_FRAME};
use bootstrap_core::{
    diff_and_adopt, snapshot, Analyzer, Config, DegradeReason, DirtyReport, FaultKind, FaultPhase,
    FaultPlan, Interner, PartitionSnapshot, QueryLimits, Session, StoreConfig,
};
use bootstrap_ir::{Loc, Program};

use crate::journal;
use crate::workspace::{Workspace, WorkspaceError};

/// Retry hint sent with `overloaded` responses.
const RETRY_AFTER_MS: u64 = 25;
/// How long a worker waits for a request frame before giving up on the
/// connection (slow-writer protection).
const READ_TIMEOUT_MS: u64 = 2_000;
/// Ceiling on time spent flushing one response to a slow reader.
const WRITE_TIMEOUT_MS: u64 = 2_000;
/// Worker stall injected by a `budget` serve fault.
const STALL_MS: u64 = 120;
/// Watchdog poll interval for disconnect detection while a request is
/// in flight.
const WATCH_POLL_MS: u64 = 10;
/// Pause after a failed `accept` (out of file descriptors, say), so the
/// acceptor cannot spin.
const ACCEPT_BACKOFF_MS: u64 = 2;

/// Configuration for [`serve`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Unix socket path to listen on (an existing file is replaced).
    pub socket: PathBuf,
    /// Persistent store + journal directory. `None` disables both
    /// warm-start and crash recovery.
    pub cache_dir: Option<PathBuf>,
    /// Worker threads answering requests within an epoch.
    pub workers: usize,
    /// Accepted connections queued ahead of the workers before the
    /// acceptor starts shedding with `overloaded`.
    pub queue_cap: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Deterministic fault injection. [`FaultPhase::Serve`] plans run at
    /// the daemon layer; any other phase is forwarded to the session.
    pub fault_plan: Option<FaultPlan>,
    /// Initial workspace when no journal exists (name → source).
    pub seed_files: BTreeMap<String, String>,
}

impl ServeOptions {
    /// Defaults: 2 workers, queue of 8, no deadline, no faults.
    pub fn new(socket: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            socket: socket.into(),
            cache_dir: None,
            workers: 2,
            queue_cap: 8,
            default_deadline_ms: None,
            fault_plan: None,
            seed_files: BTreeMap::new(),
        }
    }
}

/// Runs the daemon until a `shutdown` request. Blocks the calling
/// thread; tests run it on a spawned thread and stop it via the client.
pub fn serve(opts: ServeOptions) -> io::Result<()> {
    Arc::new(Daemon {
        opts,
        counters: Counters::default(),
        next_watch: AtomicU64::new(0),
        corrupt_journal_armed: AtomicBool::new(false),
        intake: Mutex::default(),
        available: Condvar::new(),
    })
    .run()
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    panics: AtomicU64,
    retried: AtomicU64,
    injected: AtomicU64,
    edits_applied: AtomicU64,
    edits_rejected: AtomicU64,
    /// Clusters marked dirty (recomputed) across all edits.
    dirty_clusters_total: AtomicU64,
    /// Clusters total across all edit diffs (the recompute denominator).
    clusters_total: AtomicU64,
}

struct Daemon {
    opts: ServeOptions,
    counters: Counters,
    next_watch: AtomicU64,
    /// Set by an `arena-full` serve fault: corrupt the journal right
    /// after its next publish.
    corrupt_journal_armed: AtomicBool,
    /// Accepted connections waiting for a worker. The acceptor fills it
    /// for the daemon's lifetime, and every epoch's workers serve it.
    intake: Mutex<Intake>,
    /// Signalled when a connection is queued or a serving scope ends.
    available: Condvar,
}

/// The daemon-wide queue of accepted connections.
#[derive(Default)]
struct Intake {
    conns: VecDeque<UnixStream>,
    /// Set by `shutdown`: the acceptor queues nothing more, and the last
    /// scope's workers answer what it queued before `serve` returns.
    closed: bool,
}

/// How an epoch's serving scope wound down.
enum EpochOutcome {
    /// An edit was accepted; the next epoch serves it.
    Edit(Box<PendingEdit>),
    Shutdown,
}

/// An accepted edit on its way across the epoch barrier: the client
/// awaiting `edit_ok`, which carries the next epoch's dirty accounting,
/// and the workspace with the program its validation lowered.
struct PendingEdit {
    reply: UnixStream,
    workspace: Workspace,
    program: Program,
}

/// A connection being watched for client disconnect.
struct WatchEntry {
    id: u64,
    stream: UnixStream,
    cancel: Arc<AtomicBool>,
}

/// Connections being watched, and whether the scope's workers have all
/// returned, which ends the watchdog.
#[derive(Default)]
struct Watch {
    entries: Vec<WatchEntry>,
    done: bool,
}

/// One serving scope of an epoch: its resident session and workspace,
/// and the state its workers and watchdog share.
struct EpochCx<'a, 'p> {
    session: &'a Session<'p>,
    workspace: &'a Workspace,
    epoch: u64,
    dirty_now: Option<DirtySummary>,
    /// The scope is over: its workers take no new connection, except
    /// after a shutdown, when they drain the closed intake.
    end: AtomicBool,
    /// An edit that parsed, with the client awaiting its answer: the
    /// barrier lowers it.
    pending_edit: Mutex<Option<(UnixStream, Workspace)>>,
    watch: Mutex<Watch>,
    /// Signalled when a connection is watched or the watchdog should
    /// return.
    watched: Condvar,
}

impl Daemon {
    fn journal_path(&self) -> Option<PathBuf> {
        self.opts.cache_dir.as_ref().map(|d| d.join("journal.bin"))
    }

    fn run(self: Arc<Self>) -> io::Result<()> {
        let start = self.recover()?;

        match fs::remove_file(&self.opts.socket) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(&self.opts.socket)?;
        let bound = socket_id(&self.opts.socket);
        let acceptor = {
            let daemon = Arc::clone(&self);
            std::thread::spawn(move || daemon.acceptor(listener))
        };

        // However the epochs end, a worker's panic included, the acceptor
        // is stopped before `serve` returns or the panic resumes.
        let served = catch_unwind(AssertUnwindSafe(|| self.serve_epochs(start)));
        self.lock_intake().closed = true;
        self.stop_acceptor(acceptor, bound);
        if let Err(panic) = served {
            resume_unwind(panic);
        }
        Ok(())
    }

    /// Serves epochs from the recovered workspace, its program and its
    /// epoch, until a `shutdown`.
    fn serve_epochs(&self, (mut workspace, mut program, mut epoch): (Workspace, Program, u64)) {
        let mut prev: Option<PartitionSnapshot> = None;
        let mut reply: Option<UnixStream> = None;
        loop {
            let (outcome, snap) =
                self.run_epoch(&program, &workspace, epoch, prev.as_ref(), reply.take());
            prev = Some(snap);
            match outcome {
                EpochOutcome::Shutdown => return,
                EpochOutcome::Edit(edit) => {
                    let edit = *edit;
                    workspace = edit.workspace;
                    program = edit.program;
                    epoch += 1;
                    self.journal(epoch, &workspace);
                    reply = Some(edit.reply);
                }
            }
        }
    }

    /// The first workspace to serve, lowered once, and its epoch. Crash
    /// recovery replays the last durable epoch when the journal loads and
    /// its workspace still lowers; otherwise (logged) the seed is served,
    /// and a seed that fails to parse or lower fails `serve`.
    fn recover(&self) -> io::Result<(Workspace, Program, u64)> {
        let invalid =
            |e: WorkspaceError| io::Error::new(io::ErrorKind::InvalidInput, e.to_string());
        let build = |files: &BTreeMap<String, String>| {
            Workspace::from_sources(files.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        };
        let seed = build(&self.opts.seed_files).map_err(invalid)?;
        let replayed = self.journal_path().and_then(|jp| match journal::load(&jp) {
            Ok(Some(state)) => build(&state.files)
                .and_then(|ws| ws.lower().map(|program| (ws, program, state.epoch)))
                .map_err(|e| {
                    eprintln!(
                        "bootstrap-daemon: journaled workspace no longer builds ({e}); \
                         starting from seed"
                    )
                })
                .ok(),
            Ok(None) => None,
            Err(e) => {
                eprintln!("bootstrap-daemon: {e}; starting from seed workspace");
                None
            }
        });
        let (workspace, program, epoch) = match replayed {
            Some(r) => r,
            None => {
                let program = seed.lower().map_err(invalid)?;
                (seed, program, 0)
            }
        };
        // Make the starting epoch durable immediately so a kill before the
        // first edit still recovers to it.
        self.journal(epoch, &workspace);
        Ok((workspace, program, epoch))
    }

    /// Journals `epoch`'s workspace when the daemon has a cache directory.
    fn journal(&self, epoch: u64, workspace: &Workspace) {
        if let Some(jp) = self.journal_path() {
            if let Err(e) = journal::save(&jp, epoch, &workspace.sources()) {
                eprintln!("bootstrap-daemon: journal write failed: {e}");
            }
            self.maybe_corrupt_journal(&jp);
        }
    }

    /// An `arena-full` serve fault corrupts the journal's trailing
    /// checksum byte after a publish; recovery must detect it and fall
    /// back rather than serve a garbled epoch.
    fn maybe_corrupt_journal(&self, path: &Path) {
        if self.corrupt_journal_armed.swap(false, Ordering::SeqCst) {
            if let Ok(mut bytes) = fs::read(path) {
                if let Some(last) = bytes.last_mut() {
                    *last ^= 0xff;
                    let _ = fs::write(path, bytes);
                }
            }
        }
    }

    /// Serves one epoch of `program`. The session's single fingerprint
    /// pass diffs it against `prev`, the previous epoch's snapshot, and
    /// arms store adoption; `reply`, the edit that opened the epoch, is
    /// then answered with that dirty accounting. Returns how the epoch
    /// ended and its snapshot, which the next epoch diffs against.
    fn run_epoch(
        &self,
        program: &Program,
        workspace: &Workspace,
        epoch: u64,
        prev: Option<&PartitionSnapshot>,
        reply: Option<UnixStream>,
    ) -> (EpochOutcome, PartitionSnapshot) {
        let mut config = Config {
            store: self.opts.cache_dir.clone().map(StoreConfig::new),
            ..Config::default()
        };
        if let Some(plan) = self.opts.fault_plan {
            if plan.phase != FaultPhase::Serve {
                config.fault_plan = Some(plan);
            }
        }
        let session = Session::new(program, config);

        let (snap, dirty_now) = match prev {
            None => (snapshot(&session), None),
            Some(prev) => {
                let (report, snap) = diff_and_adopt(prev, &session);
                self.counters
                    .dirty_clusters_total
                    .fetch_add(report.dirty_clusters as u64, Ordering::Relaxed);
                self.counters
                    .clusters_total
                    .fetch_add(report.total_clusters as u64, Ordering::Relaxed);
                (snap, Some(summary_of(report)))
            }
        };
        if let Some(mut reply) = reply {
            let resp = Response::EditOk {
                epoch,
                dirty: dirty_now.clone().unwrap_or_default(),
            };
            let _ = write_response(&mut reply, &resp);
        }

        // Serve until an edit or a shutdown ends the scope. The barrier
        // lowers the edit here, on the thread that builds every session:
        // a program lowered on a worker would outlive that thread, and
        // holding one across an epoch raised peak RSS by a fifth on the
        // deep-chains workload (EXPERIMENTS.md). A rejected edit resumes
        // the epoch in a fresh scope.
        loop {
            let cx = EpochCx {
                session: &session,
                workspace,
                epoch,
                dirty_now: dirty_now.clone(),
                end: AtomicBool::new(false),
                pending_edit: Mutex::new(None),
                watch: Mutex::default(),
                watched: Condvar::new(),
            };
            self.serve_scope(&cx);
            if self.lock_intake().closed {
                return (EpochOutcome::Shutdown, snap);
            }
            let (mut reply, workspace) = cx
                .pending_edit
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("epoch ended without edit or shutdown");
            match workspace.lower() {
                Ok(program) => {
                    self.counters.edits_applied.fetch_add(1, Ordering::Relaxed);
                    let edit = PendingEdit {
                        reply,
                        workspace,
                        program,
                    };
                    return (EpochOutcome::Edit(Box::new(edit)), snap);
                }
                Err(e) => self.reject_edit(&mut reply, &e),
            }
        }
    }

    fn lock_intake(&self) -> MutexGuard<'_, Intake> {
        self.intake.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Accepts connections for the daemon's lifetime, blocking in
    /// `accept`, into the queue that every epoch's workers serve; beyond
    /// `queue_cap` it sheds with `overloaded`. Connections that arrive
    /// during an epoch barrier wait in the queue, or are shed, for the
    /// next epoch. Once the intake is closed, the next connection it
    /// accepts (the daemon's own wake-up, or a late client) is dropped
    /// unanswered, and the acceptor returns, closing the listener.
    fn acceptor(&self, listener: UnixListener) {
        loop {
            let accepted = listener.accept();
            let mut intake = self.lock_intake();
            if intake.closed {
                return;
            }
            let Ok((mut stream, _)) = accepted else {
                drop(intake);
                std::thread::sleep(Duration::from_millis(ACCEPT_BACKOFF_MS));
                continue;
            };
            if intake.conns.len() < self.opts.queue_cap.max(1) {
                intake.conns.push_back(stream);
                drop(intake);
                self.available.notify_one();
                continue;
            }
            drop(intake);
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            let _ = write_response(
                &mut stream,
                &Response::Overloaded {
                    retry_after_ms: RETRY_AFTER_MS,
                },
            );
        }
    }

    /// Wakes the acceptor, blocked in `accept`, with one connection to
    /// the daemon's own socket, removes the socket file and joins the
    /// acceptor. The intake must be closed first, so that the wake-up is
    /// dropped unanswered. If the socket file is no longer the one `bind`
    /// made (`bound`), a connection could reach another process, and if
    /// the connection fails, joining would wait for one that may never
    /// come: then the file is left alone and the acceptor is not joined;
    /// it exits at the next connection it accepts.
    fn stop_acceptor(&self, acceptor: JoinHandle<()>, bound: Option<(u64, u64)>) {
        let socket = &self.opts.socket;
        if socket_id(socket) != bound || UnixStream::connect(socket).is_err() {
            eprintln!(
                "bootstrap-daemon: could not wake the acceptor; it exits on its next connection"
            );
            return;
        }
        let _ = fs::remove_file(socket);
        if let Err(panic) = acceptor.join() {
            resume_unwind(panic);
        }
    }

    /// Serves one scope of an epoch until an edit or a shutdown ends it.
    /// The barrier joins the workers, which take no new connection once
    /// the scope has ended, and then tells the watchdog to return; no
    /// thread waits out a timer. A worker's panic propagates once the
    /// watchdog has returned.
    fn serve_scope(&self, cx: &EpochCx<'_, '_>) {
        std::thread::scope(|s| {
            s.spawn(|| self.watchdog(cx));
            let workers: Vec<_> = (0..self.opts.workers.max(1))
                .map(|_| s.spawn(|| self.worker(cx)))
                .collect();
            let panics: Vec<_> = workers.into_iter().filter_map(|w| w.join().err()).collect();
            cx.watch.lock().unwrap_or_else(|e| e.into_inner()).done = true;
            cx.watched.notify_one();
            if let Some(panic) = panics.into_iter().next() {
                resume_unwind(panic);
            }
        });
    }

    /// Ends the serving scope: its workers finish the requests they hold
    /// and take no new one. `shutdown` also closes the intake, so the
    /// acceptor queues nothing more and the workers answer what it has
    /// queued. The flag flips under the intake's lock, so no worker can
    /// miss it between looking at the queue and waiting.
    fn end_scope(&self, cx: &EpochCx<'_, '_>, shutdown: bool) {
        let mut intake = self.lock_intake();
        intake.closed |= shutdown;
        cx.end.store(true, Ordering::SeqCst);
        drop(intake);
        self.available.notify_all();
    }

    /// Probes the watched connections every `WATCH_POLL_MS` while any
    /// request is in flight; a vanished client flips its request's
    /// cancel flag so the ladder abandons the work at the next budget
    /// checkpoint. With nothing to watch it waits untimed, and it
    /// returns as soon as the barrier has joined the scope's workers.
    fn watchdog(&self, cx: &EpochCx<'_, '_>) {
        let mut watch = cx.watch.lock().unwrap_or_else(|e| e.into_inner());
        while !watch.done {
            for entry in watch.entries.iter_mut() {
                // A non-blocking 1-byte read: `Ok(0)` is EOF (the
                // client hung up), `WouldBlock` means still
                // connected and quiet. The protocol is one request
                // per connection, so any byte consumed here was
                // excess the server would never read anyway.
                let mut buf = [0u8; 1];
                match io::Read::read(&mut entry.stream, &mut buf) {
                    Ok(0) => entry.cancel.store(true, Ordering::SeqCst),
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => entry.cancel.store(true, Ordering::SeqCst),
                }
            }
            watch = if watch.entries.is_empty() {
                cx.watched.wait(watch).unwrap_or_else(|e| e.into_inner())
            } else {
                let poll = Duration::from_millis(WATCH_POLL_MS);
                let (watch, _) = cx
                    .watched
                    .wait_timeout(watch, poll)
                    .unwrap_or_else(|e| e.into_inner());
                watch
            };
        }
    }

    fn worker(&self, cx: &EpochCx<'_, '_>) {
        loop {
            let conn = {
                let mut intake = self.lock_intake();
                loop {
                    let end = cx.end.load(Ordering::SeqCst);
                    // An ended scope takes no new connection, so a storm
                    // cannot hold up the barrier; the next epoch serves
                    // the queue. After a shutdown nothing more is queued,
                    // and what is queued is answered.
                    if end && !intake.closed {
                        break None;
                    }
                    if let Some(c) = intake.conns.pop_front() {
                        break Some(c);
                    }
                    if end {
                        break None;
                    }
                    intake = self
                        .available
                        .wait(intake)
                        .unwrap_or_else(|e| e.into_inner());
                }
            };
            let Some(conn) = conn else { return };
            self.handle(conn, cx);
        }
    }

    fn handle(&self, mut conn: UnixStream, cx: &EpochCx<'_, '_>) {
        let tick = self.counters.requests.fetch_add(1, Ordering::SeqCst) + 1;
        let _ = conn.set_read_timeout(Some(Duration::from_millis(READ_TIMEOUT_MS)));
        let payload = match bootstrap_client::read_frame(&mut conn) {
            Ok(Some(p)) => p,
            // Clean connect-then-leave; nothing to answer.
            Ok(None) => return,
            Err(e) => {
                let _ = write_response(
                    &mut conn,
                    &Response::Error {
                        kind: "frame-error".into(),
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        let req = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                let _ = write_response(
                    &mut conn,
                    &Response::Error {
                        kind: "bad-request".into(),
                        message: e.0,
                    },
                );
                return;
            }
        };

        if let Some(plan) = self.opts.fault_plan {
            if plan.applies_to(FaultPhase::Serve, None) && tick == plan.at_tick {
                self.counters.injected.fetch_add(1, Ordering::Relaxed);
                match plan.kind {
                    // Simulated mid-response crash: drop the connection
                    // without answering. The client retries.
                    FaultKind::Panic => return,
                    // Stalled worker: the queue backs up and the
                    // acceptor sheds.
                    FaultKind::Budget => std::thread::sleep(Duration::from_millis(STALL_MS)),
                    // Durable-state damage: garble the journal after its
                    // next publish; restart recovery must catch it.
                    FaultKind::ArenaFull => {
                        self.corrupt_journal_armed.store(true, Ordering::SeqCst);
                    }
                }
            }
        }

        match req {
            Request::Check { kinds, deadline_ms } => {
                self.handle_check(conn, cx, &kinds, deadline_ms)
            }
            Request::Query {
                func,
                stmt,
                var,
                deadline_ms,
            } => self.handle_query(conn, cx, &func, stmt, &var, deadline_ms),
            Request::Stats => {
                let resp = self.stats_response(cx);
                let _ = write_response(&mut conn, &resp);
            }
            Request::Edit { file, content } => {
                self.handle_edit(conn, cx, &file, content.as_deref())
            }
            Request::Shutdown => {
                let _ = write_response(&mut conn, &Response::ShutdownOk);
                self.end_scope(cx, true);
            }
        }
    }

    /// Fresh limits for one request: its deadline (or the daemon's
    /// default) and a cancel flag for the watchdog to raise.
    fn limits_for(&self, deadline_ms: Option<u64>) -> QueryLimits {
        QueryLimits {
            deadline: deadline_ms
                .or(self.opts.default_deadline_ms)
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            cancel: Some(Arc::new(AtomicBool::new(false))),
        }
    }

    /// Runs one request's analysis in isolation. While `job` runs, the
    /// connection is watched, so a vanished client raises the cancel flag
    /// of `limits`. A panic is retried once on a fresh analyzer over a
    /// doubled private arena (poisoned shared state is left behind, arena
    /// overflow gets headroom); a second one is answered with a structured
    /// `internal-panic` error naming `what`, and yields `None`.
    fn isolated<'a, T>(
        &self,
        conn: &mut UnixStream,
        cx: &EpochCx<'a, '_>,
        limits: &QueryLimits,
        what: &str,
        job: impl Fn(Analyzer<'a>) -> T,
    ) -> Option<T> {
        let watch = limits
            .cancel
            .clone()
            .and_then(|cancel| self.register_watch(cx, conn, cancel));
        let session = cx.session;
        let result = catch_unwind(AssertUnwindSafe(|| job(session.analyzer()))).or_else(|_| {
            self.counters.panics.fetch_add(1, Ordering::Relaxed);
            self.counters.retried.fetch_add(1, Ordering::Relaxed);
            catch_unwind(AssertUnwindSafe(|| {
                job(session.analyzer_with_arena(Arc::new(Interner::with_max_ids(
                    session.config().cond_cap,
                    session.config().interner_max_ids.saturating_mul(2),
                ))))
            }))
        });
        self.unregister_watch(cx, conn, watch);
        if result.is_err() {
            let _ = write_response(
                conn,
                &Response::Error {
                    kind: "internal-panic".into(),
                    message: format!("{what} panicked twice; request isolated"),
                },
            );
        }
        result.ok()
    }

    fn handle_check(
        &self,
        mut conn: UnixStream,
        cx: &EpochCx<'_, '_>,
        kind_names: &[String],
        deadline_ms: Option<u64>,
    ) {
        let kinds: Vec<CheckerKind> = if kind_names.is_empty() {
            CheckerKind::ALL.to_vec()
        } else {
            match kind_names
                .iter()
                .map(|n| CheckerKind::parse(n).ok_or(n))
                .collect::<Result<Vec<_>, _>>()
            {
                Ok(k) => k,
                Err(unknown) => {
                    let _ = write_response(
                        &mut conn,
                        &Response::Error {
                            kind: "bad-request".into(),
                            message: format!("unknown checker `{unknown}`"),
                        },
                    );
                    return;
                }
            }
        };
        let limits = self.limits_for(deadline_ms);
        let session = cx.session;
        let Some(report) = self.isolated(&mut conn, cx, &limits, "check batch", |az| {
            run_checks_with(session, &kinds, &limits, az)
        }) else {
            return;
        };
        if limits.cancelled() {
            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        let findings = report.findings.len() as u64;
        let resp = Response::CheckOk {
            text: render_text(&report, None),
            findings,
            exit_code: u64::from(findings > 0),
        };
        let _ = write_response(&mut conn, &resp);
    }

    fn handle_query(
        &self,
        mut conn: UnixStream,
        cx: &EpochCx<'_, '_>,
        func: &str,
        stmt: u64,
        var: &str,
        deadline_ms: Option<u64>,
    ) {
        let program = cx.session.program();
        let fail = |conn: &mut UnixStream, message: String| {
            let _ = write_response(
                conn,
                &Response::Error {
                    kind: "bad-request".into(),
                    message,
                },
            );
        };
        let Some(fid) = program.func_named(func) else {
            return fail(&mut conn, format!("unknown function `{func}`"));
        };
        let exit = program.func(fid).exit();
        if stmt > u64::from(exit.stmt) {
            return fail(
                &mut conn,
                format!("statement {stmt} out of range for `{func}`"),
            );
        }
        let Some(v) = program.var_named(var) else {
            return fail(&mut conn, format!("unknown variable `{var}`"));
        };
        let loc = Loc::new(fid, stmt as u32);

        let limits = self.limits_for(deadline_ms);
        let session = cx.session;
        let Some(answer) = self.isolated(&mut conn, cx, &limits, "query", |az| {
            session.query_at_loc_limited(&az, v, loc, &limits)
        }) else {
            return;
        };
        if answer.reason == Some(DegradeReason::Cancelled) {
            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        let resp = Response::QueryOk {
            sources: answer
                .sources
                .iter()
                .map(|(s, c)| format!("{} under {c}", s.display(program)))
                .collect(),
            precision: answer.precision.label().to_string(),
            reason: answer.reason.map(|r| r.label().to_string()),
        };
        let _ = write_response(&mut conn, &resp);
    }

    fn handle_edit(
        &self,
        mut conn: UnixStream,
        cx: &EpochCx<'_, '_>,
        file: &str,
        content: Option<&str>,
    ) {
        let mut pending = cx.pending_edit.lock().unwrap_or_else(|e| e.into_inner());
        if pending.is_some() || cx.end.load(Ordering::SeqCst) {
            drop(pending);
            // An epoch barrier is already in flight; the client's
            // backoff resubmits against the next epoch.
            let _ = write_response(
                &mut conn,
                &Response::Overloaded {
                    retry_after_ms: RETRY_AFTER_MS,
                },
            );
            return;
        }
        match cx.workspace.with_edit(file, content) {
            Err(e) => {
                drop(pending);
                self.reject_edit(&mut conn, &e);
            }
            Ok(next) => {
                // The reply is deferred: the barrier validates the merged
                // program, and `edit_ok` carries the next epoch's dirty
                // accounting.
                *pending = Some((conn, next));
                drop(pending);
                self.end_scope(cx, false);
            }
        }
    }

    fn reject_edit(&self, conn: &mut UnixStream, e: &WorkspaceError) {
        self.counters.edits_rejected.fetch_add(1, Ordering::Relaxed);
        let kind = match e {
            WorkspaceError::Parse { .. } => "parse-error",
            WorkspaceError::Duplicate { .. } | WorkspaceError::Lower(_) => "invalid-edit",
        };
        let _ = write_response(
            conn,
            &Response::Error {
                kind: kind.into(),
                message: e.to_string(),
            },
        );
    }

    fn stats_response(&self, cx: &EpochCx<'_, '_>) -> Response {
        let c = &self.counters;
        let store = cx.session.store_counters();
        let last_edit = match &cx.dirty_now {
            None => Json::Null,
            Some(d) => Json::obj([
                ("total_partitions", Json::Int(d.total_partitions as i64)),
                ("dirty_partitions", Json::Int(d.dirty_partitions as i64)),
                ("total_clusters", Json::Int(d.total_clusters as i64)),
                ("dirty_clusters", Json::Int(d.dirty_clusters as i64)),
                ("adopted", Json::Bool(d.adopted)),
            ]),
        };
        let load = |a: &AtomicU64| Json::Int(a.load(Ordering::Relaxed) as i64);
        Response::StatsOk(Json::obj([
            ("epoch", Json::Int(cx.epoch as i64)),
            ("files", Json::Int(cx.workspace.file_count() as i64)),
            ("program_hash", hex_u64(cx.session.program_content_hash())),
            ("workers", Json::Int(self.opts.workers as i64)),
            ("queue_cap", Json::Int(self.opts.queue_cap as i64)),
            ("requests", load(&c.requests)),
            ("shed", load(&c.shed)),
            ("cancelled", load(&c.cancelled)),
            ("panics", load(&c.panics)),
            ("retried", load(&c.retried)),
            ("injected_faults", load(&c.injected)),
            ("edits_applied", load(&c.edits_applied)),
            ("edits_rejected", load(&c.edits_rejected)),
            ("dirty_clusters_total", load(&c.dirty_clusters_total)),
            ("clusters_total", load(&c.clusters_total)),
            ("store_hits", Json::Int(store.hits as i64)),
            ("store_misses", Json::Int(store.misses as i64)),
            ("store_invalidated", Json::Int(store.invalidated as i64)),
            ("last_edit", last_edit),
        ]))
    }

    /// Registers a connection for disconnect watching and wakes the
    /// watchdog to poll it. The watchdog's probe reads a clone of the
    /// socket without blocking, which makes the socket itself
    /// non-blocking until [`Daemon::unregister_watch`].
    fn register_watch(
        &self,
        cx: &EpochCx<'_, '_>,
        conn: &UnixStream,
        cancel: Arc<AtomicBool>,
    ) -> Option<u64> {
        let stream = conn.try_clone().ok()?;
        let _ = conn.set_nonblocking(true);
        let id = self.next_watch.fetch_add(1, Ordering::SeqCst);
        cx.watch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .push(WatchEntry { id, stream, cancel });
        cx.watched.notify_one();
        Some(id)
    }

    /// Stops watching `conn` and puts it back in blocking mode for the
    /// reply. The entry goes first: the watchdog probes only under the
    /// watch lock, so no probe can then block on the socket.
    fn unregister_watch(&self, cx: &EpochCx<'_, '_>, conn: &UnixStream, id: Option<u64>) {
        if let Some(id) = id {
            cx.watch
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entries
                .retain(|e| e.id != id);
            let _ = conn.set_nonblocking(false);
        }
    }
}

fn summary_of(d: DirtyReport) -> DirtySummary {
    DirtySummary {
        total_partitions: d.total_partitions as u64,
        dirty_partitions: d.dirty_partitions as u64,
        total_clusters: d.total_clusters as u64,
        dirty_clusters: d.dirty_clusters as u64,
        adopted: d.adopted,
    }
}

/// The device and inode of the file at `path`, if there is one.
fn socket_id(path: &Path) -> Option<(u64, u64)> {
    fs::metadata(path).ok().map(|m| (m.dev(), m.ino()))
}

/// Frames and writes one response on a blocking connection. Each write
/// is bounded by what remains of `WRITE_TIMEOUT_MS`, so a reader that
/// stops reading gets an error after that ceiling rather than a worker.
fn write_response(conn: &mut UnixStream, resp: &Response) -> io::Result<()> {
    let payload = resp.to_json().to_string().into_bytes();
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "response exceeds MAX_FRAME",
        ));
    }
    let mut buf = Vec::with_capacity(payload.len() + 4);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&payload);
    let deadline = Instant::now() + Duration::from_millis(WRITE_TIMEOUT_MS);
    let mut off = 0;
    while off < buf.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        conn.set_write_timeout(Some(left))?;
        match conn.write(&buf[off..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_reply(bytes: usize) -> Response {
        Response::CheckOk {
            text: "x".repeat(bytes),
            findings: 0,
            exit_code: 0,
        }
    }

    #[test]
    fn a_reply_of_several_mib_arrives_whole() {
        let (mut server, mut client) = UnixStream::pair().unwrap();
        let reader = std::thread::spawn(move || {
            let payload = bootstrap_client::read_frame(&mut client).unwrap().unwrap();
            bootstrap_client::decode_response(&payload).unwrap()
        });
        let reply = big_reply(6 << 20);
        write_response(&mut server, &reply).unwrap();
        assert_eq!(reader.join().unwrap(), reply);
    }

    #[test]
    fn a_peer_that_never_reads_gets_an_error_after_the_ceiling() {
        let (mut server, _client) = UnixStream::pair().unwrap();
        let start = Instant::now();
        let err = write_response(&mut server, &big_reply(6 << 20)).unwrap_err();
        let took = start.elapsed();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
        assert!(
            took >= Duration::from_millis(WRITE_TIMEOUT_MS - 50)
                && took < Duration::from_millis(WRITE_TIMEOUT_MS * 3),
            "gave up after {took:?}"
        );
    }
}
