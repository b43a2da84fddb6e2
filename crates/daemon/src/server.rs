//! The serving loop: resident sessions, deadlines, shedding, recovery.
//!
//! The daemon owns a [`Workspace`] and serves protocol requests against
//! a resident [`Session`] over a Unix socket. Its lifetime is a
//! sequence of **epochs**: within an epoch the program is immutable and
//! a fixed pool of workers answers `check`/`query`/`stats` requests
//! concurrently; an `edit` that parses ends the serving scope, the
//! workers drain, and the barrier lowers the edited workspace once. If
//! it lowers, the workspace advances and the next epoch's session is
//! built over that program, with the incremental machinery
//! ([`diff_and_adopt`]) arming the persistent store to adopt every
//! cluster the edit provably did not touch; if not, the edit is rejected
//! and the epoch resumes.
//!
//! Robustness layers, in request order:
//!
//! * **Shedding** — the acceptor keeps a bounded queue of accepted
//!   connections; beyond the cap it answers `overloaded` with a retry
//!   hint and closes, so latency stays bounded under storm load.
//! * **Deadlines & cancellation** — each request's [`QueryLimits`]
//!   carry a wall deadline and a cancel flag; a watchdog thread polls
//!   in-flight connections and flips the flag when the client vanishes,
//!   so abandoned work degrades down the precision ladder and returns
//!   instead of wedging a worker.
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
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
/// Watchdog poll interval for disconnect detection.
const WATCH_POLL_MS: u64 = 10;

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
    Daemon {
        opts,
        counters: Counters::default(),
        next_watch: AtomicU64::new(0),
        corrupt_journal_armed: AtomicBool::new(false),
    }
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
}

/// How an epoch's serving scope wound down.
enum EpochOutcome {
    /// An edit was accepted; the next epoch serves it.
    Edit(PendingEdit),
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

/// One epoch: its resident session and workspace, and the state its
/// acceptor, workers and watchdog share.
struct EpochCx<'a, 'p> {
    session: &'a Session<'p>,
    workspace: &'a Workspace,
    epoch: u64,
    dirty_now: Option<DirtySummary>,
    queue: Mutex<VecDeque<UnixStream>>,
    available: Condvar,
    /// Requests currently queued or being handled (watchdog lifetime).
    active: AtomicU64,
    end: AtomicBool,
    shutdown: AtomicBool,
    /// An edit that parsed, with the client awaiting its answer: the
    /// barrier lowers it.
    pending_edit: Mutex<Option<(UnixStream, Workspace)>>,
    watch: Mutex<Vec<WatchEntry>>,
}

impl Daemon {
    fn journal_path(&self) -> Option<PathBuf> {
        self.opts.cache_dir.as_ref().map(|d| d.join("journal.bin"))
    }

    fn run(&self) -> io::Result<()> {
        let (mut workspace, mut program, mut epoch) = self.recover()?;

        match fs::remove_file(&self.opts.socket) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(&self.opts.socket)?;
        listener.set_nonblocking(true)?;

        let mut prev: Option<PartitionSnapshot> = None;
        let mut reply: Option<UnixStream> = None;
        loop {
            let (outcome, snap) = self.run_epoch(
                &listener,
                &program,
                &workspace,
                epoch,
                prev.as_ref(),
                reply.take(),
            );
            prev = Some(snap);
            match outcome {
                EpochOutcome::Shutdown => {
                    let _ = fs::remove_file(&self.opts.socket);
                    return Ok(());
                }
                EpochOutcome::Edit(edit) => {
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
        listener: &UnixListener,
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
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                active: AtomicU64::new(0),
                end: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
                pending_edit: Mutex::new(None),
                watch: Mutex::new(Vec::new()),
            };
            std::thread::scope(|s| {
                for _ in 0..self.opts.workers.max(1) {
                    s.spawn(|| self.worker(&cx));
                }
                s.spawn(|| self.watchdog(&cx));
                self.acceptor(listener, &cx);
            });
            if cx.shutdown.load(Ordering::SeqCst) {
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
                    return (EpochOutcome::Edit(edit), snap);
                }
                Err(e) => self.reject_edit(&mut reply, &e),
            }
        }
    }

    /// Accepts connections into the bounded queue, shedding beyond the
    /// cap. Runs on the epoch scope's own thread until the epoch ends.
    fn acceptor(&self, listener: &UnixListener, cx: &EpochCx<'_, '_>) {
        while !cx.end.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let mut q = cx.queue.lock().unwrap_or_else(|e| e.into_inner());
                    if q.len() >= self.opts.queue_cap.max(1) {
                        drop(q);
                        self.counters.shed.fetch_add(1, Ordering::Relaxed);
                        let mut stream = stream;
                        let _ = write_response(
                            &mut stream,
                            &Response::Overloaded {
                                retry_after_ms: RETRY_AFTER_MS,
                            },
                        );
                    } else {
                        q.push_back(stream);
                        cx.active.fetch_add(1, Ordering::SeqCst);
                        drop(q);
                        cx.available.notify_one();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        cx.available.notify_all();
    }

    /// Polls watched connections; a vanished client flips its request's
    /// cancel flag so the ladder abandons the work at the next budget
    /// checkpoint.
    fn watchdog(&self, cx: &EpochCx<'_, '_>) {
        loop {
            if cx.end.load(Ordering::SeqCst) && cx.active.load(Ordering::SeqCst) == 0 {
                return;
            }
            {
                let mut watch = cx.watch.lock().unwrap_or_else(|e| e.into_inner());
                for entry in watch.iter_mut() {
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
            }
            std::thread::sleep(Duration::from_millis(WATCH_POLL_MS));
        }
    }

    fn worker(&self, cx: &EpochCx<'_, '_>) {
        loop {
            let conn = {
                let mut q = cx.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(c) = q.pop_front() {
                        break Some(c);
                    }
                    if cx.end.load(Ordering::SeqCst) {
                        break None;
                    }
                    let (guard, _) = cx
                        .available
                        .wait_timeout(q, Duration::from_millis(50))
                        .unwrap_or_else(|e| e.into_inner());
                    q = guard;
                }
            };
            let Some(conn) = conn else { return };
            self.handle(conn, cx);
            cx.active.fetch_sub(1, Ordering::SeqCst);
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
                cx.shutdown.store(true, Ordering::SeqCst);
                cx.end.store(true, Ordering::SeqCst);
                cx.available.notify_all();
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
        self.unregister_watch(cx, watch);
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
                cx.end.store(true, Ordering::SeqCst);
                cx.available.notify_all();
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

    /// Registers a connection for disconnect watching. Switches the
    /// socket to non-blocking (the watchdog's `peek` and the response
    /// write both tolerate `WouldBlock`).
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
            .push(WatchEntry { id, stream, cancel });
        Some(id)
    }

    fn unregister_watch(&self, cx: &EpochCx<'_, '_>, id: Option<u64>) {
        if let Some(id) = id {
            cx.watch
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .retain(|e| e.id != id);
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

/// Frames and writes one response, tolerating `WouldBlock` (watched
/// connections are non-blocking) with a hard time ceiling.
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
    let start = Instant::now();
    let mut off = 0;
    while off < buf.len() {
        match conn.write(&buf[off..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if start.elapsed() > Duration::from_millis(WRITE_TIMEOUT_MS) {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
