//! The daemon side: an in-process `serve` over a generated workspace, the
//! one closed-loop client that drives it, and a traced replica of the
//! daemon's epoch turnover built from the same public calls.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bootstrap_checks::CheckReport;
use bootstrap_client::{Client, Request, Response};
use bootstrap_core::{diff_and_adopt, snapshot, PartitionSnapshot, Session};
use bootstrap_daemon::{journal, serve, ServeOptions, Workspace};

use crate::ops;
use crate::trace::Trace;

/// A running daemon and the client connected to it.
pub struct Daemon {
    client: Client,
    handle: JoinHandle<io::Result<()>>,
}

impl Daemon {
    /// Starts `serve` on a thread over `files`, with its socket and cache
    /// under `dir`, and returns once it answers a `stats` request (its
    /// first session is built by then).
    pub fn start(dir: &Path, files: BTreeMap<String, String>, workers: usize) -> Daemon {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("daemon directory");
        let socket = dir.join("d.sock");
        let mut opts = ServeOptions::new(&socket);
        opts.cache_dir = Some(dir.join("cache"));
        opts.workers = workers;
        opts.seed_files = files;
        let handle = std::thread::spawn(move || serve(opts));
        let client = Client::new(&socket);
        loop {
            assert!(!handle.is_finished(), "daemon exited during start-up");
            if socket.exists() {
                if let Ok(Response::StatsOk(_)) = client.request_once(&Request::Stats) {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Daemon { client, handle }
    }

    pub fn stop(self) {
        let _ = self.client.request(&Request::Shutdown);
        self.handle
            .join()
            .expect("daemon thread joins")
            .expect("daemon exits cleanly");
    }

    /// One request and its client-side latency.
    pub fn send(&self, req: &Request) -> (io::Result<Response>, f64) {
        let t = Instant::now();
        let resp = self.client.request_once(req);
        (resp, t.elapsed().as_secs_f64())
    }
}

pub fn check_request() -> Request {
    Request::Check {
        kinds: vec![],
        deadline_ms: None,
    }
}

/// The functions a `check` reply's text warns about, or `None` when a
/// line is anything other than a full-precision null-deref warning.
pub fn warned_functions(text: &str) -> Option<Vec<String>> {
    text.lines()
        .map(|line| {
            let rest = line.strip_prefix("warning[null-deref] ")?;
            if line.contains("[confidence:") {
                return None;
            }
            Some(rest.split([':', '@']).next()?.to_string())
        })
        .collect()
}

/// `true` when `report` holds exactly one full-precision null-deref
/// warning in each of `expected` and nothing else.
pub fn report_matches(report: &CheckReport, expected: &BTreeSet<String>) -> bool {
    let mut funcs = Vec::new();
    for f in &report.findings {
        if f.checker != bootstrap_checks::CheckerKind::NullDeref
            || f.severity != bootstrap_checks::Severity::Warning
            || f.precision != bootstrap_core::Precision::Fscs
        {
            return false;
        }
        funcs.push(f.func.clone());
    }
    funcs.len() == expected.len() && funcs.into_iter().collect::<BTreeSet<_>>() == *expected
}

/// The daemon's epoch turnover and check, replayed in process with a
/// span around each public call, in the order `serve` makes them.
pub struct Replica {
    ws: Workspace,
    dir: PathBuf,
    epoch: u64,
    prev: PartitionSnapshot,
}

impl Replica {
    /// Builds the first epoch and primes its store with one check, as the
    /// benchmark primes the daemon.
    pub fn start(dir: &Path, files: &BTreeMap<String, String>) -> Replica {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("replica directory");
        let ws = Workspace::from_sources(files.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .expect("generated workspace builds");
        journal::save(&dir.join("journal.bin"), 0, &ws.sources()).expect("journal saves");
        let program = ws.lower().expect("workspace lowers");
        let session = Session::new(&program, ops::config(Some(&dir.join("cache"))));
        let prev = snapshot(&session);
        bootstrap_checks::run_checks(&session, &bootstrap_checks::CheckerKind::ALL);
        drop(session);
        Replica {
            ws,
            dir: dir.to_path_buf(),
            epoch: 0,
            prev,
        }
    }

    /// One edit: validate, journal, rebuild the session, diff and adopt,
    /// snapshot, then the check batch. Returns the check report.
    pub fn edit(&mut self, file: &str, content: &str, tr: &mut Trace) -> CheckReport {
        let next = tr
            .time("ir.parse", || self.ws.with_edit(file, Some(content)))
            .expect("generated edit parses");
        tr.time("ir.lower", || next.lower())
            .expect("edited workspace lowers");
        self.ws = next;
        self.epoch += 1;
        let journal_path = self.dir.join("journal.bin");
        tr.time("daemon.journal_save", || {
            journal::save(&journal_path, self.epoch, &self.ws.sources())
        })
        .expect("journal saves");
        let program = tr
            .time("ir.lower", || self.ws.lower())
            .expect("workspace lowers");
        let session = ops::session_traced(&program, Some(&self.dir.join("cache")), tr);
        tr.time("core.diff_and_adopt", || {
            diff_and_adopt(&self.prev, &session)
        });
        self.prev = tr.time("core.snapshot", || snapshot(&session));
        let (report, _) = ops::check_batch_traced(&session, tr);
        tr.time("core.session_drop", || drop(session));
        report
    }
}
