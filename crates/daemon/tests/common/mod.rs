//! Shared fixture and helpers for the daemon integration and soak tests.
//!
//! The fixture is a multi-file workspace with three *file-local* pointer
//! networks (`a`, `b`, `c`) plus a `main.c` that calls each file's entry
//! point. Because the networks never share pointer flow, Steensgaard
//! keeps them in disjoint partitions — so a single-file edit must leave
//! the other files' partitions (and clusters) provably clean, which is
//! exactly the invariant the soak asserts through `edit_ok` accounting.

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;

use bootstrap_checks::{render_text, run_checks, CheckerKind};
use bootstrap_core::{Config, Session};
use bootstrap_daemon::{serve, ServeOptions, Workspace};

/// Number of textual variants per fixture file.
pub const VARIANTS: u64 = 6;

/// One variant of a file-local pointer network. `v0`/`v3`/`v4` are
/// clean, `v1` is an unconditional null dereference, `v2`/`v5`
/// branch-dependent ones — so edits move findings in and out of the
/// report. `v4` and `v5` have the same statements and differ only in
/// their edges (`v5` puts the assignment in an else arm), so an edit
/// between them changes no statement text.
pub fn variant(prefix: &str, v: u64) -> String {
    let p = prefix;
    let body = match v % VARIANTS {
        0 => format!("{p}p = {p}id(&{p}a); {p}x = *{p}p;"),
        1 => format!("{p}p = NULL; {p}x = *{p}p;"),
        2 => format!("if ({p}c) {{ {p}p = &{p}a; }} else {{ {p}p = NULL; }} {p}x = *{p}p;"),
        3 => format!("{p}q = &{p}b; {p}p = {p}id({p}q); {p}x = *{p}p;"),
        4 => format!("if ({p}c) {{ {p}p = NULL; }} {p}p = &{p}a; {p}x = *{p}p;"),
        _ => format!("if ({p}c) {{ {p}p = NULL; }} else {{ {p}p = &{p}a; }} {p}x = *{p}p;"),
    };
    format!(
        "int {p}a; int {p}b; int {p}c; int {p}x;\n\
         int *{p}p; int *{p}q;\n\
         int *{p}id(int *{p}arg) {{ return {p}arg; }}\n\
         void {p}ent() {{ {body} }}\n"
    )
}

/// The `main.c` that stitches the three networks together.
pub fn main_file() -> String {
    "void main() { aent(); bent(); cent(); }\n".to_string()
}

/// Workspace sources for a given per-file variant assignment.
pub fn files_for(state: &BTreeMap<&'static str, u64>) -> BTreeMap<String, String> {
    let mut files = BTreeMap::new();
    for (&name, &v) in state {
        let prefix = &name[..1];
        files.insert(name.to_string(), variant(prefix, v));
    }
    files.insert("main.c".to_string(), main_file());
    files
}

/// The seed variant assignment: every network at variant 0.
pub fn seed_state() -> BTreeMap<&'static str, u64> {
    BTreeMap::from([("a.c", 0), ("b.c", 0), ("c.c", 0)])
}

/// What a cold, store-less, single-process run of `check` produces for
/// a workspace — the ground truth the daemon must match byte-for-byte.
pub struct Cold {
    pub text: String,
    pub findings: u64,
    pub hash: u64,
}

/// Builds the same merged program the daemon lowers (file-name order)
/// and runs all checkers with no store and no faults.
pub fn cold_eval(files: &BTreeMap<String, String>) -> Cold {
    let ws = Workspace::from_sources(files.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        .expect("fixture workspace must build");
    let program = ws.lower().expect("fixture workspace must lower");
    let session = Session::new(&program, Config::default());
    let report = run_checks(&session, &CheckerKind::ALL);
    Cold {
        text: render_text(&report, None),
        findings: report.findings.len() as u64,
        hash: session.program_content_hash(),
    }
}

/// The exit-statement index of `func` in the merged program, the
/// canonical place to observe a pointer's final value.
pub fn exit_stmt(files: &BTreeMap<String, String>, func: &str) -> u64 {
    let ws = Workspace::from_sources(files.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        .expect("fixture workspace must build");
    let program = ws.lower().expect("fixture workspace must lower");
    let fid = program.func_named(func).expect("function exists");
    u64::from(program.func(fid).exit().stmt)
}

/// A fresh scratch directory under the system temp dir.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsa-daemon-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A socket path short enough for `sockaddr_un`.
pub fn tmp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bsa-{}-{tag}.sock", std::process::id()))
}

/// Runs the daemon on a background thread; stop it with a `shutdown`
/// request and join the handle.
pub fn spawn_daemon(opts: ServeOptions) -> thread::JoinHandle<io::Result<()>> {
    thread::spawn(move || serve(opts))
}

/// Waits for the daemon's listening socket to appear. Deliberately does
/// not open a probe connection: request ticks drive deterministic fault
/// injection, and a dropped probe would still consume a tick once the
/// acceptor drains it. The socket file appears only after `bind`, at
/// which point the listener's backlog already accepts connects.
pub fn wait_socket(path: &Path) {
    for _ in 0..2_000 {
        if path.exists() {
            return;
        }
        thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon socket {} never appeared", path.display());
}

/// splitmix64, for seeded storm schedules.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
