//! End-to-end daemon tests: protocol smoke, malformed-wire torture,
//! load shedding, disconnect cancellation, crash recovery, and serving
//! that waits on no timer.

mod common;

use std::collections::BTreeMap;
use std::io::Write;
use std::net::Shutdown;
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use bootstrap_client::{
    decode_response, read_frame, write_frame, Client, DirtySummary, Request, Response,
};
use bootstrap_core::{FaultKind, FaultPhase, FaultPlan};
use bootstrap_daemon::{serve, ServeOptions};

use common::*;

fn stats_field(resp: &Response, key: &str) -> i64 {
    match resp {
        Response::StatsOk(json) => json
            .get(key)
            .and_then(|v| v.as_i64())
            .unwrap_or_else(|| panic!("stats field {key} missing in {json:?}")),
        other => panic!("expected stats_ok, got {other:?}"),
    }
}

fn check_text(client: &Client) -> (String, u64) {
    match client
        .request(&Request::Check {
            kinds: vec![],
            deadline_ms: None,
        })
        .expect("check request")
    {
        Response::CheckOk {
            text,
            findings,
            exit_code,
        } => {
            assert_eq!(exit_code, u64::from(findings > 0));
            (text, findings)
        }
        other => panic!("expected check_ok, got {other:?}"),
    }
}

/// Runs `serve` on a thread whose result arrives on the returned
/// channel, so that a test can bound how long it waits for `serve` to
/// return.
fn serve_on_thread(opts: ServeOptions) -> mpsc::Receiver<std::io::Result<()>> {
    let (done, served) = mpsc::channel();
    thread::spawn(move || done.send(serve(opts)));
    served
}

/// Waits at most 10 s for `serve` to return, so that a missed wake-up
/// fails the test instead of hanging the suite.
fn await_return(served: &mpsc::Receiver<std::io::Result<()>>) {
    served
        .recv_timeout(Duration::from_secs(10))
        .expect("serve did not return within 10 s of shutdown")
        .unwrap();
}

/// Sends `shutdown` over a connection opened earlier.
fn shutdown_over(mut stream: UnixStream) {
    write_frame(
        &mut stream,
        Request::Shutdown.to_json().to_string().as_bytes(),
    )
    .unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("a response");
    assert_eq!(decode_response(&payload).unwrap(), Response::ShutdownOk);
}

fn edit(client: &Client, file: &str, content: &str) -> Response {
    client
        .request(&Request::Edit {
            file: file.to_string(),
            content: Some(content.to_string()),
        })
        .expect("edit request")
}

#[test]
fn smoke_check_query_edit_stats_shutdown() {
    let socket = tmp_socket("smoke");
    let cache = tmp_dir("smoke-cache");
    let mut opts = ServeOptions::new(&socket);
    opts.cache_dir = Some(cache.clone());
    opts.seed_files = files_for(&seed_state());
    let handle = spawn_daemon(opts);
    wait_socket(&socket);
    let client = Client::new(&socket);

    // Epoch 0 serves the seed workspace, identical to a cold run.
    let stats = client.request(&Request::Stats).unwrap();
    assert_eq!(stats_field(&stats, "epoch"), 0);
    assert_eq!(stats_field(&stats, "files"), 4);
    let cold0 = cold_eval(&files_for(&seed_state()));
    let (text0, findings0) = check_text(&client);
    assert_eq!(text0, cold0.text);
    assert_eq!(findings0, cold0.findings);
    assert_eq!(findings0, 0, "seed fixture is clean:\n{text0}");

    // Point query against the resident session, at aent's exit where
    // `ap = aid(&aa)` has taken effect.
    let aent_exit = exit_stmt(&files_for(&seed_state()), "aent");
    match client
        .request(&Request::Query {
            func: "aent".into(),
            stmt: aent_exit,
            var: "ap".into(),
            deadline_ms: None,
        })
        .unwrap()
    {
        Response::QueryOk {
            sources, precision, ..
        } => {
            assert!(
                sources.iter().any(|s| s.contains("&aa")),
                "ap should reach &aa at aent:1, got {sources:?} ({precision})"
            );
        }
        other => panic!("expected query_ok, got {other:?}"),
    }

    // Out-of-range and unknown-name queries are structured errors.
    for bad in [
        Request::Query {
            func: "nosuch".into(),
            stmt: 0,
            var: "ap".into(),
            deadline_ms: None,
        },
        Request::Query {
            func: "aent".into(),
            stmt: 9_999,
            var: "ap".into(),
            deadline_ms: None,
        },
        Request::Query {
            func: "aent".into(),
            stmt: 1,
            var: "nosuch".into(),
            deadline_ms: None,
        },
        Request::Check {
            kinds: vec!["not-a-checker".into()],
            deadline_ms: None,
        },
    ] {
        match client.request(&bad).unwrap() {
            Response::Error { kind, .. } => assert_eq!(kind, "bad-request"),
            other => panic!("expected bad-request error, got {other:?}"),
        }
    }

    // Edit b.c to the null-deref variant: the edit barrier must mark
    // the b network dirty while leaving the a/c networks clean.
    let mut state = seed_state();
    state.insert("b.c", 1);
    match edit(&client, "b.c", &variant("b", 1)) {
        Response::EditOk { epoch, dirty } => {
            assert_eq!(epoch, 1);
            assert!(dirty.total_partitions > 0);
            assert!(
                dirty.dirty_partitions > 0 && dirty.dirty_partitions < dirty.total_partitions,
                "single-file edit must dirty a strict subset of partitions: {dirty:?}"
            );
            // The exact footprint: b's two partitions (and their two
            // clusters) of seven, with a/c's adopted from the store.
            assert_eq!(
                dirty,
                DirtySummary {
                    total_partitions: 7,
                    dirty_partitions: 2,
                    total_clusters: 7,
                    dirty_clusters: 2,
                    adopted: true,
                }
            );
        }
        other => panic!("expected edit_ok, got {other:?}"),
    }
    let cold1 = cold_eval(&files_for(&state));
    let (text1, findings1) = check_text(&client);
    assert_eq!(text1, cold1.text);
    assert!(findings1 > 0, "null-deref variant must produce findings");

    // Re-sending identical content is an epoch with an empty dirty set.
    match edit(&client, "b.c", &variant("b", 1)) {
        Response::EditOk { epoch, dirty } => {
            assert_eq!(epoch, 2);
            assert_eq!(dirty.dirty_partitions, 0, "identical content: {dirty:?}");
            assert_eq!(dirty.dirty_clusters, 0);
        }
        other => panic!("expected edit_ok, got {other:?}"),
    }

    // A parse-error edit is rejected and the resident epoch survives.
    match client
        .request(&Request::Edit {
            file: "b.c".into(),
            content: Some("int *p = = 3;".into()),
        })
        .unwrap()
    {
        Response::Error { kind, .. } => assert_eq!(kind, "parse-error"),
        other => panic!("expected parse-error, got {other:?}"),
    }
    // A cross-file duplicate is rejected too.
    match client
        .request(&Request::Edit {
            file: "dup.c".into(),
            content: Some("void main() { }".into()),
        })
        .unwrap()
    {
        Response::Error { kind, .. } => assert_eq!(kind, "invalid-edit"),
        other => panic!("expected invalid-edit, got {other:?}"),
    }
    let (text_again, _) = check_text(&client);
    assert_eq!(
        text_again, cold1.text,
        "rejected edits must not change state"
    );

    let stats = client.request(&Request::Stats).unwrap();
    assert_eq!(stats_field(&stats, "epoch"), 2);
    assert_eq!(stats_field(&stats, "edits_applied"), 2);
    assert_eq!(stats_field(&stats, "edits_rejected"), 2);
    assert!(stats_field(&stats, "clusters_total") > stats_field(&stats, "dirty_clusters_total"));

    assert!(matches!(
        client.request(&Request::Shutdown).unwrap(),
        Response::ShutdownOk
    ));
    handle.join().unwrap().unwrap();
    assert!(!socket.exists(), "socket removed on shutdown");
}

/// Replays every committed malformed-wire corpus file against a live
/// daemon. Each must produce a structured `error` response (or, for the
/// empty connect-then-leave capture, a clean close) — and the daemon
/// must keep serving fresh connections afterwards.
#[test]
fn malformed_corpus_never_kills_the_daemon() {
    let corpus_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut corpus: Vec<_> = std::fs::read_dir(&corpus_dir)
        .expect("corpus dir")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    corpus.sort();
    assert!(corpus.len() >= 10, "corpus shrank: {corpus:?}");

    let socket = tmp_socket("torture");
    let mut opts = ServeOptions::new(&socket);
    opts.seed_files = files_for(&seed_state());
    let handle = spawn_daemon(opts);
    wait_socket(&socket);
    let client = Client::new(&socket);

    for path in &corpus {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let bytes = std::fs::read(path).unwrap();
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream.write_all(&bytes).unwrap();
        // Half-close so a truncated frame reads as EOF instead of
        // stalling the worker until its read timeout.
        stream.shutdown(Shutdown::Write).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        match read_frame(&mut stream).unwrap_or(None) {
            Some(payload) => {
                let resp = decode_response(&payload)
                    .unwrap_or_else(|e| panic!("{name}: undecodable response: {e}"));
                assert!(
                    matches!(resp, Response::Error { .. }),
                    "{name}: expected structured error, got {resp:?}"
                );
            }
            None => assert_eq!(
                name, "empty.bin",
                "only the empty capture may close without a response"
            ),
        }
        // The very next request on a fresh connection must succeed.
        let stats = client.request(&Request::Stats).unwrap();
        assert!(matches!(stats, Response::StatsOk(_)), "after {name}");
    }

    // Oversized frames in the other direction are refused client-side.
    {
        let mut stream = UnixStream::connect(&socket).unwrap();
        let huge = vec![0u8; 16];
        let mut prefix = Vec::new();
        prefix.extend_from_slice(&u32::MAX.to_le_bytes());
        prefix.extend_from_slice(&huge);
        stream.write_all(&prefix).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let payload = read_frame(&mut stream).unwrap().expect("error response");
        assert!(matches!(
            decode_response(&payload).unwrap(),
            Response::Error { .. }
        ));
    }

    client.request(&Request::Shutdown).unwrap();
    handle.join().unwrap().unwrap();
}

/// One worker, a queue of one, and a serve-fault stalling the first
/// request: a concurrent storm must see `overloaded` shedding, and a
/// retrying client must still get through.
#[test]
fn storm_sheds_and_backoff_recovers() {
    let socket = tmp_socket("shed");
    let mut opts = ServeOptions::new(&socket);
    opts.workers = 1;
    opts.queue_cap = 1;
    opts.fault_plan = Some(FaultPlan {
        phase: FaultPhase::Serve,
        kind: FaultKind::Budget,
        at_tick: 1,
        cluster: None,
    });
    opts.seed_files = files_for(&seed_state());
    let handle = spawn_daemon(opts);
    wait_socket(&socket);

    let shed_seen = AtomicU64::new(0);
    let ok_seen = AtomicU64::new(0);
    thread::scope(|s| {
        for i in 0..24 {
            let socket = socket.clone();
            let shed_seen = &shed_seen;
            let ok_seen = &ok_seen;
            s.spawn(move || {
                let mut client = Client::new(&socket);
                client.seed = i;
                match client.request_once(&Request::Stats) {
                    Ok(Response::Overloaded { retry_after_ms }) => {
                        assert!(retry_after_ms > 0);
                        shed_seen.fetch_add(1, Ordering::Relaxed);
                        // The retry path must eventually get through.
                        let resp = client.request(&Request::Stats).unwrap();
                        assert!(matches!(resp, Response::StatsOk(_)));
                    }
                    Ok(Response::StatsOk(_)) => {
                        ok_seen.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(other) => panic!("unexpected response {other:?}"),
                    // The storm can outrun the acceptor; a retrying
                    // client absorbs transient connect failures too.
                    Err(_) => {
                        let resp = client.request(&Request::Stats).unwrap();
                        assert!(matches!(resp, Response::StatsOk(_)));
                        ok_seen.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let client = Client::new(&socket);
    let stats = client.request(&Request::Stats).unwrap();
    assert!(ok_seen.load(Ordering::Relaxed) > 0, "nobody got through");
    assert!(
        shed_seen.load(Ordering::Relaxed) > 0,
        "storm against 1 worker / queue_cap 1 with a stalled worker never shed \
         (stats: shed={}, requests={})",
        stats_field(&stats, "shed"),
        stats_field(&stats, "requests"),
    );
    assert!(stats_field(&stats, "shed") >= shed_seen.load(Ordering::Relaxed) as i64);
    assert_eq!(stats_field(&stats, "injected_faults"), 1);

    client.request(&Request::Shutdown).unwrap();
    handle.join().unwrap().unwrap();
}

/// A client that vanishes mid-request must not wedge the daemon: the
/// watchdog flips the cancel flag and the worker moves on.
#[test]
fn vanished_client_does_not_wedge_workers() {
    let socket = tmp_socket("vanish");
    let mut opts = ServeOptions::new(&socket);
    opts.workers = 1;
    opts.seed_files = files_for(&seed_state());
    let handle = spawn_daemon(opts);
    wait_socket(&socket);

    // Fire a check and hang up immediately, several times.
    for _ in 0..4 {
        let mut stream = UnixStream::connect(&socket).unwrap();
        let req = Request::Check {
            kinds: vec![],
            deadline_ms: None,
        };
        write_frame(&mut stream, req.to_json().to_string().as_bytes()).unwrap();
        drop(stream);
    }

    // The single worker must still answer promptly.
    let client = Client::new(&socket);
    let (text, _) = check_text(&client);
    assert_eq!(text, cold_eval(&files_for(&seed_state())).text);
    let stats = client.request(&Request::Stats).unwrap();
    assert!(stats_field(&stats, "requests") >= 5);

    client.request(&Request::Shutdown).unwrap();
    handle.join().unwrap().unwrap();
}

/// Deadline plumbing: an already-expired deadline still yields a
/// well-formed response (degraded down the ladder, never an error),
/// and a generous deadline matches the cold run exactly.
#[test]
fn expired_deadlines_degrade_instead_of_failing() {
    let socket = tmp_socket("deadline");
    let mut opts = ServeOptions::new(&socket);
    opts.seed_files = files_for(&seed_state());
    let handle = spawn_daemon(opts);
    wait_socket(&socket);
    let client = Client::new(&socket);

    match client
        .request(&Request::Query {
            func: "aent".into(),
            stmt: 1,
            var: "ap".into(),
            deadline_ms: Some(0),
        })
        .unwrap()
    {
        Response::QueryOk { precision, .. } => {
            assert!(!precision.is_empty(), "precision label must be present");
        }
        other => panic!("expected query_ok under expired deadline, got {other:?}"),
    }
    match client
        .request(&Request::Check {
            kinds: vec![],
            deadline_ms: Some(0),
        })
        .unwrap()
    {
        Response::CheckOk { .. } => {}
        other => panic!("expected check_ok under expired deadline, got {other:?}"),
    }

    // With a generous deadline the answer equals the cold run.
    match client
        .request(&Request::Check {
            kinds: vec![],
            deadline_ms: Some(60_000),
        })
        .unwrap()
    {
        Response::CheckOk { text, .. } => {
            assert_eq!(text, cold_eval(&files_for(&seed_state())).text)
        }
        other => panic!("expected check_ok, got {other:?}"),
    }

    client.request(&Request::Shutdown).unwrap();
    handle.join().unwrap().unwrap();
}

/// Restart replays the journal to the last published epoch; a corrupt
/// journal is detected by its checksum and demoted to the seed
/// workspace instead of serving garbage.
#[test]
fn restart_replays_journal_and_demotes_corruption() {
    let socket = tmp_socket("restart");
    let cache = tmp_dir("restart-cache");
    let mk_opts = || {
        let mut opts = ServeOptions::new(&socket);
        opts.cache_dir = Some(cache.clone());
        opts.seed_files = files_for(&seed_state());
        opts
    };

    // Generation 1: two edits, remember the warm findings.
    let handle = spawn_daemon(mk_opts());
    wait_socket(&socket);
    let client = Client::new(&socket);
    let mut state = seed_state();
    state.insert("a.c", 2);
    assert!(matches!(
        edit(&client, "a.c", &variant("a", 2)),
        Response::EditOk { epoch: 1, .. }
    ));
    state.insert("c.c", 1);
    assert!(matches!(
        edit(&client, "c.c", &variant("c", 1)),
        Response::EditOk { epoch: 2, .. }
    ));
    let cold = cold_eval(&files_for(&state));
    let (text_before, findings_before) = check_text(&client);
    assert_eq!(text_before, cold.text);
    assert!(findings_before > 0);
    client.request(&Request::Shutdown).unwrap();
    // Join before respawning: the old generation removes the socket
    // file as it winds down and would otherwise race the new bind.
    // (An abrupt SIGKILL variant of this sequence lives in the CLI
    // crate's subprocess test; in-process the thread must wind down.)
    handle.join().unwrap().unwrap();

    // Generation 2: the journal replays both edits.
    let handle2 = spawn_daemon(mk_opts());
    wait_socket(&socket);
    let stats = client.request(&Request::Stats).unwrap();
    assert_eq!(stats_field(&stats, "epoch"), 2, "journal must replay epoch");
    let (text_after, _) = check_text(&client);
    assert_eq!(
        text_after, text_before,
        "replayed workspace must produce identical findings"
    );
    client.request(&Request::Shutdown).unwrap();
    handle2.join().unwrap().unwrap();

    // Corrupt the journal body: generation 3 must detect the bad
    // checksum and fall back to the seed workspace.
    let journal = cache.join("journal.bin");
    let mut bytes = std::fs::read(&journal).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&journal, &bytes).unwrap();

    let handle3 = spawn_daemon(mk_opts());
    wait_socket(&socket);
    let stats = client.request(&Request::Stats).unwrap();
    assert_eq!(
        stats_field(&stats, "epoch"),
        0,
        "corrupt journal must demote to the seed workspace"
    );
    let (text_seed, _) = check_text(&client);
    assert_eq!(text_seed, cold_eval(&files_for(&seed_state())).text);
    client.request(&Request::Shutdown).unwrap();
    handle3.join().unwrap().unwrap();
}

/// File removal goes through the same validation gate as every other
/// edit; the daemon never switches to a workspace that fails it.
#[test]
fn remove_file_is_validated() {
    let socket = tmp_socket("remove");
    let mut opts = ServeOptions::new(&socket);
    // Main only calls aent/bent/cent when they exist; build a private
    // two-file workspace instead.
    opts.seed_files = BTreeMap::from([
        (
            "lib.c".to_string(),
            "int la; int *lp; int *lid(int *lr) { return lr; }\n".to_string(),
        ),
        (
            "main.c".to_string(),
            "void main() { lp = lid(&la); }\n".to_string(),
        ),
    ]);
    let handle = spawn_daemon(opts);
    wait_socket(&socket);
    let client = Client::new(&socket);

    // Removing lib.c orphans main's call: the edit must be rejected
    // (the merged program no longer lowers) and the epoch must survive.
    match client
        .request(&Request::Edit {
            file: "lib.c".into(),
            content: None,
        })
        .unwrap()
    {
        Response::Error { kind, .. } => assert_eq!(kind, "invalid-edit"),
        Response::EditOk { .. } => {
            // Lowering tolerates unknown callees in this IR; removal is
            // then a legal edit and the daemon keeps serving.
        }
        other => panic!("unexpected response {other:?}"),
    }
    let stats = client.request(&Request::Stats).unwrap();
    assert!(stats_field(&stats, "epoch") <= 1);
    client.request(&Request::Shutdown).unwrap();
    handle.join().unwrap().unwrap();
}

/// On an idle daemon no request waits for a timer: the acceptor blocks
/// in `accept`, so sequential round trips take a fraction of a
/// millisecond, where an acceptor sleeping 2 ms whenever `accept` would
/// block puts the median near 2 ms.
#[test]
fn idle_round_trips_wait_for_no_timer() {
    let socket = tmp_socket("idle");
    let mut opts = ServeOptions::new(&socket);
    opts.seed_files = files_for(&seed_state());
    let handle = spawn_daemon(opts);
    wait_socket(&socket);
    let client = Client::new(&socket);
    // The first request waits for the first session; leave it out.
    client.request(&Request::Stats).unwrap();

    let mut trips: Vec<Duration> = (0..50)
        .map(|_| {
            let start = Instant::now();
            let resp = client.request_once(&Request::Stats).unwrap();
            assert!(matches!(resp, Response::StatsOk(_)), "{resp:?}");
            start.elapsed()
        })
        .collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "median stats round trip {median:?}; sorted: {trips:?}"
    );

    client.request(&Request::Shutdown).unwrap();
    handle.join().unwrap().unwrap();
}

/// `shutdown` wakes the acceptor blocked in `accept`, so `serve`
/// returns.
#[test]
fn shutdown_returns_from_an_idle_serve() {
    let socket = tmp_socket("idle-shutdown");
    let mut opts = ServeOptions::new(&socket);
    opts.seed_files = files_for(&seed_state());
    let served = serve_on_thread(opts);
    wait_socket(&socket);
    let client = Client::new(&socket);
    assert!(matches!(
        client.request(&Request::Stats).unwrap(),
        Response::StatsOk(_)
    ));

    assert!(matches!(
        client.request(&Request::Shutdown).unwrap(),
        Response::ShutdownOk
    ));
    await_return(&served);
    assert!(!socket.exists(), "socket removed on shutdown");
}

/// With its socket file removed, the daemon cannot wake its acceptor
/// through the socket; `shutdown` still makes `serve` return.
#[test]
fn shutdown_returns_when_the_socket_file_is_gone() {
    let socket = tmp_socket("unlinked");
    let mut opts = ServeOptions::new(&socket);
    opts.seed_files = files_for(&seed_state());
    let served = serve_on_thread(opts);
    wait_socket(&socket);
    let stream = UnixStream::connect(&socket).unwrap();
    std::fs::remove_file(&socket).unwrap();

    shutdown_over(stream);
    await_return(&served);
}

/// A daemon started on a socket path in use replaces the socket file.
/// When the first daemon then shuts down, through a connection it had
/// already accepted, it must neither wake the second daemon's acceptor
/// in place of its own (taking a request tick there) nor remove the
/// second daemon's socket file.
#[test]
fn shutdown_leaves_a_replacing_daemons_socket_alone() {
    let socket = tmp_socket("replaced");
    let opts = || {
        let mut opts = ServeOptions::new(&socket);
        opts.seed_files = files_for(&seed_state());
        opts
    };
    let served = serve_on_thread(opts());
    wait_socket(&socket);
    let inode = || std::fs::metadata(&socket).map(|m| m.ino()).ok();
    let first = inode();
    let stream = UnixStream::connect(&socket).unwrap();

    let second = spawn_daemon(opts());
    for _ in 0..2_000 {
        if inode().is_some_and(|i| Some(i) != first) {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    assert_ne!(inode(), first, "the second daemon never bound");
    shutdown_over(stream);
    await_return(&served);

    let client = Client::new(&socket);
    let stats = client.request(&Request::Stats).unwrap();
    assert_eq!(
        stats_field(&stats, "requests"),
        1,
        "the second daemon answered something before this `stats`"
    );
    client.request(&Request::Shutdown).unwrap();
    second.join().unwrap().unwrap();
}

/// Queries from several clients race a run of edits. The epoch barrier
/// loses no connection (every request gets a decoded response), edits
/// advance the epoch by one each, and `stats` counts exactly the
/// connections the test opened: no wake-up or probe connection reaches a
/// worker.
#[test]
fn edit_barriers_lose_and_double_count_nothing() {
    const QUERIERS: usize = 4;
    const EDITS: u64 = 12;
    let socket = tmp_socket("barrier");
    let mut opts = ServeOptions::new(&socket);
    opts.seed_files = files_for(&seed_state());
    // At most one connection per client thread is outstanding, so
    // nothing is shed.
    assert!(QUERIERS + 1 < opts.queue_cap);
    let handle = spawn_daemon(opts);
    wait_socket(&socket);
    let client = Client::new(&socket);
    let opened = AtomicU64::new(0);
    let send = |req: &Request| {
        opened.fetch_add(1, Ordering::SeqCst);
        client
            .request_once(req)
            .unwrap_or_else(|e| panic!("{req:?}: {e}"))
    };
    let query = Request::Query {
        func: "aent".into(),
        stmt: exit_stmt(&files_for(&seed_state()), "aent"),
        var: "ap".into(),
        deadline_ms: None,
    };

    let editing = AtomicBool::new(true);
    thread::scope(|s| {
        for _ in 0..QUERIERS {
            s.spawn(|| {
                while editing.load(Ordering::SeqCst) {
                    match send(&query) {
                        Response::QueryOk { .. } => {}
                        other => panic!("expected query_ok, got {other:?}"),
                    }
                }
            });
        }
        // The queriers stop when the edits end, also when one fails.
        let edits = catch_unwind(AssertUnwindSafe(|| {
            for n in 1..=EDITS {
                let edit = Request::Edit {
                    file: "b.c".into(),
                    content: Some(variant("b", n % 2)),
                };
                match send(&edit) {
                    Response::EditOk { epoch, .. } => assert_eq!(epoch, n, "epochs are dense"),
                    other => panic!("expected edit_ok, got {other:?}"),
                }
            }
        }));
        editing.store(false, Ordering::SeqCst);
        if let Err(panic) = edits {
            resume_unwind(panic);
        }
    });

    let stats = send(&Request::Stats);
    assert_eq!(stats_field(&stats, "epoch"), EDITS as i64);
    assert_eq!(stats_field(&stats, "shed"), 0);
    assert_eq!(
        stats_field(&stats, "requests"),
        opened.load(Ordering::SeqCst) as i64
    );
    client.request(&Request::Shutdown).unwrap();
    handle.join().unwrap().unwrap();
}
