//! The in-process operations a user runs, each in two forms: plain (the
//! end-to-end timing, tracing off) and traced (the same work split into
//! spans around the public call of each layer).

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use bootstrap_checks::{run_checks, run_checks_with, CheckReport, CheckerKind};
use bootstrap_core::parallel::{process_clusters_parallel_with_stats, StealStats};
use bootstrap_core::{ClusterReport, Config, QueryLimits, Session, Store, StoreConfig};
use bootstrap_ir::{Loc, Program, Stmt, VarId};

use crate::trace::Trace;

/// Per-cluster step budget for summarization: far above what any
/// cluster of the generated workloads needs, so nothing degrades.
pub const STEPS_PER_CLUSTER: u64 = 2_000_000;

pub fn config(store: Option<&Path>) -> Config {
    Config {
        store: store.map(StoreConfig::new),
        ..Config::default()
    }
}

/// `check` over one source text: parse, lower, cascade, checker batch.
pub fn check(source: &str, store: Option<&Path>) -> CheckReport {
    let program = bootstrap_ir::parse_program(source).expect("generated source parses");
    let session = Session::new(&program, config(store));
    run_checks(&session, &CheckerKind::ALL)
}

/// What a traced check saw besides its report.
pub struct CheckFacts {
    pub clusters: usize,
    pub max_cluster: usize,
    pub sites: usize,
}

/// The dereference and free sites `run_checks` resolves, in the order it
/// resolves them (Steensgaard partition, then location), deduplicated.
pub fn sites(session: &Session<'_>) -> Vec<(VarId, Loc)> {
    let mut sites = Vec::new();
    for f in session.program().functions() {
        for (loc, s) in f.locs() {
            match s {
                Stmt::Load { src, .. } => sites.push((*src, loc)),
                Stmt::Store { dst, .. } | Stmt::Free { dst } => sites.push((*dst, loc)),
                _ => {}
            }
        }
    }
    sites.sort_by_key(|&(p, loc)| (session.steens().partition_key(p), loc.func, loc.stmt));
    let mut seen = BTreeSet::new();
    sites.retain(|s| seen.insert(*s));
    sites
}

/// The check batch over a built session, split into layers:
/// `core.query` resolves every site once through `Session::query_at_loc`
/// on one analyzer, `core.publish` writes its engines to the store, and
/// `checks.run_checks` runs the checkers on the same analyzer, so the
/// sites resolve again from its cached engines. `run_checks_with` ends by
/// publishing its analyzer's engines; engines loaded from the store are
/// never published again, but the others would be written a second
/// time. So when the store missed, the checkers run on a fresh analyzer
/// instead, and the extra span `store.reload` first builds that
/// analyzer's engine for every partition with a site, which loads back
/// the entries `core.publish` just wrote. The plain check never does
/// that reload, so it is kept out of the operation's traced total.
pub fn check_batch_traced(session: &Session<'_>, tr: &mut Trace) -> (CheckReport, usize) {
    let sites = sites(session);
    let az = session.analyzer();
    tr.time("core.query", || {
        for &(p, loc) in &sites {
            black_box(session.query_at_loc(&az, p, loc));
        }
    });
    tr.time("core.publish", || az.publish_store());
    let store = session.store_counters();
    let az = if store.misses + store.invalidated > 0 {
        let fresh = session.analyzer();
        tr.time_extra("store.reload", || {
            let mut classes: Vec<_> = sites
                .iter()
                .map(|&(p, _)| session.steens().partition_key(p))
                .collect();
            classes.dedup();
            for class in classes {
                black_box(fresh.engine_for(class));
            }
        });
        fresh
    } else {
        az
    };
    let report = tr.time("checks.run_checks", || {
        run_checks_with(session, &CheckerKind::ALL, &QueryLimits::none(), az)
    });
    (report, sites.len())
}

/// Opens `core.session_new` around `Session::new`, with the cascade's
/// Steensgaard and Andersen stages as children (their durations come
/// from `Session::timings`).
pub fn session_traced<'p>(
    program: &'p Program,
    store: Option<&Path>,
    tr: &mut Trace,
) -> Session<'p> {
    let id = tr.open("core.session_new");
    let session = Session::new(program, config(store));
    tr.close(id);
    let t = session.timings();
    tr.reported("analyses.steensgaard", id, t.steensgaard);
    tr.reported("analyses.andersen", id, t.clustering);
    session
}

/// [`check`], traced.
pub fn check_traced(
    source: &str,
    store: Option<&Path>,
    tr: &mut Trace,
) -> (CheckReport, CheckFacts) {
    let ast = tr
        .time("ir.parse", || bootstrap_ir::parse::parse(source))
        .expect("generated source parses");
    let program = tr.time("ir.lower", || bootstrap_ir::lower::lower(&ast));
    let session = session_traced(&program, store, tr);
    let (report, sites) = check_batch_traced(&session, tr);
    let facts = CheckFacts {
        clusters: session.cover().len(),
        max_cluster: session
            .cover()
            .clusters()
            .iter()
            .map(|c| c.members.len())
            .max()
            .unwrap_or(0),
        sites,
    };
    tr.time("core.session_drop", || drop(session));
    (report, facts)
}

/// Whole-cover summarization: a fresh session, then every cluster of the
/// bootstrapped cover on `threads` work-stealing workers, no store.
pub fn summarize(program: &Program, threads: usize) -> (Vec<ClusterReport>, StealStats) {
    let session = Session::new(program, Config::default());
    let clusters = session.cover().clusters().to_vec();
    process_clusters_parallel_with_stats(&session, &clusters, threads, STEPS_PER_CLUSTER)
}

/// [`summarize`], traced.
pub fn summarize_traced(
    program: &Program,
    threads: usize,
    tr: &mut Trace,
) -> (Vec<ClusterReport>, StealStats) {
    let session = session_traced(program, None, tr);
    let clusters = session.cover().clusters().to_vec();
    let out = tr.time("core.summarize", || {
        process_clusters_parallel_with_stats(&session, &clusters, threads, STEPS_PER_CLUSTER)
    });
    tr.time("core.session_drop", || drop(session));
    out
}

/// Per-call cost of the store itself, apart from the analysis: every
/// entry a cold check wrote to `from` is saved through `Store::save` into
/// the empty directory `to` (default size cap), then loaded back
/// through `Store::load`. Returns `(save_s, load_s)` per call.
pub fn replay_store(from: &Path, to: &Path) -> (f64, f64) {
    let mut entries = Vec::new();
    for e in std::fs::read_dir(from)
        .expect("cold store directory exists")
        .flatten()
    {
        let path = e.path();
        if path.extension().is_none_or(|x| x != "bsa") {
            continue;
        }
        let raw = std::fs::read(&path).expect("entry readable");
        let mut r = bootstrap_store::codec::Reader::new(&raw);
        let header = (|| {
            r.bytes()?;
            r.u32()?;
            Ok::<_, bootstrap_store::codec::CodecError>((
                r.u64()?,
                r.u64()?,
                r.u64()?,
                r.bytes()?.to_vec(),
            ))
        })();
        entries.push(header.expect("entry written by Store::save"));
    }
    entries.sort_by_key(|e| e.0);
    let store = Store::open(StoreConfig::new(to)).expect("replay store opens");
    let mut save = Duration::ZERO;
    for (key, options, program, payload) in &entries {
        let t = Instant::now();
        store
            .save(*key, *options, *program, payload)
            .expect("replay save");
        save += t.elapsed();
    }
    let mut load = Duration::ZERO;
    for (key, options, _, _) in &entries {
        let t = Instant::now();
        black_box(store.load(*key, *options));
        load += t.elapsed();
    }
    let n = entries.len().max(1) as f64;
    (save.as_secs_f64() / n, load.as_secs_f64() / n)
}
