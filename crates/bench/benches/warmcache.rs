//! Cold vs warm `check` through the persistent summary store.
//!
//! Measures the end-to-end checker batch (`Session::new` +
//! `run_checks(ALL)`) twice over the same program and cache directory:
//!
//! * **cold** — an empty store; every cluster misses, solves from
//!   scratch, and publishes its interned summaries, ladder answers and
//!   FSCI facts;
//! * **warm** — the populated store; every cluster key hits, the payload
//!   splices into a fresh arena by name-based relocation, and the FSCS
//!   solve is skipped almost entirely.
//!
//! Two workloads: the sendmail Table 1 preset (the largest paper row by
//! pointer count) and the hub-cycle store-churn generator (the
//! allocation-bound regime from `BENCH_fscs.json`). For each the bench
//! records per-phase wall/step breakdowns, hit/miss/invalidated counters,
//! the FSCS step-skip ratio (asserted ≥ 90%, it is deterministic), and
//! verifies that warm findings are identical to cold and that warm
//! parallel cluster reports are identical across 1, 2 and 4 threads.
//!
//! Prints one speedup line per workload and dumps `BENCH_warmcache.json`
//! at the repo root. Run with: `cargo bench --bench warmcache` (add
//! `-- --quick` for one sample per measurement).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bootstrap_bench::write_bench_json;
use bootstrap_checks::{run_checks, CheckReport, CheckerKind};
use bootstrap_client::Json;
use bootstrap_core::parallel::process_clusters_parallel;
use bootstrap_core::{Config, Session, StoreConfig};
use bootstrap_ir::Program;
use bootstrap_workloads::generator::{self, BigPartition, GenConfig};
use bootstrap_workloads::presets;

/// Per-cluster step budget for the parallel-driver identity check (the
/// same bound `BENCH_parallel.json` runs under).
const STEPS_PER_CLUSTER: u64 = 2_000_000;

struct Row {
    label: String,
    pointers: usize,
    clusters: usize,
    findings: usize,
    cold: Duration,
    warm: Duration,
    cold_report: CheckReport,
    warm_report: CheckReport,
    /// Warm parallel cluster reports identical across 1/2/4 threads.
    threads_identical: bool,
    store_entries: usize,
    store_bytes: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.warm.as_secs_f64().max(1e-9)
    }

    /// Fraction of the cold run's FSCS solve steps the warm run skipped.
    fn fscs_skip(&self) -> f64 {
        let cold = self.cold_report.phases.fscs.steps;
        let warm = self.warm_report.phases.fscs.steps;
        if cold == 0 {
            return 0.0;
        }
        1.0 - warm as f64 / cold as f64
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bootstrap_warmcache_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config_with_store(dir: &Path) -> Config {
    Config {
        store: Some(StoreConfig::new(dir)),
        ..Config::default()
    }
}

/// One full `check` (cascade + checker batch) against `dir`.
fn check_once(program: &Program, dir: &Path) -> (Duration, CheckReport) {
    let t0 = Instant::now();
    let session = Session::new(program, config_with_store(dir));
    let report = run_checks(&session, &CheckerKind::ALL);
    (t0.elapsed(), report)
}

fn findings_key(r: &CheckReport) -> Vec<String> {
    r.findings
        .iter()
        .map(|f| {
            format!(
                "{:?} {:?} {} {:?} {} {:?} {}",
                f.checker, f.severity, f.func, f.loc, f.var, f.object, f.message
            )
        })
        .collect()
}

/// Warm parallel cluster reports at 1, 2 and 4 threads must be identical
/// (modulo wall time).
fn threads_identical(program: &Program, dir: &Path) -> bool {
    let key = |threads: usize| -> Vec<String> {
        let session = Session::new(program, config_with_store(dir));
        let clusters = session.cover().clusters().to_vec();
        process_clusters_parallel(&session, &clusters, threads, STEPS_PER_CLUSTER)
            .iter()
            .map(|r| {
                format!(
                    "cluster {} entries {} tuples {} degraded {:?}",
                    r.cluster_id, r.summary_entries, r.summary_tuples, r.degraded
                )
            })
            .collect()
    };
    let one = key(1);
    [2usize, 4].iter().all(|&t| key(t) == one)
}

fn measure(label: &str, program: &Program, samples: usize) -> Row {
    // Cold: a fresh directory per sample (the first publish would turn
    // later samples warm); median wall time, counters from the last run.
    let mut cold_times = Vec::new();
    let mut cold_report = None;
    let mut dir = scratch_dir(label);
    for i in 0..samples {
        if i > 0 {
            dir = scratch_dir(label);
        }
        let (t, report) = check_once(program, &dir);
        cold_times.push(t);
        cold_report = Some(report);
    }
    let cold_report = cold_report.expect("at least one sample");
    assert!(cold_report.store.hits == 0, "cold run must not hit");
    assert!(cold_report.store.misses > 0, "cold run must consult");

    // Warm: repeatable against the last cold directory.
    let mut warm_times = Vec::new();
    let mut warm_report = None;
    for _ in 0..samples {
        let (t, report) = check_once(program, &dir);
        warm_times.push(t);
        warm_report = Some(report);
    }
    let warm_report = warm_report.expect("at least one sample");
    assert!(warm_report.store.hits > 0, "warm run must hit");
    assert_eq!(warm_report.store.invalidated, 0, "unchanged program");
    assert_eq!(
        findings_key(&cold_report),
        findings_key(&warm_report),
        "{label}: warm findings diverge from cold"
    );

    let identical = threads_identical(program, &dir);
    assert!(
        identical,
        "{label}: warm parallel reports diverge across threads"
    );

    let store = bootstrap_core::Store::open(StoreConfig::new(&dir)).expect("store dir exists");
    let (entries, bytes) = (store.entry_count(), store.total_bytes());
    drop(store);

    cold_times.sort();
    warm_times.sort();
    let session = Session::new(program, Config::default());
    let row = Row {
        label: label.to_string(),
        pointers: session.pointers().len(),
        clusters: session.cover().len(),
        findings: cold_report.findings.len(),
        cold: cold_times[cold_times.len() / 2],
        warm: warm_times[warm_times.len() / 2],
        cold_report,
        warm_report,
        threads_identical: identical,
        store_entries: entries,
        store_bytes: bytes,
    };
    assert!(
        row.fscs_skip() >= 0.90,
        "{label}: warm run skipped only {:.1}% of FSCS steps",
        100.0 * row.fscs_skip()
    );
    let _ = std::fs::remove_dir_all(&dir);
    row
}

/// The store-churn workload from `BENCH_fscs.json`: hub copy cycles plus
/// stores through ambiguous double pointers.
fn hub_cycle_config() -> GenConfig {
    GenConfig {
        name: "hub-cycle".to_string(),
        seed: 0x9e3779b97f4a7c15,
        n_funcs: 48,
        big_partitions: vec![BigPartition {
            size: 120,
            andersen_max: 40,
        }],
        small_partitions: 16,
        small_max: 6,
        singletons: 2,
        call_percent: 12,
        churn_communities: 12,
        control_flow: true,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples = if quick { 1 } else { 3 };

    let preset = presets::all()
        .into_iter()
        .max_by_key(|p| p.paper.pointers)
        .expect("presets exist");
    println!(
        "generating preset '{}' ({} pointers)...",
        preset.paper.name, preset.paper.pointers
    );
    let sendmail = preset.generate();
    let hub = generator::generate(&hub_cycle_config());

    let rows = vec![
        measure("sendmail", &sendmail, samples),
        measure("hub-cycle", &hub, samples),
    ];

    for r in &rows {
        println!(
            concat!(
                "warmcache/{} ({} pointers, {} clusters, {} findings): ",
                "cold {:?} -> warm {:?}  speedup {:.2}x  ",
                "(fscs steps skipped {:.1}%, {} entries / {} bytes, ",
                "warm {} hits, threads identical: {})"
            ),
            r.label,
            r.pointers,
            r.clusters,
            r.findings,
            r.cold,
            r.warm,
            r.speedup(),
            100.0 * r.fscs_skip(),
            r.store_entries,
            r.store_bytes,
            r.warm_report.store.hits,
            r.threads_identical,
        );
    }
    let store = |r: &CheckReport| {
        Json::obj([
            ("hits", Json::int(r.store.hits)),
            ("misses", Json::int(r.store.misses)),
            ("invalidated", Json::int(r.store.invalidated)),
        ])
    };
    let phases = |r: &CheckReport| {
        let phases = r.phases.iter().map(|(phase, stats)| {
            Json::obj([
                ("phase", Json::str(phase.name())),
                ("wall_secs", Json::Num(stats.wall.as_secs_f64())),
                ("steps", Json::int(stats.steps)),
            ])
        });
        Json::Arr(phases.collect())
    };
    let workloads = rows.iter().map(|r| {
        Json::obj([
            ("label", Json::str(&r.label)),
            ("pointers", Json::int(r.pointers)),
            ("clusters", Json::int(r.clusters)),
            ("findings", Json::int(r.findings)),
            ("cold_secs", Json::Num(r.cold.as_secs_f64())),
            ("warm_secs", Json::Num(r.warm.as_secs_f64())),
            ("speedup", Json::Num(r.speedup())),
            ("fscs_step_skip", Json::Num(r.fscs_skip())),
            ("threads_identical", Json::Bool(r.threads_identical)),
            (
                "store",
                Json::obj([
                    ("entries", Json::int(r.store_entries)),
                    ("bytes", Json::int(r.store_bytes)),
                    ("cold", store(&r.cold_report)),
                    ("warm", store(&r.warm_report)),
                ]),
            ),
            ("cold_phases", phases(&r.cold_report)),
            ("warm_phases", phases(&r.warm_report)),
        ])
    });
    write_bench_json(
        "warmcache",
        &Json::obj([
            ("bench", Json::str("warmcache")),
            ("compare", Json::str("cold-vs-warm-check")),
            ("unit", Json::str("seconds")),
            ("workloads", Json::Arr(workloads.collect())),
        ]),
    );
}
