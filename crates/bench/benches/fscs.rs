//! Interned vs uninterned FSCS engine benchmark.
//!
//! Measures `ClusterEngine::compute_all_summaries` throughput with the
//! hash-consed walk (the default) against the pre-interning oracle walk
//! (`EngineOptions::uninterned`), on two workloads:
//!
//! * the largest cluster of the bootstrapped sendmail-preset cover — the
//!   biggest single work unit Table 1's cascade schedules; measured both
//!   path-insensitively and path-sensitively (path-sensitive walks carry
//!   branch literals and dead-variable sets in every worklist item, which
//!   is exactly the state the interning layer turns into `Copy` ids);
//! * a hub-cycle workload (copy cycle over hub pointers + store churn
//!   through ambiguous double pointers) whose walks fork under Definition 8
//!   constraints, making condition allocation the dominant cost.
//!
//! Both variants run under the **same step budget** (`BUDGET_STEPS`): the
//! two walks are the same algorithm over the same canonical item set, so
//! after N steps they have done identical work and the wall-clock ratio is
//! a pure per-step cost comparison. (Unbounded, the largest sendmail
//! cluster's exhaustive walk runs for tens of minutes and gigabytes —
//! the cascade never runs it that way either; `process_cluster` always
//! applies an `AnalysisBudget`.) The bench asserts both variants consumed
//! the same number of steps and records whether the budget was hit.
//!
//! Prints one speedup line per row and dumps `BENCH_fscs.json` at the repo
//! root. Run with: `cargo bench --bench fscs` (add `-- --quick` for one
//! sample per measurement).

use std::time::{Duration, Instant};

use bootstrap_bench::write_bench_json;
use bootstrap_client::Json;
use bootstrap_core::{
    AnalysisBudget, ClusterEngine, Config, EngineCx, EngineOptions, NoOracle, Session,
};
use bootstrap_workloads::generator::{self, BigPartition, GenConfig};
use bootstrap_workloads::presets;

/// Step budget applied identically to both engine variants of a run.
const BUDGET_STEPS: u64 = 150_000;

struct Row {
    label: String,
    cluster_size: usize,
    relevant_stmts: usize,
    path_sensitive: bool,
    interned: Duration,
    uninterned: Duration,
    steps: u64,
    /// Whether the step budget cut the walk short (true for the big
    /// clusters; both variants stop at the identical step).
    budget_hit: bool,
    /// Distinct conditions the interned run materialized.
    conds: usize,
    /// Memo-table hits of the interned run: structural clones and
    /// conjunction recomputations avoided.
    hits: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.uninterned.as_secs_f64() / self.interned.as_secs_f64().max(1e-9)
    }
}

/// Median-of-`samples` wall time of `compute_all_summaries` on a fresh
/// engine (fresh private arena each run, so nothing is amortized across
/// samples); also returns the steps and interner counters of the last run.
fn time_engine(
    cx: EngineCx<'_>,
    members: &[bootstrap_ir::VarId],
    path_sensitive: bool,
    uninterned: bool,
    samples: usize,
) -> (Duration, u64, usize, u64, bool) {
    let mut times = Vec::new();
    let mut steps = 0;
    let mut conds = 0;
    let mut hits = 0;
    let mut budget_hit = false;
    // One warmup, then `samples` timed runs.
    for i in 0..samples + 1 {
        let mut engine = ClusterEngine::with_engine_options(
            cx,
            members.to_vec(),
            EngineOptions {
                cond_cap: 8,
                path_sensitive,
                uninterned,
                arena: None,
                fault: None,
            },
        );
        let mut budget = AnalysisBudget::steps(BUDGET_STEPS);
        let t0 = Instant::now();
        let outcome = engine.compute_all_summaries(cx, &NoOracle, &mut budget);
        let elapsed = t0.elapsed();
        if i > 0 {
            times.push(elapsed);
        }
        steps = engine.steps();
        budget_hit = !outcome.is_done();
        let stats = engine.interner().stats();
        conds = stats.conds;
        hits = stats.hits;
    }
    times.sort();
    (times[times.len() / 2], steps, conds, hits, budget_hit)
}

fn measure(
    label: &str,
    cx: EngineCx<'_>,
    members: &[bootstrap_ir::VarId],
    path_sensitive: bool,
    samples: usize,
) -> Row {
    let probe = ClusterEngine::new(cx, members.to_vec(), 8);
    let relevant_stmts = probe.relevant().stmt_count();
    drop(probe);
    let (interned, steps, conds, hits, budget_hit) =
        time_engine(cx, members, path_sensitive, false, samples);
    let (uninterned, oracle_steps, _, _, _) =
        time_engine(cx, members, path_sensitive, true, samples);
    // Same algorithm, same canonical dedup: both variants must do (near-)
    // identical work for the wall-clock ratio to mean anything. Exact
    // equality can slip by a handful of steps when the cond-cap truncates —
    // the interned walk orders results by id, the oracle structurally, so at
    // the cap boundary they may retain different (equally sound) conditions.
    let drift = steps.abs_diff(oracle_steps);
    assert!(
        drift * 200 <= steps.max(oracle_steps),
        "walks diverged on {label}: {steps} interned vs {oracle_steps} oracle steps"
    );
    Row {
        label: label.to_string(),
        cluster_size: members.len(),
        relevant_stmts,
        path_sensitive,
        interned,
        uninterned,
        steps,
        budget_hit,
        conds,
        hits,
    }
}

/// A store-churn workload: hub copy cycles plus chains of stores through
/// ambiguous double pointers, so backward walks fork per candidate carrier
/// and conditions accumulate `PointsTo` atoms — the allocation-bound regime
/// the interner targets.
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

    // Largest preset by paper pointer count (sendmail); the bootstrapped
    // cover's biggest cluster is the largest single FSCS work unit.
    let preset = presets::all()
        .into_iter()
        .max_by_key(|p| p.paper.pointers)
        .expect("presets exist");
    println!(
        "generating preset '{}' ({} pointers)...",
        preset.paper.name, preset.paper.pointers
    );
    let program = preset.generate();
    let session = Session::new(&program, Config::default());
    let largest = session
        .cover()
        .clusters()
        .iter()
        .max_by_key(|c| c.members.len())
        .expect("non-empty cover");
    println!(
        "largest cluster: {} members (of {} clusters)",
        largest.members.len(),
        session.cover().len()
    );
    let cx = EngineCx {
        program: &program,
        steens: session.steens(),
        cg: session.callgraph(),
        index: session.relevant_index(),
    };

    let hub_program = generator::generate(&hub_cycle_config());
    let hub_session = Session::new(&hub_program, Config::default());
    let hub_largest = hub_session
        .cover()
        .clusters()
        .iter()
        .max_by_key(|c| c.members.len())
        .expect("non-empty cover");
    let hub_cx = EngineCx {
        program: &hub_program,
        steens: hub_session.steens(),
        cg: hub_session.callgraph(),
        index: hub_session.relevant_index(),
    };

    let rows = vec![
        measure(
            "sendmail-largest-cluster",
            cx,
            &largest.members,
            false,
            samples,
        ),
        measure(
            "sendmail-largest-cluster-ps",
            cx,
            &largest.members,
            true,
            samples,
        ),
        measure(
            "hub-cycle-largest-cluster",
            hub_cx,
            &hub_largest.members,
            false,
            samples,
        ),
    ];

    for r in &rows {
        println!(
            "fscs/{} ({} members, {} stmts, ps={}, {} steps{}): uninterned {:?} -> interned {:?}  speedup {:.2}x  ({} conds, {} memo hits)",
            r.label,
            r.cluster_size,
            r.relevant_stmts,
            r.path_sensitive,
            r.steps,
            if r.budget_hit { ", budget hit" } else { "" },
            r.uninterned,
            r.interned,
            r.speedup(),
            r.conds,
            r.hits,
        );
    }
    let workloads = rows.iter().map(|r| {
        Json::obj([
            ("label", Json::str(&r.label)),
            ("cluster_size", Json::int(r.cluster_size)),
            ("relevant_stmts", Json::int(r.relevant_stmts)),
            ("path_sensitive", Json::Bool(r.path_sensitive)),
            ("uninterned_secs", Json::Num(r.uninterned.as_secs_f64())),
            ("interned_secs", Json::Num(r.interned.as_secs_f64())),
            ("speedup", Json::Num(r.speedup())),
            ("steps", Json::int(r.steps)),
            ("budget_hit", Json::Bool(r.budget_hit)),
            ("interned_conds", Json::int(r.conds)),
            ("interner_hits", Json::int(r.hits)),
        ])
    });
    write_bench_json(
        "fscs",
        &Json::obj([
            ("engine", Json::str("fscs")),
            ("compare", Json::str("interned-vs-uninterned")),
            ("unit", Json::str("seconds")),
            ("budget_steps", Json::int(BUDGET_STEPS)),
            ("workloads", Json::Arr(workloads.collect())),
        ]),
    );
}
