//! Sparse vs dense FSCS engine benchmark.
//!
//! Measures `ClusterEngine::compute_all_summaries` with the sparse,
//! memoizing walk (the default) against the dense oracle walk
//! (`EngineOptions::dense`: every CFG predecessor, nothing memoized), on
//! three workloads:
//!
//! * the largest cluster of the bootstrapped sendmail-preset cover — the
//!   biggest single work unit Table 1's cascade schedules; measured both
//!   path-insensitively and path-sensitively;
//! * a hub-cycle workload (copy cycle over hub pointers + store churn
//!   through ambiguous double pointers) whose walks fork under Definition 8
//!   constraints;
//! * one file of each benchmark workload's shape — a chain of direct
//!   copies and a chain of copies through identity helpers — the shapes
//!   on which the dense walk is quadratic in the chain length.
//!
//! Both walks run under the same step budget (`BUDGET_STEPS`). The two
//! count steps differently — the sparse walk visits only the statements
//! that can change the tracked value and reuses memoized items, so in a
//! budget it reaches further into the forking loads and stores — and a
//! row reports both step counts and each walk's time: to the fixpoint
//! (`*_secs`) where it finishes, else to the end of the budget
//! (`*_budget_secs`). The second is what a cluster that degrades costs
//! before it degrades; the two walks do different work in it. Where both
//! finish, the bench asserts that they computed the same summaries.
//! (Unbounded, the largest sendmail cluster's dense walk runs for tens
//! of minutes and gigabytes — the cascade never runs it that way either;
//! `process_cluster` always applies an `AnalysisBudget`.)
//!
//! Prints one line per row and dumps `BENCH_fscs.json` at the repo root.
//! Run with: `cargo bench --bench fscs` (add `-- --quick` for one sample
//! per measurement).

use std::time::{Duration, Instant};

use bootstrap_bench::{chain_source, write_bench_json};
use bootstrap_client::Json;
use bootstrap_core::{
    AnalysisBudget, ClusterEngine, Config, EngineCx, EngineOptions, NoOracle, PtsOracle, Session,
};
use bootstrap_workloads::generator::{self, BigPartition, GenConfig};
use bootstrap_workloads::presets;

/// Step budget applied identically to both walks of a row.
const BUDGET_STEPS: u64 = 150_000;

/// One walk's measurement: median wall time, the steps of the last run,
/// and whether it reached the fixpoint within the budget.
struct Run {
    time: Duration,
    steps: u64,
    done: bool,
    engine: ClusterEngine,
}

struct Row {
    label: String,
    cluster_size: usize,
    relevant_stmts: usize,
    path_sensitive: bool,
    dense: Run,
    sparse: Run,
}

impl Row {
    /// Dense over sparse time to the fixpoint, when both reach it.
    fn speedup(&self) -> Option<f64> {
        (self.dense.done && self.sparse.done)
            .then(|| self.dense.time.as_secs_f64() / self.sparse.time.as_secs_f64().max(1e-9))
    }
}

/// Median-of-`samples` wall time of `compute_all_summaries` on a fresh
/// engine (fresh private arena each run, so nothing is amortized across
/// samples), after one warmup run.
fn time_engine(
    cx: EngineCx<'_>,
    members: &[bootstrap_ir::VarId],
    oracle: &dyn PtsOracle,
    path_sensitive: bool,
    dense: bool,
    samples: usize,
) -> Run {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..samples + 1 {
        let mut engine = ClusterEngine::with_engine_options(
            cx,
            members.to_vec(),
            EngineOptions {
                path_sensitive,
                dense,
                ..EngineOptions::default()
            },
        );
        let mut budget = AnalysisBudget::steps(BUDGET_STEPS);
        let t0 = Instant::now();
        let done = engine
            .compute_all_summaries(cx, oracle, &mut budget)
            .is_done();
        if i > 0 {
            times.push(t0.elapsed());
        }
        last = Some((engine, done));
    }
    times.sort();
    let (engine, done) = last.expect("at least one run");
    Run {
        time: times[times.len() / 2],
        steps: engine.steps(),
        done,
        engine,
    }
}

fn measure(
    label: &str,
    cx: EngineCx<'_>,
    members: &[bootstrap_ir::VarId],
    oracle: &dyn PtsOracle,
    path_sensitive: bool,
    samples: usize,
) -> Row {
    let dense = time_engine(cx, members, oracle, path_sensitive, true, samples);
    let sparse = time_engine(cx, members, oracle, path_sensitive, false, samples);
    if dense.done && sparse.done {
        let keys = sparse.engine.summary_disagreements(&dense.engine);
        assert!(keys.is_empty(), "walks disagree on {label} at {keys:?}");
    }
    Row {
        label: label.to_string(),
        cluster_size: members.len(),
        relevant_stmts: sparse.engine.relevant().stmt_count(),
        path_sensitive,
        dense,
        sparse,
    }
}

/// A store-churn workload: hub copy cycles plus chains of stores through
/// ambiguous double pointers, so backward walks fork per candidate carrier
/// and conditions accumulate `PointsTo` atoms.
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

fn largest_cluster(session: &Session<'_>) -> Vec<bootstrap_ir::VarId> {
    session
        .cover()
        .clusters()
        .iter()
        .max_by_key(|c| c.members.len())
        .expect("non-empty cover")
        .members
        .clone()
}

fn engine_cx<'a>(program: &'a bootstrap_ir::Program, session: &'a Session<'a>) -> EngineCx<'a> {
    EngineCx {
        program,
        steens: session.steens(),
        cg: session.callgraph(),
        index: session.relevant_index(),
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
    let largest = largest_cluster(&session);
    println!(
        "largest cluster: {} members (of {} clusters)",
        largest.len(),
        session.cover().len()
    );
    let cx = engine_cx(&program, &session);

    let hub_program = generator::generate(&hub_cycle_config());
    let hub_session = Session::new(&hub_program, Config::default());
    let hub_largest = largest_cluster(&hub_session);
    let hub_cx = engine_cx(&hub_program, &hub_session);

    let mut rows = vec![
        measure(
            "sendmail-largest-cluster",
            cx,
            &largest,
            &NoOracle,
            false,
            samples,
        ),
        measure(
            "sendmail-largest-cluster-ps",
            cx,
            &largest,
            &NoOracle,
            true,
            samples,
        ),
        measure(
            "hub-cycle-largest-cluster",
            hub_cx,
            &hub_largest,
            &NoOracle,
            false,
            samples,
        ),
    ];
    // The benchmark workloads' shapes, one file each, with the session's
    // analyzer resolving the double-pointer hop as it does in a check.
    for (label, n, helpers) in [("flat-chain-384", 384, 0), ("deep-chain-256", 256, 8)] {
        let chain = bootstrap_ir::parse_program(&chain_source(n, helpers)).expect("parses");
        let chain_session = Session::new(&chain, Config::default());
        let members = largest_cluster(&chain_session);
        let oracle = chain_session.analyzer();
        let chain_cx = engine_cx(&chain, &chain_session);
        rows.push(measure(label, chain_cx, &members, &oracle, false, samples));
    }

    let at = |run: &Run| match run.done {
        true => format!("fixpoint in {:?}", run.time),
        false => format!("budget hit in {:?}", run.time),
    };
    for r in &rows {
        println!(
            "fscs/{} ({} members, {} stmts, ps={}): dense {} steps, {} -> sparse {} steps, {}{}",
            r.label,
            r.cluster_size,
            r.relevant_stmts,
            r.path_sensitive,
            r.dense.steps,
            at(&r.dense),
            r.sparse.steps,
            at(&r.sparse),
            r.speedup()
                .map_or(String::new(), |x| format!("  ({x:.2}x)")),
        );
    }
    let workloads = rows.iter().map(|r| {
        let mut fields = vec![
            ("label", Json::str(&r.label)),
            ("cluster_size", Json::int(r.cluster_size)),
            ("relevant_stmts", Json::int(r.relevant_stmts)),
            ("path_sensitive", Json::Bool(r.path_sensitive)),
            ("dense_steps", Json::int(r.dense.steps)),
            ("sparse_steps", Json::int(r.sparse.steps)),
            ("dense_budget_hit", Json::Bool(!r.dense.done)),
            ("sparse_budget_hit", Json::Bool(!r.sparse.done)),
        ];
        for (run, done_key, cut_key) in [
            (&r.dense, "dense_secs", "dense_budget_secs"),
            (&r.sparse, "sparse_secs", "sparse_budget_secs"),
        ] {
            let key = if run.done { done_key } else { cut_key };
            fields.push((key, Json::Num(run.time.as_secs_f64())));
        }
        if let Some(x) = r.speedup() {
            fields.push(("speedup", Json::Num(x)));
        }
        Json::obj(fields)
    });
    write_bench_json(
        "fscs",
        &Json::obj([
            ("engine", Json::str("fscs")),
            ("compare", Json::str("dense-vs-sparse")),
            ("unit", Json::str("seconds")),
            ("budget_steps", Json::int(BUDGET_STEPS)),
            ("workloads", Json::Arr(workloads.collect())),
        ]),
    );
}
