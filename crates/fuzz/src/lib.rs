//! Differential and metamorphic fuzzing for the bootstrapped cascade.
//!
//! The harness generates random Mini-C programs (via
//! [`bootstrap_workloads::minic`]), runs every engine configuration the
//! workspace ships — the naive Andersen oracle vs the production solver
//! (adaptive, and with cycle elimination forced on from the first pop),
//! sparse vs dense FSCS walks, sequential vs work-stealing parallel
//! cluster processing at 1, 2 and 4 threads — and asserts the soundness
//! lattice that makes bootstrapping correct:
//!
//! * the Andersen solver, adaptive and eager, computes *identical*
//!   points-to sets to the naive full-set oracle, and every variable class
//!   it merges is provably equal under that oracle (no oversharing);
//! * Andersen points-to sets refine (are contained in) the Steensgaard
//!   pointee classes, and Andersen may-alias never crosses a Steensgaard
//!   partition;
//! * FSCS must-alias implies FSCS may-alias implies Andersen may-alias
//!   implies one shared Steensgaard partition;
//! * FSCS value sources and FSCI points-to facts stay inside the
//!   Steensgaard candidate sets the walks are seeded from;
//! * the sparse FSCS walk and the dense oracle walk compute equal
//!   summaries, in both path modes;
//! * cluster reports are identical across thread counts (modulo wall
//!   time), and site queries / checker reports are identical across fresh
//!   sessions and across `andersen_threshold` settings;
//! * the data-race detector is conservative: `--only race` matches the
//!   race subset of a full run, Error-severity races carry provably empty
//!   full-precision locksets, and forcing the ladder down to may-alias
//!   tiers only ever *adds* race reports (generated programs draw a
//!   `concurrency` knob that emits `spawn` and balanced lock regions, so
//!   the campaign exercises multi-threaded shapes too).
//!
//! Any violation (or panic) is shrunk by a ddmin-style reducer that
//! removes whole functions, statements and globals while the failure
//! reproduces; minimized reproducers land in `corpus/` and are replayed
//! by `cargo test`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

use bootstrap_analyses::andersen::{self, SolverOptions};
use bootstrap_analyses::steensgaard;
use bootstrap_checks::{run_checks, CheckReport, CheckerKind};
use bootstrap_core::parallel::{lpt_order, process_clusters, process_clusters_parallel};
use bootstrap_core::{
    AnalysisBudget, ClusterEngine, ClusterReport, Config, EngineCx, EngineOptions, FaultKind,
    FaultPhase, FaultPlan, LadderAnswer, NoOracle, Outcome, Precision, Session, Source,
};
use bootstrap_ir::{Program, VarId};
use bootstrap_workloads::minic::{self, MiniCConfig, MiniCProgram};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Cap on pointers queried per program point (site queries are the
/// expensive part; the lattice checks stay O(cap²)).
const QUERY_CAP: usize = 16;
/// Per-cluster step budget for summary computation and cluster reports.
const STEPS_PER_CLUSTER: u64 = 50_000;

/// Session configuration with trimmed step budgets. Generated programs
/// are tiny; the defaults (millions of steps) only matter on adversarial
/// reproducers like `corpus/recursive_summary_blowup.c`, where burning
/// the full budget per query makes replay crawl. Every invariant is
/// budget-parametric: both sides of each differential get the same
/// budgets, and timeout parity is itself asserted.
fn base_config() -> Config {
    Config {
        oracle_step_budget: 50_000,
        query_step_budget: 100_000,
        ..Config::default()
    }
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Base seed; each iteration derives its own generator seed from it.
    pub seed: u64,
    /// Number of random programs to generate and check.
    pub iters: u64,
    /// When set, minimized reproducers are written here as `.c` files.
    pub corpus_dir: Option<PathBuf>,
    /// Shrink failing programs with the ddmin reducer before reporting.
    pub reduce: bool,
    /// Also run the fault-injection invariants on every iteration:
    /// deterministic panic/budget/arena faults must degrade queries soundly
    /// and never lose a cluster or disturb a sibling's report.
    pub faults: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            iters: 200,
            corpus_dir: None,
            reduce: true,
            faults: false,
        }
    }
}

/// One invariant violation, carrying the (minimized) reproducer.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Iteration index that produced the failing program.
    pub iteration: u64,
    /// Stable violation class (e.g. `"panic"`, `"walks-disagree"`).
    pub kind: &'static str,
    /// Human-readable description of what diverged.
    pub detail: String,
    /// Minimized Mini-C source reproducing the violation.
    pub source: String,
}

/// The result of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: u64,
    /// All violations found (empty on a clean run).
    pub violations: Vec<Violation>,
}

/// One invariant violation detected while checking a single program.
#[derive(Clone, Debug)]
pub struct InvariantViolation {
    /// Stable violation class.
    pub kind: &'static str,
    /// Human-readable description.
    pub detail: String,
}

fn viol(kind: &'static str, detail: String) -> Result<(), InvariantViolation> {
    Err(InvariantViolation { kind, detail })
}

/// Derives the generator knobs for one iteration. Deterministic in
/// `(seed, iter)` so any failure is reproducible from the CLI flags.
pub fn config_for(seed: u64, iter: u64) -> MiniCConfig {
    let mut rng =
        StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(iter));
    MiniCConfig {
        seed: rng.next_u64(),
        max_ptr_depth: 1 + rng.gen_range(0..3usize),
        globals_per_level: 2 + rng.gen_range(0..4usize),
        n_funcs: 1 + rng.gen_range(0..4usize),
        stmts_per_func: 3 + rng.gen_range(0..10usize),
        addr_taken_locals: rng.gen_bool(0.7),
        recursion: rng.gen_bool(0.5),
        free_null_decoys: rng.gen_bool(0.7),
        control_flow: rng.gen_bool(0.8),
        multi_decls: rng.gen_bool(0.5),
        concurrency: rng.gen_bool(0.4),
        structs: rng.gen_bool(0.5),
        arrays: rng.gen_bool(0.5),
        fn_ptrs: rng.gen_bool(0.4),
    }
}

/// Sorted `Debug` rendering — the common denominator for comparing
/// result collections whose element types lack `Ord`.
fn sorted_dbg<T: std::fmt::Debug>(items: &[T]) -> Vec<String> {
    let mut v: Vec<String> = items.iter().map(|x| format!("{x:?}")).collect();
    v.sort();
    v
}

/// The thread-count-independent part of a [`ClusterReport`].
fn report_key(r: &ClusterReport) -> String {
    format!(
        "cluster {} size {} relevant {} entries {} tuples {} degraded {:?}",
        r.cluster_id, r.size, r.relevant_stmts, r.summary_entries, r.summary_tuples, r.degraded
    )
}

/// The comparison key of a [`CheckReport`]: every finding field except
/// the wall-clock phase timings.
fn findings_key(r: &CheckReport) -> Vec<String> {
    r.findings
        .iter()
        .map(|f| {
            format!(
                "{:?} {:?} {} {:?} {:?} {} {:?} {} {:?}",
                f.checker,
                f.severity,
                f.func,
                f.loc,
                f.line,
                f.var,
                f.object,
                f.message,
                f.precision
            )
        })
        .collect()
}

/// Parses `src` and checks every cross-engine invariant on it.
///
/// A parse failure is reported as a `"parse-error"` violation — generated
/// programs must always parse, and corpus replay treats it specially for
/// deliberately invalid entries.
pub fn check_source(src: &str) -> Result<(), InvariantViolation> {
    let mut program = match bootstrap_ir::parse_program(src) {
        Ok(p) => p,
        Err(e) => return viol("parse-error", e.to_string()),
    };
    steensgaard::resolve_and_devirtualize(&mut program);
    check_program(&program)
}

/// Runs `check` on `src` under a panic guard: any panic escaping the
/// cascade becomes a violation of class `panic_kind` instead of
/// unwinding the caller.
fn guarded_by(
    check: fn(&str) -> Result<(), InvariantViolation>,
    panic_kind: &'static str,
    src: &str,
) -> Option<InvariantViolation> {
    match panic::catch_unwind(AssertUnwindSafe(|| check(src))) {
        Ok(Ok(())) => None,
        Ok(Err(v)) => Some(v),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Some(InvariantViolation {
                kind: panic_kind,
                detail: msg,
            })
        }
    }
}

/// Runs [`check_source`] under a panic guard: any panic in the cascade
/// becomes a `"panic"` violation instead of unwinding the caller.
pub fn check_guarded(src: &str) -> Option<InvariantViolation> {
    guarded_by(check_source, "panic", src)
}

/// Runs [`check_faults_source`] under the same panic guard; escaped
/// panics become `"fault-panic"` violations (injected faults must be
/// contained by the drivers, never unwind to the caller).
pub fn check_faults_guarded(src: &str) -> Option<InvariantViolation> {
    guarded_by(check_faults_source, "fault-panic", src)
}

fn check_program(program: &Program) -> Result<(), InvariantViolation> {
    let steens = steensgaard::analyze(program);
    let naive = andersen::analyze_with(program, SolverOptions::naive_oracle());
    let delta = andersen::analyze_with(program, SolverOptions::default());

    // Strict aliasing semantics for the lattice checks: entry garbage and
    // NULL-sharing are deliberate over-approximations that sit *outside*
    // the Steensgaard partition containment argument.
    let strict = Config {
        alias_on_entry_garbage: false,
        alias_on_null: false,
        ..base_config()
    };
    let s1 = Session::new(program, strict.clone());
    let s2 = Session::new(program, strict);
    let pointers: Vec<VarId> = s1.pointers().to_vec();

    // --- Andersen solver vs the naive oracle -----------------------------
    // The solver, adaptive and with its cycle machinery engaged from the
    // first pop, must agree with the naive full-set solver, and any class
    // it merges must be provably equal under it.
    let eager = andersen::analyze_with(
        program,
        SolverOptions {
            eager_cycles: true,
            ..SolverOptions::default()
        },
    );
    for (mode, fast) in [("adaptive", &delta), ("eager", &eager)] {
        for &v in &pointers {
            let a = sorted_dbg(&naive.points_to_vars(v));
            let b = sorted_dbg(&fast.points_to_vars(v));
            if a != b {
                return viol(
                    "andersen-naive-vs-delta",
                    format!(
                        "pts({}) naive {:?} != {mode} {:?}",
                        program.var(v).name(),
                        a,
                        b
                    ),
                );
            }
        }
        for group in fast.merged_groups() {
            let first = sorted_dbg(&naive.points_to_vars(group[0]));
            for &member in &group[1..] {
                if first != sorted_dbg(&naive.points_to_vars(member)) {
                    return viol(
                        "andersen-overshared-merge",
                        format!(
                            "{} and {} merged but not provably equal ({mode})",
                            program.var(group[0]).name(),
                            program.var(member).name()
                        ),
                    );
                }
            }
        }
    }

    // --- Andersen oracle + Steensgaard containment -----------------------
    for &v in &pointers {
        let class = steens.points_to_vars(v);
        for o in delta.points_to_vars(v) {
            if !class.contains(&o) {
                return viol(
                    "andersen-outside-steensgaard",
                    format!(
                        "Andersen pts({}) contains {} outside its Steensgaard pointee class",
                        program.var(v).name(),
                        program.var(o).name()
                    ),
                );
            }
        }
    }
    for (i, &p) in pointers.iter().enumerate() {
        for &q in &pointers[i + 1..] {
            if delta.may_alias(p, q) && steens.partition_key(p) != steens.partition_key(q) {
                return viol(
                    "andersen-alias-crosses-partition",
                    format!(
                        "Andersen may_alias({}, {}) across Steensgaard partitions",
                        program.var(p).name(),
                        program.var(q).name()
                    ),
                );
            }
        }
    }

    // --- FSCS site queries at main's exit --------------------------------
    if let Some(main) = program.func_named("main") {
        let exit = program.func(main).exit();
        let az1 = s1.analyzer();
        let az2 = s2.analyzer();
        let queried: Vec<VarId> = pointers.iter().copied().take(QUERY_CAP).collect();

        for &p in &queried {
            let name = program.var(p).name();
            let r1 = s1.query_at_loc(&az1, p, exit);
            let r2 = s2.query_at_loc(&az2, p, exit);
            if r1.precision != r2.precision || r1.reason != r2.reason {
                return viol(
                    "query-degradation-nondeterminism",
                    format!(
                        "sources({name}) degrade differently across fresh sessions: \
                         {:?}/{:?} vs {:?}/{:?}",
                        r1.precision, r1.reason, r2.precision, r2.reason
                    ),
                );
            }
            let ka = sorted_dbg(&r1.sources);
            let kb = sorted_dbg(&r2.sources);
            if ka != kb {
                return viol(
                    "query-nondeterminism",
                    format!("sources({name}) differ across fresh sessions: {ka:?} vs {kb:?}"),
                );
            }
            // The strict pointee-class containment only holds for the
            // full-precision tier: degraded tiers widen to the alias
            // partition (checked separately under fault injection).
            if r1.precision == Precision::Fscs {
                let class = steens.points_to_vars(p);
                for (source, _) in &r1.sources {
                    if let Source::Addr(o) = source {
                        if !class.contains(o) {
                            return viol(
                                "fscs-source-outside-steensgaard",
                                format!(
                                    "source &{} of {name} outside its Steensgaard pointee class",
                                    program.var(*o).name()
                                ),
                            );
                        }
                    }
                }
            }
            if let Some(pts) = az1.fsci_pts(p, exit) {
                let class = steens.points_to_vars(p);
                for o in pts {
                    if !class.contains(&o) {
                        return viol(
                            "fsci-outside-steensgaard",
                            format!(
                                "FSCI pts({name}) contains {} outside its Steensgaard pointee class",
                                program.var(o).name()
                            ),
                        );
                    }
                }
            }
        }

        // must ⇒ may ⇒ Andersen may ⇒ one Steensgaard partition.
        for (i, &p) in queried.iter().enumerate() {
            for &q in &queried[i + 1..] {
                let pn = program.var(p).name();
                let qn = program.var(q).name();
                let may = az1.may_alias(p, q, exit);
                let must = az1.must_alias(p, q, exit);
                if let (Outcome::Done(true), Outcome::Done(m)) = (&must, &may) {
                    if !m {
                        return viol(
                            "must-without-may",
                            format!("must_alias({pn}, {qn}) holds but may_alias denies it"),
                        );
                    }
                }
                if let Outcome::Done(true) = may {
                    if steens.partition_key(p) != steens.partition_key(q) {
                        return viol(
                            "fscs-alias-crosses-partition",
                            format!("FSCS may_alias({pn}, {qn}) across Steensgaard partitions"),
                        );
                    }
                }
                if let Outcome::Done(true) = must {
                    // Entry-garbage must-aliases have no Andersen image;
                    // only check pairs Andersen assigns points-to sets to.
                    if !delta.points_to_vars(p).is_empty()
                        && !delta.points_to_vars(q).is_empty()
                        && !delta.may_alias(p, q)
                    {
                        return viol(
                            "must-without-andersen-may",
                            format!("must_alias({pn}, {qn}) holds but Andersen denies may-alias"),
                        );
                    }
                }
            }
        }
    }

    // --- Sparse vs dense walks, per cluster, in both path modes ----------
    let cx = EngineCx {
        program,
        steens: s1.steens(),
        cg: s1.callgraph(),
        index: s1.relevant_index(),
    };
    for cluster in s1.cover().clusters() {
        for path_sensitive in [false, true] {
            let run = |dense: bool| -> Option<ClusterEngine> {
                let mut eng = ClusterEngine::with_engine_options(
                    cx,
                    cluster.members.clone(),
                    EngineOptions {
                        path_sensitive,
                        dense,
                        ..EngineOptions::default()
                    },
                );
                let mut budget = AnalysisBudget::steps(STEPS_PER_CLUSTER);
                match eng.compute_all_summaries(cx, &NoOracle, &mut budget) {
                    Outcome::Done(()) => Some(eng),
                    Outcome::Degraded(_) => None,
                }
            };
            // A cluster whose dense run exhausts the budget is skipped.
            let Some(dense) = run(true) else {
                continue;
            };
            if let Some(sparse) = run(false) {
                let keys = sparse.summary_disagreements(&dense);
                if !keys.is_empty() {
                    return viol(
                        "walks-disagree",
                        format!(
                            "cluster {} (path_sensitive={path_sensitive}) summaries differ at {keys:?}: sparse {:?} vs dense {:?}",
                            cluster.id,
                            sparse.summary_snapshot(),
                            dense.summary_snapshot()
                        ),
                    );
                }
            }
        }
    }

    // --- Sequential vs work-stealing parallel cluster processing ---------
    let s_seq = Session::new(program, base_config());
    let seq: Vec<String> = process_clusters(&s_seq, s_seq.cover().clusters(), STEPS_PER_CLUSTER)
        .iter()
        .map(report_key)
        .collect();
    for threads in [1usize, 2, 4] {
        let s_par = Session::new(program, base_config());
        let par: Vec<String> =
            process_clusters_parallel(&s_par, s_par.cover().clusters(), threads, STEPS_PER_CLUSTER)
                .iter()
                .map(report_key)
                .collect();
        if seq != par {
            return viol(
                "parallel-divergence",
                format!("cluster reports differ at {threads} threads: {seq:?} vs {par:?}"),
            );
        }
    }

    // --- Checker determinism + threshold metamorphic invariance ----------
    let c1 = run_checks(&Session::new(program, base_config()), &CheckerKind::ALL);
    let c2 = run_checks(&Session::new(program, base_config()), &CheckerKind::ALL);
    let k1 = findings_key(&c1);
    if k1 != findings_key(&c2) {
        return viol(
            "checker-nondeterminism",
            format!("findings differ across fresh sessions: {k1:?}"),
        );
    }
    let low = Config {
        andersen_threshold: 1,
        ..base_config()
    };
    let c3 = run_checks(&Session::new(program, low), &CheckerKind::ALL);
    let k3 = findings_key(&c3);
    if k1 != k3 {
        return viol(
            "checker-threshold-sensitivity",
            format!("findings change with andersen_threshold: {k1:?} vs {k3:?}"),
        );
    }

    // --- Race soundness -------------------------------------------------
    // The race detector's conservatism contract, checked on every
    // generated program (single-threaded programs exercise the trivial
    // case: no races anywhere):
    //
    // * selection invariance: `--only race` reports exactly the race
    //   subset of a full run (cluster batching must not change answers);
    // * evidence consistency: an Error-severity race means *provably*
    //   lock-free at full precision — so its lockset evidence must be
    //   empty and it must carry the FSCS tier, and a may-only lock
    //   (rendered `name?`) can never appear in one;
    // * degradation only widens: every full-precision race survives — by
    //   (site, object) key, since a widened deref resolution can re-anchor
    //   the same statement pair to a different accessing pointer — when the
    //   ladder is forced down to the may-alias tiers, because shrinking
    //   must-locksets can only make *more* pairs look unprotected, never
    //   fewer.
    let race_keys = |r: &CheckReport| -> Vec<String> {
        let mut v: Vec<String> = r
            .findings
            .iter()
            .filter(|f| f.checker == CheckerKind::Race)
            .map(|f| format!("{:?} {} {:?} {}", f.loc, f.var, f.object, f.func))
            .collect();
        v.sort();
        v
    };
    let only = run_checks(&Session::new(program, base_config()), &[CheckerKind::Race]);
    if race_keys(&only) != race_keys(&c1) {
        return viol(
            "race-selection-divergence",
            format!(
                "race-only run differs from the full run: {:?} vs {:?}",
                race_keys(&only),
                race_keys(&c1)
            ),
        );
    }
    for f in c1
        .findings
        .iter()
        .filter(|f| f.checker == CheckerKind::Race)
    {
        if f.severity == bootstrap_checks::Severity::Error
            && (f.precision != Precision::Fscs || f.message.contains('?'))
        {
            return viol(
                "race-evidence-inconsistent",
                format!("Error-severity race without provably empty FSCS locksets: {f:?}"),
            );
        }
    }
    let degraded_races = run_checks(
        &Session::new(
            program,
            Config {
                query_step_budget: 1,
                ..base_config()
            },
        ),
        &[CheckerKind::Race],
    );
    let site_key = |f: &bootstrap_checks::Finding| format!("{:?} {:?} {}", f.loc, f.object, f.func);
    let widened: HashSet<String> = degraded_races
        .findings
        .iter()
        .filter(|f| f.checker == CheckerKind::Race)
        .map(site_key)
        .collect();
    for f in c1
        .findings
        .iter()
        .filter(|f| f.checker == CheckerKind::Race && f.precision == Precision::Fscs)
    {
        if !widened.contains(&site_key(f)) {
            return viol(
                "race-degradation-dropped",
                format!("full-precision race lost under a degraded ladder: {f:?}"),
            );
        }
    }

    Ok(())
}

/// Parses `src` and checks the fault-injection invariants on it.
pub fn check_faults_source(src: &str) -> Result<(), InvariantViolation> {
    let mut program = match bootstrap_ir::parse_program(src) {
        Ok(p) => p,
        Err(e) => return viol("parse-error", e.to_string()),
    };
    steensgaard::resolve_and_devirtualize(&mut program);
    check_faults(&program)
}

/// Fault-injection invariants: a deterministic fault seeded into any
/// phase must produce degraded-but-sound answers, and a fault targeting
/// one cluster must never lose a report or disturb a sibling's.
///
/// * every degraded ladder answer carries a [`DegradeReason`];
/// * degraded `Addr` sources stay inside the union of Steensgaard
///   pointee classes over the pointer's alias partition (the coarsest
///   tier's bound);
/// * when the clean run answers at full FSCS precision, the faulted
///   answer's sources are a superset of the clean sources (degradation
///   only over-approximates, it never drops a source);
/// * with a fault pinned to the largest cluster's summary phase, every
///   driver (serial, 2- and 4-thread LPT) still returns one report per
///   cluster, and every non-target report matches the clean baseline;
/// * the persistent-store invariants of [`check_store`] hold.
///
/// [`DegradeReason`]: bootstrap_core::DegradeReason
pub fn check_faults(program: &Program) -> Result<(), InvariantViolation> {
    let steens = steensgaard::analyze(program);
    let clean_session = Session::new(program, base_config());
    let pointers: Vec<VarId> = clean_session.pointers().to_vec();

    // --- Query/Oracle faults degrade soundly -----------------------------
    if let Some(main) = program.func_named("main") {
        let exit = program.func(main).exit();
        let clean_az = clean_session.analyzer();
        let queried: Vec<VarId> = pointers.iter().copied().take(8).collect();
        let clean: Vec<LadderAnswer> = queried
            .iter()
            .map(|&p| clean_session.query_at_loc(&clean_az, p, exit))
            .collect();
        for phase in FaultPhase::ALL {
            if phase == FaultPhase::Summaries {
                continue; // covered by the cluster-isolation check below
            }
            if phase == FaultPhase::Store {
                // Store faults only bite with a store configured; they are
                // covered by the dedicated warm/cold check below.
                continue;
            }
            if phase == FaultPhase::Serve {
                // Serve faults only bite inside the daemon's request loop;
                // they are exercised by the daemon chaos soak.
                continue;
            }
            for kind in FaultKind::ALL {
                let session = Session::new(
                    program,
                    Config {
                        fault_plan: Some(FaultPlan {
                            phase,
                            kind,
                            at_tick: 1,
                            cluster: None,
                        }),
                        ..base_config()
                    },
                );
                let az = session.analyzer();
                for (i, &p) in queried.iter().enumerate() {
                    let name = program.var(p).name();
                    let r = session.query_at_loc(&az, p, exit);
                    if r.is_degraded() {
                        if r.reason.is_none() {
                            return viol(
                                "fault-missing-reason",
                                format!(
                                    "{phase:?}/{kind:?}: degraded sources({name}) carry no reason"
                                ),
                            );
                        }
                        let key = steens.partition_key(p);
                        let allowed: HashSet<VarId> = program
                            .var_ids()
                            .filter(|&v| steens.partition_key(v) == key)
                            .chain(steens.members(key).iter().copied())
                            .flat_map(|m| steens.points_to_vars(m).iter().copied())
                            .collect();
                        for (source, _) in &r.sources {
                            if let Source::Addr(o) = source {
                                if !allowed.contains(o) {
                                    return viol(
                                        "fault-degraded-outside-steensgaard",
                                        format!(
                                            "{phase:?}/{kind:?}: degraded source &{} of {name} \
                                             outside its partition's Steensgaard bound",
                                            program.var(*o).name()
                                        ),
                                    );
                                }
                            }
                        }
                    }
                    if clean[i].precision == Precision::Fscs {
                        let have: HashSet<Source> = r.sources.iter().map(|&(s, _)| s).collect();
                        for &(s, _) in &clean[i].sources {
                            if !have.contains(&s) {
                                return viol(
                                    "fault-degraded-not-superset",
                                    format!(
                                        "{phase:?}/{kind:?}: faulted sources({name}) \
                                         lost clean FSCS source {s:?}"
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // --- Summary faults are isolated to their target cluster -------------
    let clusters = clean_session.cover().clusters();
    if clusters.is_empty() {
        return Ok(());
    }
    let baseline: Vec<String> = process_clusters(&clean_session, clusters, STEPS_PER_CLUSTER)
        .iter()
        .map(report_key)
        .collect();
    let target = lpt_order(clusters)[0];
    for kind in FaultKind::ALL {
        let config = Config {
            fault_plan: Some(FaultPlan {
                phase: FaultPhase::Summaries,
                kind,
                at_tick: 1,
                cluster: Some(target),
            }),
            ..base_config()
        };
        for threads in [1usize, 2, 4] {
            let session = Session::new(program, config.clone());
            let clusters = session.cover().clusters();
            let reports = if threads == 1 {
                process_clusters(&session, clusters, STEPS_PER_CLUSTER)
            } else {
                process_clusters_parallel(&session, clusters, threads, STEPS_PER_CLUSTER)
            };
            if reports.len() != clusters.len() {
                return viol(
                    "fault-cluster-lost",
                    format!(
                        "{kind:?} @ cluster {target}, {threads} threads: {} reports \
                         for {} clusters",
                        reports.len(),
                        clusters.len()
                    ),
                );
            }
            for r in &reports {
                if r.cluster_id == target {
                    continue;
                }
                let key = report_key(r);
                if baseline[r.cluster_id] != key {
                    return viol(
                        "fault-sibling-disturbed",
                        format!(
                            "{kind:?} @ cluster {target}, {threads} threads: sibling \
                             {} changed: {key:?} vs clean {:?}",
                            r.cluster_id, baseline[r.cluster_id]
                        ),
                    );
                }
            }
        }
    }
    check_store(program)
}

/// A unique scratch directory for one store-invariant run. Process id,
/// thread id and a global counter keep concurrent test threads and corpus
/// replays from colliding.
fn store_scratch_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "bootstrap_fuzz_store_{}_{:?}_{}",
        std::process::id(),
        std::thread::current().id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Persistent-store invariants, checked per generated program:
///
/// * a warm session over an unchanged program and cache directory reports
///   byte-identical checker findings to the cold session that populated
///   it, and never invalidates an entry;
/// * every store-phase fault kind forces the warm run back to a full
///   recompute (zero hits) with — again — identical findings.
pub fn check_store(program: &Program) -> Result<(), InvariantViolation> {
    let dir = store_scratch_dir();
    let with_store = |fault: Option<FaultKind>| Config {
        store: Some(bootstrap_core::StoreConfig::new(&dir)),
        fault_plan: fault.map(|kind| FaultPlan {
            phase: FaultPhase::Store,
            kind,
            at_tick: 1,
            cluster: None,
        }),
        ..base_config()
    };
    let result = (|| {
        let cold = run_checks(&Session::new(program, with_store(None)), &CheckerKind::ALL);
        let k_cold = findings_key(&cold);

        let warm_session = Session::new(program, with_store(None));
        let warm = run_checks(&warm_session, &CheckerKind::ALL);
        if k_cold != findings_key(&warm) {
            return viol(
                "store-warm-diverges",
                format!(
                    "warm findings differ from cold: {k_cold:?} vs {:?}",
                    findings_key(&warm)
                ),
            );
        }
        if warm.store.invalidated != 0 {
            return viol(
                "store-warm-invalidated",
                format!(
                    "unchanged program invalidated {} store entries",
                    warm.store.invalidated
                ),
            );
        }
        drop(warm_session);

        for kind in FaultKind::ALL {
            let faulted = run_checks(
                &Session::new(program, with_store(Some(kind))),
                &CheckerKind::ALL,
            );
            if faulted.store.hits != 0 {
                return viol(
                    "store-fault-not-injected",
                    format!("{kind:?}: faulted store consults still hit"),
                );
            }
            if k_cold != findings_key(&faulted) {
                return viol(
                    "store-fault-diverges",
                    format!(
                        "{kind:?}: findings under injected store corruption differ: \
                         {k_cold:?} vs {:?}",
                        findings_key(&faulted)
                    ),
                );
            }
        }
        Ok(())
    })();
    let _ = fs::remove_dir_all(&dir);
    result
}

/// Shrinks `seed_prog` while `still_fails(render)` holds, removing whole
/// helper functions, then single statements, then single globals, to a
/// fixpoint (ddmin at the generator's statement granularity; candidates
/// that stop failing — including ones that no longer parse, unless the
/// failure *is* a parse error — are rejected).
pub fn reduce_program(
    seed_prog: &MiniCProgram,
    still_fails: &dyn Fn(&str) -> bool,
) -> MiniCProgram {
    let mut cur = seed_prog.clone();
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < cur.funcs.len() {
            if cur.funcs[i].name == "main" {
                i += 1;
                continue;
            }
            let mut cand = cur.clone();
            cand.funcs.remove(i);
            if still_fails(&cand.render()) {
                cur = cand;
                changed = true;
            } else {
                i += 1;
            }
        }
        for fi in 0..cur.funcs.len() {
            let mut i = 0;
            while i < cur.funcs[fi].body.len() {
                let mut cand = cur.clone();
                cand.funcs[fi].body.remove(i);
                if still_fails(&cand.render()) {
                    cur = cand;
                    changed = true;
                } else {
                    i += 1;
                }
            }
        }
        let mut i = 0;
        while i < cur.globals.len() {
            let mut cand = cur.clone();
            cand.globals.remove(i);
            if still_fails(&cand.render()) {
                cur = cand;
                changed = true;
            } else {
                i += 1;
            }
        }
    }
    cur
}

/// Runs the full differential campaign: `iters` random programs, every
/// violation shrunk and (optionally) written to the corpus directory.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    // Panics are expected evidence here, not test failures: silence the
    // default hook for the duration so a campaign doesn't spray backtraces.
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut violations = Vec::new();
    for iteration in 0..config.iters {
        let prog = minic::generate(&config_for(config.seed, iteration));
        let src = prog.render();
        let found = check_guarded(&src).or_else(|| {
            if config.faults {
                check_faults_guarded(&src)
            } else {
                None
            }
        });
        let Some(found) = found else {
            continue;
        };
        let kind = found.kind;
        // Fault-class violations only reproduce under the fault checker;
        // everything else shrinks against the differential invariants.
        let recheck: fn(&str) -> Option<InvariantViolation> = if kind.starts_with("fault-") {
            check_faults_guarded
        } else {
            check_guarded
        };
        let minimized = if config.reduce {
            reduce_program(&prog, &|src| recheck(src).is_some_and(|w| w.kind == kind))
        } else {
            prog.clone()
        };
        let source = minimized.render();
        if let Some(dir) = &config.corpus_dir {
            let _ = fs::create_dir_all(dir);
            let name = format!("seed{}_iter{}_{}.c", config.seed, iteration, kind);
            let _ = fs::write(dir.join(name), &source);
        }
        violations.push(Violation {
            iteration,
            kind,
            detail: found.detail,
            source,
        });
    }
    panic::set_hook(prev);
    FuzzReport {
        iters: config.iters,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_for_is_deterministic_and_varied() {
        let a = config_for(1, 0);
        let b = config_for(1, 0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let distinct: std::collections::HashSet<String> =
            (0..16).map(|i| format!("{:?}", config_for(1, i))).collect();
        assert!(distinct.len() > 8, "knobs barely vary: {}", distinct.len());
    }

    #[test]
    fn clean_program_passes_all_invariants() {
        let src = "int g; int *p; int *q; int x;
             void main() { p = &g; q = p; x = *q; }";
        assert!(check_source(src).is_ok());
    }

    #[test]
    fn racy_program_passes_all_invariants() {
        // A genuinely racy program (shared counter, no lock) must satisfy
        // the race-soundness invariants: the findings themselves are the
        // expected output, and they must be stable across selection,
        // degradation and thresholds.
        let src = "int counter; int *p;
             void worker() { int t; t = *p; *p = t; }
             void main() { int s; p = &counter; spawn worker(); s = *p; *p = s; }";
        let r = check_source(src);
        assert!(r.is_ok(), "violation: {r:?}");
    }

    #[test]
    fn locked_program_passes_all_invariants() {
        let src = "int counter; int m; int *p;
             void worker() { int t; lock(&m); t = *p; *p = t; unlock(&m); }
             void main() {
               int s;
               p = &counter; spawn worker();
               lock(&m); s = *p; *p = s; unlock(&m);
             }";
        let r = check_source(src);
        assert!(r.is_ok(), "violation: {r:?}");
    }

    #[test]
    fn parse_failure_is_reported_not_panicked() {
        let v = check_guarded("int broken(").expect("must fail");
        assert_eq!(v.kind, "parse-error");
    }

    #[test]
    fn reducer_shrinks_to_the_failing_line() {
        // A synthetic predicate: "fails" iff the program still mentions
        // the magic variable — the reducer must strip everything else.
        let prog = minic::generate(&MiniCConfig::default());
        let fails = |src: &str| src.contains("g0_0");
        if !fails(&prog.render()) {
            return; // this seed never mentions it; nothing to shrink
        }
        let small = reduce_program(&prog, &fails);
        assert!(small.render().contains("g0_0"));
        let before = prog.render().lines().count();
        let after = small.render().lines().count();
        assert!(after <= before, "reducer grew the program");
        // Everything except main and the touched global should be gone.
        assert_eq!(small.funcs.len(), 1, "helpers not removed: {:?}", small);
    }

    #[test]
    fn short_campaign_on_fixed_seed_is_clean() {
        let report = run_fuzz(&FuzzConfig {
            seed: 7,
            iters: 10,
            corpus_dir: None,
            reduce: true,
            faults: false,
        });
        assert_eq!(report.iters, 10);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report
                .violations
                .iter()
                .map(|v| (v.kind, &v.detail, &v.source))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn oversharing_guard_on_hub_cycle_and_handle_table_workloads() {
        // The big-partition generator builds the two workloads where a
        // careless cycle detector overshares: closed hub copy cycles and
        // handle tables (loads/stores through a shared double pointer).
        // Every class the eager solver merges must be provably equal under
        // the naive oracle, and the points-to sets must match it exactly.
        use bootstrap_workloads::generator::{self, BigPartition, GenConfig};
        let workloads = [
            // Deep spokes feeding a short closed hub chain.
            GenConfig {
                name: "hub-cycle".to_string(),
                seed: 0x9e37_79b9_7f4a_7c15,
                n_funcs: 8,
                big_partitions: vec![BigPartition {
                    size: 120,
                    andersen_max: 40,
                }],
                small_partitions: 4,
                small_max: 4,
                singletons: 2,
                call_percent: 12,
                churn_communities: 2,
                control_flow: true,
            },
            // Hub-heavy shape: more hubs means a wider handle table
            // (every hub's address stored through the same double
            // pointer, then read back), the classic oversharing trap.
            GenConfig {
                name: "handle-table".to_string(),
                seed: 0xdead_beef_cafe_f00d,
                n_funcs: 6,
                big_partitions: vec![BigPartition {
                    size: 96,
                    andersen_max: 96,
                }],
                small_partitions: 2,
                small_max: 3,
                singletons: 0,
                call_percent: 8,
                churn_communities: 0,
                control_flow: false,
            },
        ];
        for config in workloads {
            let program = generator::generate(&config);
            let naive = andersen::analyze_with(&program, SolverOptions::naive_oracle());
            // Eager engagement: these workloads are small enough that the
            // adaptive drain can converge before the thrash detector brings
            // the merge machinery in, and the guard below needs merges to
            // inspect.
            let opts = SolverOptions {
                eager_cycles: true,
                ..SolverOptions::default()
            };
            let fast = andersen::analyze_with(&program, opts);
            for v in program.var_ids() {
                assert_eq!(
                    naive.points_to_vars(v),
                    fast.points_to_vars(v),
                    "{}: pts({}) diverged",
                    config.name,
                    program.var(v).name()
                );
            }
            let groups = fast.merged_groups();
            assert!(
                !groups.is_empty(),
                "{}: expected the hybrid solver to merge at least one cycle",
                config.name
            );
            for group in groups {
                for &member in &group[1..] {
                    assert_eq!(
                        naive.points_to_vars(group[0]),
                        naive.points_to_vars(member),
                        "{}: overshared merge {} ~ {}",
                        config.name,
                        program.var(group[0]).name(),
                        program.var(member).name()
                    );
                }
            }
        }
    }

    #[test]
    fn fault_invariants_hold_on_a_fixed_program() {
        let src = "int g; int h; int *p; int *q; int c; int x;
             void main() { p = &g; q = &h; if (c) { q = p; } x = *q; free(p); }";
        assert!(
            check_faults_source(src).is_ok(),
            "violation: {:?}",
            check_faults_source(src)
        );
    }

    #[test]
    fn store_invariants_hold_on_a_fixed_program() {
        let src = "int g; int h; int *p; int *q; int c; int x;
             void main() { p = &g; q = &h; if (c) { q = p; } x = *q; free(p); }";
        let mut program = bootstrap_ir::parse_program(src).unwrap();
        steensgaard::resolve_and_devirtualize(&mut program);
        let r = check_store(&program);
        assert!(r.is_ok(), "violation: {r:?}");
    }

    #[test]
    fn short_faulted_campaign_is_clean() {
        let report = run_fuzz(&FuzzConfig {
            seed: 11,
            iters: 4,
            corpus_dir: None,
            reduce: true,
            faults: true,
        });
        assert_eq!(report.iters, 4);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report
                .violations
                .iter()
                .map(|v| (v.kind, &v.detail, &v.source))
                .collect::<Vec<_>>()
        );
    }
}
