//! Client checkers over the bootstrapped alias engine.
//!
//! The paper's motivation for making flow- and context-sensitive (FSCS)
//! alias analysis scale is precisely this layer: bug-finding clients that
//! consume per-statement points-to facts. This crate implements three
//! flow- and context-sensitive checkers over Mini-C programs:
//!
//! * **null-pointer dereference** — a dereference of `p` at `L` where the
//!   FSCS sources of `p` at `L` include `NULL`. Strong updates in the
//!   backward walk (a `p = &a` kills an earlier `p = NULL`) suppress the
//!   false positives a flow-insensitive checker would report.
//! * **use-after-free** — a dereference of a pointer whose points-to set
//!   at `L` contains a heap object freed at an earlier-executing free
//!   site.
//! * **double-free** — a free site releasing a heap object already
//!   released by a distinct free site that may execute before it.
//! * **data race** ([`race`]) — concurrent conflicting accesses to a
//!   thread-escaped object without a common lock provably held at both
//!   sites, over the `spawn`/`lock`/`unlock` extended IR.
//!
//! Dereference and free sites are collected per Andersen cluster (sites
//! are queried in partition order so consecutive queries hit the same
//! per-cluster `St_P` slice and engine), and every site is resolved
//! through [`Session::query_at_loc`], sharing one [`Analyzer`]'s memo and
//! the session-wide FSCI cache across the whole batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod order;
mod race;
mod report;

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use bootstrap_core::{
    Analyzer, Cond, DegradeReason, FsciCacheStats, InternerStats, Phase, PhaseSnapshot, Precision,
    QueryLimits, Session, SolverStats, Source, StoreCounters,
};
use bootstrap_ir::{Loc, Program, Stmt, VarId, VarKind};

pub use order::reachable_after;
pub use report::render_text;

/// The individual checkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CheckerKind {
    /// Dereference of a possibly-NULL pointer.
    NullDeref,
    /// Dereference of a pointer to a freed heap object.
    UseAfterFree,
    /// Second free of an already-freed heap object.
    DoubleFree,
    /// Concurrent conflicting accesses to a shared object without a
    /// common lock.
    Race,
}

impl CheckerKind {
    /// All checkers, in canonical reporting order.
    pub const ALL: [CheckerKind; 4] = [
        CheckerKind::NullDeref,
        CheckerKind::UseAfterFree,
        CheckerKind::DoubleFree,
        CheckerKind::Race,
    ];

    /// The checker's stable command-line name.
    pub fn name(self) -> &'static str {
        match self {
            CheckerKind::NullDeref => "null-deref",
            CheckerKind::UseAfterFree => "use-after-free",
            CheckerKind::DoubleFree => "double-free",
            CheckerKind::Race => "race",
        }
    }

    /// Parses a command-line name (`uaf` is accepted as an alias).
    pub fn parse(s: &str) -> Option<CheckerKind> {
        match s {
            "null-deref" | "nullderef" | "null" => Some(CheckerKind::NullDeref),
            "uaf" | "use-after-free" => Some(CheckerKind::UseAfterFree),
            "double-free" | "doublefree" | "df" => Some(CheckerKind::DoubleFree),
            "race" | "data-race" | "races" => Some(CheckerKind::Race),
            _ => None,
        }
    }
}

/// How certain a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The defect may occur on some path (other clean values also reach
    /// the site).
    Warning,
    /// Every resolvable value reaching the site exhibits the defect.
    Error,
}

impl Severity {
    /// Lower-case label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic produced by a checker.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The checker that produced it.
    pub checker: CheckerKind,
    /// Error when the defect is unconditional, warning when path-dependent.
    pub severity: Severity,
    /// Name of the function containing the site.
    pub func: String,
    /// The IR location of the offending statement.
    pub loc: Loc,
    /// 1-based source line of the statement, when the program was lowered
    /// from source.
    pub line: Option<u32>,
    /// Source-level name of the dereferenced / freed pointer.
    pub var: String,
    /// The freed heap object (use-after-free and double-free only).
    pub object: Option<String>,
    /// Human-readable description.
    pub message: String,
    /// Confidence tier: the coarsest precision ladder tier consulted for
    /// any site resolution this finding is built from. [`Precision::Fscs`]
    /// findings are full-precision; coarser tiers over-approximate, so the
    /// finding may be a false positive of the degradation (never a missed
    /// defect).
    pub precision: Precision,
}

/// Per-checker work counters.
#[derive(Clone, Copy, Debug)]
pub struct CheckerStats {
    /// The checker these counters describe.
    pub kind: CheckerKind,
    /// Dereference / free sites the checker examined.
    pub sites: usize,
    /// `query_at_loc` resolutions the checker consumed (shared resolutions
    /// count for every checker that used them).
    pub queries: usize,
    /// Findings reported.
    pub findings: usize,
}

/// The result of one checker run.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// All findings, sorted by function, statement and checker.
    pub findings: Vec<Finding>,
    /// One entry per requested checker, in [`CheckerKind::ALL`] order.
    pub stats: Vec<CheckerStats>,
    /// Shared FSCI cache counters at the end of the run.
    pub cache: FsciCacheStats,
    /// Session interner counters at the end of the run (interned
    /// conditions / dead sets plus memo hit rates).
    pub interner: InternerStats,
    /// Per-phase wall time and step counters accumulated by the session.
    pub phases: PhaseSnapshot,
    /// Aggregate Andersen solver counters (worklist pops, cycles
    /// collapsed, wave rounds) across every cluster the session solved.
    pub solver: SolverStats,
    /// Per-tier and per-reason accounting of the batch's site resolutions.
    pub degrade: DegradeSummary,
    /// Persistent-store counters for the run (all zero when the session
    /// has no store configured).
    pub store: StoreCounters,
}

/// How the precision ladder answered a checker batch's site queries: one
/// count per tier (unique `(pointer, loc)` resolutions, memoized across
/// checkers) plus the distinct degradation reasons observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradeSummary {
    /// Resolutions answered at full FSCS precision.
    pub fscs_queries: usize,
    /// Resolutions degraded to the Andersen tier.
    pub andersen_queries: usize,
    /// Resolutions degraded to the Steensgaard tier.
    pub steensgaard_queries: usize,
    /// Distinct degradation reasons with occurrence counts, sorted by
    /// reason.
    pub reasons: Vec<(DegradeReason, usize)>,
}

impl DegradeSummary {
    /// Resolutions that fell below full precision.
    pub fn degraded_queries(&self) -> usize {
        self.andersen_queries + self.steensgaard_queries
    }

    /// Total resolutions across all tiers.
    pub fn total_queries(&self) -> usize {
        self.fscs_queries + self.degraded_queries()
    }
}

/// A dereference or free site.
#[derive(Clone, Copy, Debug)]
struct Site {
    ptr: VarId,
    loc: Loc,
}

/// One resolved site: the sources and the ladder tier that produced them.
/// Every site resolves — degraded answers are consumed at lower confidence
/// instead of being dropped.
type Resolution = (Vec<(Source, Cond)>, Precision);

/// Memoizing wrapper around [`Session::query_at_loc`]: one resolution per
/// `(pointer, loc)` pair for the whole batch.
struct Resolver<'a, 'p> {
    session: &'a Session<'p>,
    az: Analyzer<'a>,
    limits: QueryLimits,
    resolved: HashMap<(VarId, Loc), Resolution>,
    /// Unique resolutions per tier, [`Precision::ALL`] order.
    tiers: [usize; 3],
    reasons: HashMap<DegradeReason, usize>,
    /// Wall time spent inside `query_at_loc_limited`, which the cascade
    /// phases already account for.
    resolving: Duration,
}

fn tier_slot(p: Precision) -> usize {
    match p {
        Precision::Fscs => 0,
        Precision::Andersen => 1,
        Precision::Steensgaard => 2,
    }
}

impl Resolver<'_, '_> {
    fn sources(&mut self, ptr: VarId, loc: Loc) -> (&[(Source, Cond)], Precision) {
        if !self.resolved.contains_key(&(ptr, loc)) {
            let t0 = Instant::now();
            let ans = self
                .session
                .query_at_loc_limited(&self.az, ptr, loc, &self.limits);
            self.resolving += t0.elapsed();
            self.tiers[tier_slot(ans.precision)] += 1;
            if let Some(r) = ans.reason {
                *self.reasons.entry(r).or_insert(0) += 1;
            }
            self.resolved
                .insert((ptr, loc), (ans.sources, ans.precision));
        }
        let (sources, precision) = &self.resolved[&(ptr, loc)];
        (sources.as_slice(), *precision)
    }

    fn summary(&self) -> DegradeSummary {
        let mut reasons: Vec<(DegradeReason, usize)> =
            self.reasons.iter().map(|(&r, &c)| (r, c)).collect();
        reasons.sort();
        DegradeSummary {
            fscs_queries: self.tiers[0],
            andersen_queries: self.tiers[1],
            steensgaard_queries: self.tiers[2],
            reasons,
        }
    }
}

/// Runs the requested checkers over the session's program.
///
/// Pass [`CheckerKind::ALL`] (or any subset) as `kinds`; duplicates are
/// ignored. The report's findings are deduplicated and deterministically
/// ordered.
pub fn run_checks(session: &Session<'_>, kinds: &[CheckerKind]) -> CheckReport {
    run_checks_limited(session, kinds, &QueryLimits::none())
}

/// [`run_checks`] with per-request [`QueryLimits`] (a wall deadline
/// and/or a cancellation flag) threaded into every site resolution. The
/// analysis daemon runs client `check` requests through this so a slow
/// batch degrades tier-by-tier instead of wedging a worker, and a
/// disconnected client's batch is abandoned at the next budget
/// checkpoint.
pub fn run_checks_limited(
    session: &Session<'_>,
    kinds: &[CheckerKind],
    limits: &QueryLimits,
) -> CheckReport {
    run_checks_with(session, kinds, limits, session.analyzer())
}

/// [`run_checks_limited`] resolving through a caller-supplied analyzer.
///
/// The daemon's per-request isolation retries a panicked batch on a
/// fresh analyzer with a doubled interning arena (mirroring the parallel
/// driver's cluster retry); this entry point is what makes that retry
/// possible without reaching into the resolver.
pub fn run_checks_with<'a>(
    session: &'a Session<'_>,
    kinds: &[CheckerKind],
    limits: &QueryLimits,
    az: Analyzer<'a>,
) -> CheckReport {
    let t0 = Instant::now();
    let program = session.program();
    let want = |k: CheckerKind| kinds.contains(&k);
    let want_null = want(CheckerKind::NullDeref);
    let want_uaf = want(CheckerKind::UseAfterFree);
    let want_df = want(CheckerKind::DoubleFree);
    let want_race = want(CheckerKind::Race);

    let mut deref_sites: Vec<Site> = Vec::new();
    let mut free_sites: Vec<Site> = Vec::new();
    for f in program.functions() {
        for (loc, s) in f.locs() {
            match s {
                Stmt::Load { src, .. } => deref_sites.push(Site { ptr: *src, loc }),
                Stmt::Store { dst, .. } => deref_sites.push(Site { ptr: *dst, loc }),
                Stmt::Free { dst } => free_sites.push(Site { ptr: *dst, loc }),
                _ => {}
            }
        }
    }
    // Query in Steensgaard-partition order: consecutive sites then share
    // the same per-cluster engine and relevant-statement slice.
    let cluster_order = |s: &Site| {
        (
            session.steens().partition_key(s.ptr),
            s.loc.func,
            s.loc.stmt,
        )
    };
    deref_sites.sort_by_key(cluster_order);
    free_sites.sort_by_key(cluster_order);
    // Under a query budget an answer can depend on what earlier queries
    // left in the partition engines, so a selection whose checkers query
    // anything first resolves every site a full run resolves before them,
    // in the full run's order: dereference sites, then free sites, then
    // the race checker's. A subset of the checkers then answers what the
    // full run answers; a checker with nothing to ask (no free site, fewer
    // than two threads) costs nothing.
    let threads = want_race.then(|| race::threads(session)).flatten();
    let need_free = want_uaf || (want_df && !free_sites.is_empty()) || threads.is_some();
    let need_deref = want_null || need_free;

    let mut rs = Resolver {
        session,
        az,
        limits: limits.clone(),
        resolved: HashMap::new(),
        tiers: [0; 3],
        reasons: HashMap::new(),
        resolving: Duration::ZERO,
    };
    let mut stats: HashMap<CheckerKind, CheckerStats> = CheckerKind::ALL
        .iter()
        .filter(|k| want(**k))
        .map(|&kind| {
            (
                kind,
                CheckerStats {
                    kind,
                    sites: 0,
                    queries: 0,
                    findings: 0,
                },
            )
        })
        .collect();
    let bump = |stats: &mut HashMap<CheckerKind, CheckerStats>, k: CheckerKind, on: bool| {
        if on {
            let s = stats.get_mut(&k).expect("requested checker");
            s.sites += 1;
            s.queries += 1;
        }
    };

    let mut findings: Vec<Finding> = Vec::new();
    let mut seen: HashSet<(CheckerKind, Loc, VarId, Option<VarId>)> = HashSet::new();

    // Resolve dereference sites once; null-deref findings fall out inline.
    if need_deref {
        for site in &deref_sites {
            bump(&mut stats, CheckerKind::NullDeref, want_null);
            bump(&mut stats, CheckerKind::UseAfterFree, want_uaf);
            let (sources, precision) = rs.sources(site.ptr, site.loc);
            if !want_null {
                continue;
            }
            let nulls = sources.iter().filter(|(s, _)| *s == Source::Null).count();
            if nulls == 0 || !seen.insert((CheckerKind::NullDeref, site.loc, site.ptr, None)) {
                continue;
            }
            let severity = if nulls == sources.len() {
                Severity::Error
            } else {
                Severity::Warning
            };
            let var = program.var(site.ptr).name().to_string();
            let message = match severity {
                Severity::Error => format!("dereference of `{var}` which is NULL"),
                Severity::Warning => format!("dereference of `{var}` which may be NULL"),
            };
            findings.push(Finding {
                checker: CheckerKind::NullDeref,
                severity,
                func: program.func(site.loc.func).name().to_string(),
                loc: site.loc,
                line: program.line_of(site.loc),
                var,
                object: None,
                message,
                precision,
            });
        }
    }

    // Freed heap objects per free site: the heap (allocation-site) objects
    // among the FSCS sources of the freed pointer at the free statement.
    let mut freed: Vec<(Site, Vec<VarId>, Precision)> = Vec::new();
    if need_free {
        for site in &free_sites {
            bump(&mut stats, CheckerKind::UseAfterFree, want_uaf);
            bump(&mut stats, CheckerKind::DoubleFree, want_df);
            let (sources, precision) = rs.sources(site.ptr, site.loc);
            let heap: Vec<VarId> = sources
                .iter()
                .filter_map(|(s, _)| match s {
                    Source::Addr(o) if matches!(program.var(*o).kind(), VarKind::AllocSite(_)) => {
                        Some(*o)
                    }
                    _ => None,
                })
                .collect();
            if !heap.is_empty() {
                freed.push((*site, heap, precision));
            }
        }
    }

    // Forward may-execute-after sets, one per interesting free site.
    let mut follow: HashMap<Loc, HashSet<Loc>> = HashMap::new();
    for (site, _, _) in &freed {
        follow
            .entry(site.loc)
            .or_insert_with(|| reachable_after(session, site.loc));
    }

    if want_uaf {
        for (fsite, objs, fprec) in &freed {
            let after = &follow[&fsite.loc];
            for dsite in &deref_sites {
                if !after.contains(&dsite.loc) {
                    continue;
                }
                let (sources, dprec) = rs.sources(dsite.ptr, dsite.loc);
                let precision = (*fprec).max(dprec);
                let hit: Vec<VarId> = sources
                    .iter()
                    .filter_map(|(s, _)| match s {
                        Source::Addr(o) if objs.contains(o) => Some(*o),
                        _ => None,
                    })
                    .collect();
                if hit.is_empty() {
                    continue;
                }
                // Unconditional when every resolvable source is a freed
                // object from this free site.
                let severity = if hit.len() == sources.len() {
                    Severity::Error
                } else {
                    Severity::Warning
                };
                for obj in hit {
                    if !seen.insert((CheckerKind::UseAfterFree, dsite.loc, dsite.ptr, Some(obj))) {
                        continue;
                    }
                    let var = program.var(dsite.ptr).name().to_string();
                    let object = program.var(obj).name().to_string();
                    findings.push(Finding {
                        checker: CheckerKind::UseAfterFree,
                        severity,
                        func: program.func(dsite.loc.func).name().to_string(),
                        loc: dsite.loc,
                        line: program.line_of(dsite.loc),
                        var,
                        message: format!(
                            "dereference of `{}` may access `{}` freed at {}",
                            program.var(dsite.ptr).name(),
                            object,
                            site_label(program, fsite.loc),
                        ),
                        object: Some(object),
                        precision,
                    });
                }
            }
        }
    }

    if want_df {
        for (i, (f1, objs1, prec1)) in freed.iter().enumerate() {
            let after = &follow[&f1.loc];
            for (j, (f2, objs2, prec2)) in freed.iter().enumerate() {
                // A site paired with itself is excluded: in the modeled
                // semantics free nulls its operand, so a loop re-executing
                // one free(p) re-frees nothing (p is NULL or reassigned).
                if i == j || !after.contains(&f2.loc) {
                    continue;
                }
                let common: Vec<VarId> = objs2
                    .iter()
                    .copied()
                    .filter(|o| objs1.contains(o))
                    .collect();
                if common.is_empty() {
                    continue;
                }
                let severity = if common.len() == objs2.len() {
                    Severity::Error
                } else {
                    Severity::Warning
                };
                for obj in common {
                    if !seen.insert((CheckerKind::DoubleFree, f2.loc, f2.ptr, Some(obj))) {
                        continue;
                    }
                    let object = program.var(obj).name().to_string();
                    findings.push(Finding {
                        checker: CheckerKind::DoubleFree,
                        severity,
                        func: program.func(f2.loc.func).name().to_string(),
                        loc: f2.loc,
                        line: program.line_of(f2.loc),
                        var: program.var(f2.ptr).name().to_string(),
                        message: format!(
                            "`{}` frees `{}` already freed at {}",
                            program.var(f2.ptr).name(),
                            object,
                            site_label(program, f1.loc),
                        ),
                        object: Some(object),
                        precision: (*prec1).max(*prec2),
                    });
                }
            }
        }
    }

    if want_race {
        let (race_findings, sites, queries) = match &threads {
            Some(esc) => race::check(session, &mut rs, esc),
            None => (Vec::new(), 0, 0),
        };
        let s = stats
            .get_mut(&CheckerKind::Race)
            .expect("requested checker");
        s.sites = sites;
        s.queries = queries;
        findings.extend(race_findings);
    }

    findings.sort_by(|a, b| {
        (a.loc.func, a.loc.stmt, a.checker, &a.var, &a.object)
            .cmp(&(b.loc.func, b.loc.stmt, b.checker, &b.var, &b.object))
    });
    for f in &findings {
        if let Some(s) = stats.get_mut(&f.checker) {
            s.findings += 1;
        }
    }
    let stats: Vec<CheckerStats> = CheckerKind::ALL
        .iter()
        .filter_map(|k| stats.get(k).copied())
        .collect();
    session.record_phase(
        Phase::Checkers,
        t0.elapsed().saturating_sub(rs.resolving),
        0,
    );
    // Flush every clean per-partition engine built by the batch's queries
    // into the persistent store (no-op without one), so the next run over
    // the same program warm-starts.
    rs.az.publish_store();
    CheckReport {
        findings,
        stats,
        cache: session.fsci_cache_stats(),
        interner: session.interner_stats(),
        phases: session.phase_stats(),
        solver: session.solver_stats(),
        degrade: rs.summary(),
        store: session.store_counters(),
    }
}

/// A human-readable label for a program location: `func:line` when source
/// lines are known, `func@stmt` otherwise.
pub fn site_label(program: &Program, loc: Loc) -> String {
    let func = program.func(loc.func).name();
    match program.line_of(loc) {
        Some(line) => format!("{func}:{line}"),
        None => format!("{func}@{}", loc.stmt),
    }
}
