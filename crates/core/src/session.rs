//! The bootstrapping session: cascade configuration and setup (§2).
//!
//! A [`Session`] runs the cascaded clustering over a program:
//!
//! 1. Steensgaard's analysis partitions the pointers (disjoint cover);
//! 2. partitions larger than the *Andersen threshold* (the paper found 60
//!    empirically) are re-analyzed — restricted to their relevant
//!    statements — with Andersen's analysis, breaking them into smaller
//!    clusters;
//! 3. queries and benchmarks then run per cluster through an
//!    [`crate::analyzer::Analyzer`].
//!
//! The session itself is immutable and `Sync`; per-thread analyzers carry
//! the caches.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bootstrap_analyses::{andersen, steensgaard, SteensgaardResult};
use bootstrap_ir::{CallGraph, FuncId, Loc, Program, VarId};
use bootstrap_store::{StoreConfig, StoreCounters};
use parking_lot::RwLock;

use crate::analyzer::Analyzer;
use crate::budget::{AnalysisBudget, Outcome};
use crate::constraint::Cond;
use crate::cover::{AliasCover, Cluster, ClusterOrigin};
use crate::degrade::{
    classify_panic, DegradeReason, FaultPhase, FaultPlan, LadderAnswer, Precision,
};
use crate::engine::EngineCx;
use crate::fsci_cache::{FsciCacheStats, SharedFsciCache};
use crate::intern::{Interner, InternerStats};
use crate::persist::{ClusterStore, Digests};
use crate::profile::{Phase, PhaseProfile, PhaseSnapshot};
use crate::relevant::{relevant_statements_indexed, RelevantIndex, RelevantSet};
use crate::summary::Source;

/// Session configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Partitions larger than this are refined by Andersen's analysis
    /// (the paper's empirical value: 60).
    pub andersen_threshold: usize,
    /// Maximum number of atoms per constraint conjunction before widening.
    pub cond_cap: usize,
    /// Treat two pointers both holding the entry value of the same
    /// variable as aliased. On by default: this is Theorem 5's notion of a
    /// common update-sequence origin, and it is what open programs
    /// (library entry points, uninitialized globals set elsewhere) need.
    pub alias_on_entry_garbage: bool,
    /// Treat two NULL pointers as aliased (off by default: NULL points to
    /// no object).
    pub alias_on_null: bool,
    /// Step budget for each oracle-initiated FSCI computation; exceeding
    /// it degrades to the Steensgaard fallback instead of failing.
    pub oracle_step_budget: u64,
    /// Step budget for each user query.
    pub query_step_budget: u64,
    /// Track branch literals along walks and weed out syntactically
    /// infeasible paths (the paper's path-sensitivity extension, §3).
    /// Off by default, matching the paper's path-insensitive core.
    pub path_sensitive: bool,
    /// Deterministic fault injection (`None` in production): the plan is
    /// armed onto the budget of its target phase, where it panics or
    /// exhausts the budget at the chosen tick. Used by the fuzz harness
    /// and CI to prove degradation stays sound and isolated.
    pub fault_plan: Option<FaultPlan>,
    /// Id capacity of the session's shared interning arena (`u32::MAX` in
    /// production). Tests shrink it to exercise the arena-full degradation
    /// and the drivers' doubled-capacity retry.
    pub interner_max_ids: u32,
    /// Optional persistent artifact store: cluster analyses consult it
    /// before solving and publish their results after, so repeat runs on
    /// unchanged code warm-start (`None` disables persistence).
    pub store: Option<StoreConfig>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            andersen_threshold: 60,
            cond_cap: 8,
            alias_on_entry_garbage: true,
            alias_on_null: false,
            oracle_step_budget: 200_000,
            query_step_budget: 5_000_000,
            path_sensitive: false,
            fault_plan: None,
            interner_max_ids: u32::MAX,
            store: None,
        }
    }
}

impl Config {
    /// A fresh budget for one user query, with any query-phase fault
    /// armed.
    pub fn query_budget(&self) -> AnalysisBudget {
        let mut b = AnalysisBudget::steps(self.query_step_budget);
        if let Some(plan) = self.fault_plan {
            if plan.applies_to(FaultPhase::Query, None) {
                b.arm_fault(plan.kind, plan.at_tick);
            }
        }
        b
    }

    /// A fresh budget for one oracle-initiated FSCI computation, with any
    /// oracle-phase fault armed.
    pub fn oracle_budget(&self) -> AnalysisBudget {
        let mut b = AnalysisBudget::steps(self.oracle_step_budget);
        if let Some(plan) = self.fault_plan {
            if plan.applies_to(FaultPhase::Oracle, None) {
                b.arm_fault(plan.kind, plan.at_tick);
            }
        }
        b
    }

    /// A fresh budget for one cluster's summary fixpoint, with any
    /// summaries-phase fault targeting this cluster slot armed.
    pub fn cluster_budget(&self, steps: u64, cluster_id: usize) -> AnalysisBudget {
        let mut b = AnalysisBudget::steps(steps);
        if let Some(plan) = self.fault_plan {
            if plan.applies_to(FaultPhase::Summaries, Some(cluster_id)) {
                b.arm_fault(plan.kind, plan.at_tick);
            }
        }
        b
    }
}

/// Per-request limits threaded into the tier-1 query budget on top of the
/// configured step budget: an absolute wall-clock deadline and a
/// cooperative cancellation flag (set when e.g. the requesting client
/// disconnects). Hitting either degrades the query down the precision
/// ladder — tiers 2 and 3 are cheap enough to always run — so a limited
/// query still always answers, just possibly coarsely.
#[derive(Clone, Default)]
pub struct QueryLimits {
    /// Absolute deadline; tightens (never loosens) the budget's clock.
    pub deadline: Option<Instant>,
    /// Cooperative cancel flag, checked at deadline-check cadence.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl QueryLimits {
    /// No limits beyond the configured step budget.
    pub fn none() -> Self {
        Self::default()
    }

    /// Threads the limits into `budget`.
    pub fn apply(&self, budget: &mut AnalysisBudget) {
        if let Some(d) = self.deadline {
            budget.tighten_deadline(d);
        }
        if let Some(flag) = &self.cancel {
            budget.set_cancel_flag(Arc::clone(flag));
        }
    }

    /// `true` once the cancel flag has been raised.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

/// Wall-clock cost of the cascade stages (Table 1 columns 4–5).
#[derive(Clone, Copy, Debug, Default)]
pub struct CascadeTimings {
    /// Time for Steensgaard's analysis + partitioning.
    pub steensgaard: Duration,
    /// Time for the bootstrapped Andersen refinement of oversized
    /// partitions.
    pub clustering: Duration,
}

/// The full-precision answer set recorded for one `(pointer, location)`
/// query: the value sources and the path condition each holds under.
pub(crate) type QuerySources = Vec<(Source, Cond)>;
/// One recorded query keyed by its `(pointer, location)` pair.
pub(crate) type QueryRecord = ((VarId, Loc), QuerySources);

/// An immutable analysis session over one program.
pub struct Session<'p> {
    program: &'p Program,
    config: Config,
    steens: SteensgaardResult,
    cg: CallGraph,
    index: RelevantIndex,
    cover: AliasCover,
    pointers: Vec<VarId>,
    callers_of: HashMap<FuncId, Vec<Loc>>,
    alias_partitions: HashMap<bootstrap_analyses::ClassId, Vec<VarId>>,
    timings: CascadeTimings,
    /// Clean FSCI results, shared by every analyzer of this session (the
    /// session stays logically immutable: the cache is a memo table over a
    /// deterministic function of the program).
    fsci_cache: SharedFsciCache,
    /// The hash-consing arena every engine of this session interns into —
    /// shared across LPT workers like the FSCI cache, so conditions and
    /// memoized conjunctions computed by one cluster are reused by all.
    interner: Arc<Interner>,
    /// Per-phase wall/step counters (see [`Session::phase_stats`]).
    profile: PhaseProfile,
    /// Lazily computed tier-2 fallbacks: per alias partition, an Andersen
    /// points-to result over the partition's relevant slice. Shared across
    /// analyzers like the FSCI cache (memo of a deterministic function).
    andersen_tiers: RwLock<HashMap<bootstrap_analyses::ClassId, Arc<AndersenTier>>>,
    /// Aggregated Andersen solver work counters: the cover-build runs at
    /// construction plus every lazily built tier-2 slice solve since.
    solver_stats: RwLock<andersen::SolverStats>,
    /// The persistent artifact store, when [`Config::store`] is set.
    /// Dropping the session flushes its lifetime counters to disk.
    store: Option<ClusterStore>,
    /// Full-precision FSCS answers installed from a store hit:
    /// [`Session::query_at_loc`] returns these without walking.
    warm_queries: RwLock<HashMap<(VarId, Loc), Arc<QuerySources>>>,
    /// Cold full-precision answers recorded for the next publish.
    pending_queries: RwLock<HashMap<(VarId, Loc), QuerySources>>,
    /// The program's content digests, computed on first use: store
    /// consults and publishes and partition snapshots need them, a check
    /// without a store does not.
    digests: OnceLock<Digests>,
}

/// Cached tier-2 artifacts for one alias partition: the slice Andersen
/// result plus the slice's variable set `V_P` (FSCS walks never leave the
/// slice, so `V_P` bounds their `EntryVar` terminals).
struct AndersenTier {
    result: andersen::AndersenResult,
    slice_vars: Vec<VarId>,
}

impl<'p> Session<'p> {
    /// Runs the cascade over `program`.
    ///
    /// Programs with indirect calls should be devirtualized first
    /// ([`bootstrap_analyses::steensgaard::resolve_and_devirtualize`]);
    /// remaining indirect calls are treated as no-ops by the engine.
    pub fn new(program: &'p Program, config: Config) -> Self {
        let t0 = Instant::now();
        let steens = steensgaard::analyze(program);
        let steensgaard_time = t0.elapsed();

        let cg = CallGraph::build(program);
        let index = RelevantIndex::build(program, &steens);
        let pointers: Vec<VarId> = program
            .var_ids()
            .filter(|v| program.var(*v).is_pointer())
            .collect();
        let mut callers_of: HashMap<FuncId, Vec<Loc>> = HashMap::new();
        for func in program.functions() {
            for (loc, target) in cg.call_sites_in(func.id()) {
                callers_of.entry(*target).or_default().push(*loc);
            }
        }

        let t1 = Instant::now();
        let alias_partitions: HashMap<bootstrap_analyses::ClassId, Vec<VarId>> =
            steens.alias_partitions(program).into_iter().collect();
        let (cover, cover_solver_stats) =
            build_cover(program, &steens, &index, &config, &alias_partitions);
        let clustering_time = t1.elapsed();

        let interner = Arc::new(Interner::with_max_ids(
            config.cond_cap,
            config.interner_max_ids,
        ));
        let profile = PhaseProfile::new();
        profile.record(Phase::Steensgaard, steensgaard_time, 0);
        profile.record(Phase::Andersen, clustering_time, 0);
        let store = config
            .store
            .clone()
            .and_then(|sc| ClusterStore::open(sc, &config));
        Self {
            program,
            config,
            steens,
            cg,
            index,
            cover,
            pointers,
            callers_of,
            alias_partitions,
            timings: CascadeTimings {
                steensgaard: steensgaard_time,
                clustering: clustering_time,
            },
            fsci_cache: SharedFsciCache::new(),
            interner,
            profile,
            andersen_tiers: RwLock::new(HashMap::new()),
            solver_stats: RwLock::new(cover_solver_stats),
            store,
            warm_queries: RwLock::new(HashMap::new()),
            pending_queries: RwLock::new(HashMap::new()),
            digests: OnceLock::new(),
        }
    }

    /// The program under analysis.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The Steensgaard result (partitions + hierarchy).
    pub fn steens(&self) -> &SteensgaardResult {
        &self.steens
    }

    /// The call graph.
    pub fn callgraph(&self) -> &CallGraph {
        &self.cg
    }

    /// The bootstrapped cover the session was configured to build.
    pub fn cover(&self) -> &AliasCover {
        &self.cover
    }

    /// All pointer-typed variables (the paper's "# pointers").
    pub fn pointers(&self) -> &[VarId] {
        &self.pointers
    }

    /// Wall-clock cost of the cascade stages.
    pub fn timings(&self) -> CascadeTimings {
        self.timings
    }

    /// Call sites that invoke `f`.
    pub fn callers_of(&self, f: FuncId) -> &[Loc] {
        self.callers_of.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A fresh caching query context (one per thread). All analyzers of a
    /// session consult the session's shared FSCI cache before computing.
    pub fn analyzer(&self) -> Analyzer<'_> {
        Analyzer::new(self)
    }

    /// A fresh analyzer whose engines intern into `arena` instead of the
    /// session's shared interner. Cluster drivers use this to retry an
    /// arena-full cluster with a doubled-capacity private arena without
    /// disturbing sibling workers that keep the shared one.
    pub fn analyzer_with_arena(&self, arena: Arc<Interner>) -> Analyzer<'_> {
        Analyzer::with_arena(self, arena)
    }

    /// The value sources of `p` just before `loc`, down a precision
    /// ladder that always answers.
    ///
    /// This is the per-statement query surface client checkers batch their
    /// site queries through. Tier 1 is the flow- and context-sensitive
    /// walk (a fresh query budget, Algorithm 3 at an arbitrary program
    /// point, sources filtered to constraint-satisfiable tuples). If it
    /// runs out of budget, overflows the arena, or panics, the query falls
    /// to tier 2 — flow-insensitive Andersen points-to over the alias
    /// partition's relevant slice — and, should even that fail, to tier 3,
    /// the raw Steensgaard pointee partition. Each coarser tier is a sound
    /// over-approximation of the tiers above it, so the answer is always a
    /// superset of the true source set; [`LadderAnswer::precision`] tags
    /// which tier answered and [`LadderAnswer::reason`] why precision was
    /// lost. Pass the same `az` for all queries of one batch so the
    /// per-thread memo and the shared FSCI cache are reused across sites.
    pub fn query_at_loc(&self, az: &Analyzer<'_>, p: VarId, loc: Loc) -> LadderAnswer {
        self.query_at_loc_limited(az, p, loc, &QueryLimits::none())
    }

    /// [`Session::query_at_loc`] with per-request [`QueryLimits`] (a wall
    /// deadline and/or a cancellation flag) threaded into the tier-1
    /// budget. The analysis daemon uses this so one slow request degrades
    /// to a coarser tier instead of wedging a worker, and a disconnected
    /// client's in-flight work is abandoned at the next budget checkpoint.
    pub fn query_at_loc_limited(
        &self,
        az: &Analyzer<'_>,
        p: VarId,
        loc: Loc,
        limits: &QueryLimits,
    ) -> LadderAnswer {
        let reason = if let Some(class) = az.poison_class() {
            // A previous query panicked mid-walk on this analyzer: its
            // engine and memo state are suspect, so FSCS answers from it
            // can no longer be trusted. Degrade until it is replaced.
            DegradeReason::Panicked { class }
        } else if limits.cancelled() {
            DegradeReason::Cancelled
        } else {
            let mut budget = self.config.query_budget();
            limits.apply(&mut budget);
            let t0 = Instant::now();
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                // Warm path: a store hit for this pointer's partition may
                // have installed the recorded answer (near-zero steps).
                if let Some(warm) = az.warm_sources(p, loc) {
                    return Outcome::Done(warm);
                }
                az.sources(p, loc, &mut budget).map(|s| {
                    let s = az.satisfiable_sources(s);
                    self.record_query(p, loc, &s);
                    s
                })
            }));
            self.profile
                .record(Phase::Fscs, t0.elapsed(), budget.steps_used());
            match attempt {
                Ok(Outcome::Done(sources)) => return LadderAnswer::fscs(sources),
                Ok(Outcome::Degraded(r)) => r,
                Err(payload) => {
                    let class = classify_panic(payload.as_ref());
                    az.poison(class);
                    DegradeReason::Panicked { class }
                }
            }
        };
        // Tier 2. The Andersen fallback is plain fixpoint arithmetic and
        // should never panic, but the whole point of the ladder is to not
        // have to trust that: catch and fall through to tier 3, which is
        // pure table lookups over results computed at session build time.
        let t0 = Instant::now();
        let tier2 = catch_unwind(AssertUnwindSafe(|| self.andersen_sources(p)));
        self.profile.record(Phase::Andersen, t0.elapsed(), 0);
        if let Ok(sources) = tier2 {
            return LadderAnswer {
                sources,
                precision: Precision::Andersen,
                reason: Some(reason),
            };
        }
        LadderAnswer {
            sources: self.steensgaard_sources(p),
            precision: Precision::Steensgaard,
            reason: Some(reason),
        }
    }

    /// The variable set a degraded tier answers over: the alias partition
    /// of `p` (every pointer that could share update sequences with it),
    /// falling back to `p`'s value class, then to `p` alone.
    fn tier_members(&self, p: VarId) -> Vec<VarId> {
        let members = self.engine_members(self.steens.partition_key(p));
        if members.is_empty() {
            vec![p]
        } else {
            members.to_vec()
        }
    }

    /// Tier-2 sources: flow-insensitive Andersen points-to over the alias
    /// partition's relevant slice, unioned across the partition.
    ///
    /// Soundness (superset of any tier-1 answer): every `Addr` terminal of
    /// an FSCS walk comes from a relevant address-taking statement whose
    /// destination is in `p`'s alias partition, and Andersen over the same
    /// slice records exactly those assignments (plus flow-insensitive
    /// propagation); `Null` is included unconditionally, and `EntryVar` is
    /// included for every variable of the slice `V_P` — a walk never
    /// leaves its relevant slice, so any entry value it can bottom out in
    /// (including values *stored into* a queried heap object, which sit
    /// outside the alias partition) belongs to a slice variable.
    fn andersen_sources(&self, p: VarId) -> Vec<(Source, Cond)> {
        let key = self.steens.partition_key(p);
        let members = self.tier_members(p);
        let tier = self.andersen_tier(key, &members);
        let mut addrs: Vec<VarId> = members
            .iter()
            .flat_map(|&m| tier.result.points_to_vars(m))
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        let mut sources: Vec<(Source, Cond)> = addrs
            .into_iter()
            .map(|o| (Source::Addr(o), Cond::top()))
            .collect();
        sources.push((Source::Null, Cond::top()));
        sources.extend(members.iter().map(|&m| (Source::EntryVar(m), Cond::top())));
        sources.extend(
            tier.slice_vars
                .iter()
                .map(|&v| (Source::EntryVar(v), Cond::top())),
        );
        sources.sort();
        sources.dedup();
        sources
    }

    /// Tier-3 sources: the Steensgaard pointee partition of `p` (the
    /// coarsest sound tier — pure lookups into session-build results).
    /// With no slice at hand, `EntryVar` coverage widens to every program
    /// variable.
    fn steensgaard_sources(&self, p: VarId) -> Vec<(Source, Cond)> {
        let mut sources: Vec<(Source, Cond)> = self
            .steens
            .points_to_vars(p)
            .iter()
            .map(|&o| (Source::Addr(o), Cond::top()))
            .collect();
        sources.push((Source::Null, Cond::top()));
        sources.extend(
            self.program
                .var_ids()
                .map(|v| (Source::EntryVar(v), Cond::top())),
        );
        sources.sort();
        sources.dedup();
        sources
    }

    /// The cached tier-2 Andersen result for one alias partition.
    fn andersen_tier(
        &self,
        key: bootstrap_analyses::ClassId,
        members: &[VarId],
    ) -> Arc<AndersenTier> {
        if let Some(r) = self.andersen_tiers.read().get(&key) {
            return Arc::clone(r);
        }
        let t0 = Instant::now();
        let (rel, result, solver_stats) =
            andersen_on_slice(self.program, &self.steens, &self.index, members);
        let an = Arc::new(AndersenTier {
            result,
            slice_vars: rel.vars().collect(),
        });
        self.solver_stats.write().absorb(&solver_stats);
        self.profile.record(Phase::Andersen, t0.elapsed(), 0);
        Arc::clone(self.andersen_tiers.write().entry(key).or_insert(an))
    }

    /// The session-wide FSCI cache (clean top-level results only).
    pub(crate) fn fsci_cache(&self) -> &SharedFsciCache {
        &self.fsci_cache
    }

    /// The persistent cluster store, when configured.
    pub(crate) fn cluster_store(&self) -> Option<&ClusterStore> {
        self.store.as_ref()
    }

    /// Whole-program content hash — the persistent store's cross-run
    /// validity gate: the function digests in function order. Stable
    /// across sessions over programs that differ only in source lines.
    pub fn program_content_hash(&self) -> u64 {
        self.digests().program
    }

    /// The program's per-function content digests (DESIGN.md §12).
    pub(crate) fn digests(&self) -> &Digests {
        self.digests.get_or_init(|| Digests::new(self.program))
    }

    /// Arms cross-epoch store adoption: persisted entries recorded under
    /// `prev_program_hash` are accepted for clusters whose members all
    /// lie in `clean` alias partitions (as proven by
    /// [`crate::incremental::diff_and_adopt`]), instead of being
    /// invalidated by the whole-program-hash gate. Returns `false` (and
    /// does nothing) when no store is configured.
    pub fn adopt_previous_epoch(
        &self,
        prev_program_hash: u64,
        clean: HashSet<bootstrap_analyses::ClassId>,
    ) -> bool {
        match &self.store {
            Some(s) => {
                s.adopt(crate::persist::Adoption {
                    prev_program_hash,
                    clean,
                });
                true
            }
            None => false,
        }
    }

    /// This run's store hit/miss/invalidated counters (all zero when no
    /// store is configured).
    pub fn store_counters(&self) -> StoreCounters {
        self.store
            .as_ref()
            .map(|s| s.counters())
            .unwrap_or_default()
    }

    /// The store-installed full-precision answer for `(p, loc)`, if any.
    pub(crate) fn warm_query(&self, p: VarId, loc: Loc) -> Option<Vec<(Source, Cond)>> {
        self.warm_queries
            .read()
            .get(&(p, loc))
            .map(|s| s.as_ref().clone())
    }

    /// Installs a store-loaded full-precision answer (consult path).
    pub(crate) fn install_warm_query(&self, p: VarId, loc: Loc, sources: Vec<(Source, Cond)>) {
        self.warm_queries
            .write()
            .insert((p, loc), Arc::new(sources));
    }

    /// Records a cold full-precision answer for the next publish. A no-op
    /// without a store — the map would only grow unread.
    pub(crate) fn record_query(&self, p: VarId, loc: Loc, sources: &[(Source, Cond)]) {
        if self.store.is_none() {
            return;
        }
        self.pending_queries
            .write()
            .insert((p, loc), sources.to_vec());
    }

    /// A sorted snapshot of the recorded cold answers (publish path).
    pub(crate) fn pending_queries_snapshot(&self) -> Vec<QueryRecord> {
        let mut v: Vec<_> = self
            .pending_queries
            .read()
            .iter()
            .map(|(k, s)| (*k, s.clone()))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Hit/miss/entry counters of the shared FSCI points-to cache.
    pub fn fsci_cache_stats(&self) -> FsciCacheStats {
        self.fsci_cache.stats()
    }

    /// The session-wide hash-consing arena.
    pub(crate) fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// The session-wide phase profile (engines record into it).
    pub(crate) fn profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Entry/hit/miss counters of the shared condition interner; hits are
    /// structural clones and conjunction recomputations avoided.
    pub fn interner_stats(&self) -> InternerStats {
        self.interner.stats()
    }

    /// Aggregated Andersen solver work counters: worklist pops (productive
    /// and stale), copy edges, cycles collapsed offline/online, wave
    /// rounds, and edges pruned — summed over the cover-build solves and
    /// every tier-2 slice solve run so far.
    pub fn solver_stats(&self) -> andersen::SolverStats {
        *self.solver_stats.read()
    }

    /// Accumulated per-phase wall time, steps, and invocation counts for
    /// the cascade (Steensgaard, Andersen refinement, relevant slicing,
    /// FSCS summarization) and the checker batches run over it. Phase
    /// costs grow as analyzers run; the Steensgaard and Andersen rows are
    /// recorded once at construction.
    pub fn phase_stats(&self) -> PhaseSnapshot {
        self.profile.snapshot()
    }

    /// Adds one work unit's wall time and steps to `phase` (the checker
    /// batch records its [`Phase::Checkers`] row through this).
    pub fn record_phase(&self, phase: Phase, wall: Duration, steps: u64) {
        self.profile.record(phase, wall, steps);
    }

    pub(crate) fn engine_cx(&self) -> EngineCx<'_> {
        EngineCx {
            program: self.program,
            steens: &self.steens,
            cg: &self.cg,
            index: &self.index,
        }
    }

    /// The prebuilt Algorithm 1 index.
    pub fn relevant_index(&self) -> &RelevantIndex {
        &self.index
    }

    /// The members of the Steensgaard alias partition with the given key
    /// (see [`SteensgaardResult::partition_key`]).
    pub fn partition_members(&self, key: bootstrap_analyses::ClassId) -> &[VarId] {
        self.alias_partitions
            .get(&key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The members the engine of partition `key` answers over: the alias
    /// partition's pointers, or, for a class without pointers (a
    /// non-pointer or synthetic location), the raw Steensgaard class.
    pub(crate) fn engine_members(&self, key: bootstrap_analyses::ClassId) -> &[VarId] {
        match self.partition_members(key) {
            [] => self.steens.members(key),
            members => members,
        }
    }

    /// The pure Steensgaard cover: one cluster per alias partition
    /// (Table 1 columns 7–9 run FSCS on this cover).
    pub fn steensgaard_cover(&self) -> AliasCover {
        let mut keys: Vec<_> = self.alias_partitions.keys().copied().collect();
        keys.sort();
        let clusters = keys
            .into_iter()
            .map(|key| {
                Cluster::new(
                    0,
                    ClusterOrigin::Steensgaard(key),
                    self.alias_partitions[&key].clone(),
                )
            })
            .collect();
        AliasCover::new(clusters)
    }

    /// The degenerate whole-program cover (Table 1 column 6's baseline).
    pub fn whole_cover(&self) -> AliasCover {
        AliasCover::new(vec![Cluster::new(
            0,
            ClusterOrigin::WholeProgram,
            self.pointers.clone(),
        )])
    }
}

/// Andersen's analysis over the relevant slice (`St_P`) of `members`,
/// returned with the slice. The statements reach the solver in `Loc`
/// order: the slice is a hash set, and the solver's work counters (and
/// whether its adaptive gate engages cycle elimination) depend on the
/// order constraints arrive in.
fn andersen_on_slice(
    program: &Program,
    steens: &SteensgaardResult,
    index: &RelevantIndex,
    members: &[VarId],
) -> (RelevantSet, andersen::AndersenResult, andersen::SolverStats) {
    let rel = relevant_statements_indexed(program, steens, index, members);
    let mut locs: Vec<Loc> = rel.stmts().collect();
    locs.sort_unstable();
    let (result, stats) = andersen::analyze_stmts_with_stats(
        program.var_count(),
        locs.into_iter().map(|loc| program.stmt_at(loc)),
        andersen::SolverOptions::default(),
    );
    (rel, result, stats)
}

/// Builds the bootstrapped cover, plus the aggregated solver counters of
/// every Andersen refinement run along the way.
fn build_cover(
    program: &Program,
    steens: &SteensgaardResult,
    index: &RelevantIndex,
    config: &Config,
    alias_partitions: &HashMap<bootstrap_analyses::ClassId, Vec<VarId>>,
) -> (AliasCover, andersen::SolverStats) {
    let mut keys: Vec<_> = alias_partitions.keys().copied().collect();
    keys.sort();
    let mut clusters = Vec::new();
    let mut solver_stats = andersen::SolverStats::default();
    for class in keys {
        let members = &alias_partitions[&class];
        if members.len() <= config.andersen_threshold {
            clusters.push(Cluster::new(
                0,
                ClusterOrigin::Steensgaard(class),
                members.clone(),
            ));
            continue;
        }
        // Oversized: Andersen, bootstrapped — restricted to the
        // partition's relevant statements.
        let (_, an, run_stats) = andersen_on_slice(program, steens, index, members);
        solver_stats.absorb(&run_stats);
        for ac in an.clusters(members) {
            clusters.push(Cluster::new(
                0,
                ClusterOrigin::Andersen {
                    partition: class,
                    object: ac.object,
                },
                ac.members,
            ));
        }
    }
    (AliasCover::new(clusters), solver_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootstrap_ir::parse_program;

    #[test]
    fn small_partitions_stay_steensgaard() {
        let p = parse_program(
            "int a; int b; int *x; int *y;
             void main() { x = &a; y = &b; }",
        )
        .unwrap();
        let s = Session::new(&p, Config::default());
        assert!(s
            .cover()
            .clusters()
            .iter()
            .all(|c| matches!(c.origin, ClusterOrigin::Steensgaard(_))));
        assert!(s.cover().is_disjoint());
        assert!(s.cover().covers(s.pointers()));
    }

    #[test]
    fn oversized_partition_is_refined_by_andersen() {
        // One big partition: hub absorbs many pointers, each pointing to a
        // distinct object — Andersen splits them apart.
        let mut src = String::from("int *hub;\n");
        for i in 0..12 {
            src.push_str(&format!("int o{i}; int *p{i};\n"));
        }
        src.push_str("void main() {\n");
        for i in 0..12 {
            src.push_str(&format!("p{i} = &o{i};\nhub = p{i};\n"));
        }
        src.push_str("}\n");
        let p = parse_program(&src).unwrap();
        let config = Config {
            andersen_threshold: 4,
            ..Config::default()
        };
        let s = Session::new(&p, config);
        let andersen_clusters = s
            .cover()
            .clusters()
            .iter()
            .filter(|c| matches!(c.origin, ClusterOrigin::Andersen { .. }))
            .count();
        assert!(andersen_clusters > 1, "expected Andersen refinement");
        assert!(s.cover().covers(s.pointers()));
        // Andersen clusters are smaller than the original partition.
        assert!(s.cover().max_cluster_size() < s.steensgaard_cover().max_cluster_size());
    }

    #[test]
    fn whole_cover_is_single_cluster() {
        let p = parse_program("int a; int *x; void main() { x = &a; }").unwrap();
        let s = Session::new(&p, Config::default());
        let whole = s.whole_cover();
        assert_eq!(whole.len(), 1);
        assert_eq!(whole.clusters()[0].members.len(), s.pointers().len());
    }

    #[test]
    fn callers_map_lists_call_sites() {
        let p = parse_program("void g() { } void main() { g(); g(); }").unwrap();
        let s = Session::new(&p, Config::default());
        let g = p.func_named("g").unwrap();
        assert_eq!(s.callers_of(g).len(), 2);
        assert!(s.callers_of(p.func_named("main").unwrap()).is_empty());
    }

    #[test]
    fn timings_are_recorded() {
        let p = parse_program("int a; int *x; void main() { x = &a; }").unwrap();
        let s = Session::new(&p, Config::default());
        // Just ensure they are populated (non-panicking access).
        let _ = s.timings().steensgaard;
        let _ = s.timings().clustering;
    }
}
