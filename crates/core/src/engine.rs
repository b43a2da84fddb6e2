//! The interprocedural backward update-sequence engine (Algorithms 4 & 5).
//!
//! For one cluster, the engine answers: *what value may pointer `p` hold
//! just before location `l`?* It walks the control-flow graph backwards
//! from `l`, rewriting the tracked value through each statement exactly as
//! Algorithm 4 does, splicing callee summaries at call-return sites and
//! computing those summaries on demand with a dependency-driven fixpoint
//! that handles recursion (Algorithm 5's SCC processing).
//!
//! Two simplifications relative to the paper's presentation, both
//! behaviour-preserving:
//!
//! * Dereference values (`q` of the form `*s`) are expanded eagerly into
//!   the candidate pointees of `s` — the flow-sensitive points-to set when
//!   the [`PtsOracle`] has one (the dovetailing invariant of Algorithm 2:
//!   pointers higher in the Steensgaard hierarchy are resolved first), and
//!   otherwise the Steensgaard over-approximation with a points-to
//!   constraint recorded per candidate (Definition 8's cyclic case). After
//!   expansion the tracked value is always a plain variable.
//! * Summaries are memoized per `(function, target)` pair and recomputed
//!   when a consulted summary grows, rather than phased per strongly
//!   connected component; the fixpoint is the same.
//!
//! The hot loop is hash-consed: conditions and dead-variable sets live in
//! an [`Interner`] arena, so worklist items are `Copy` tuples of ids and
//! the processed set hashes integers. The pre-interning walk survives
//! verbatim behind [`EngineOptions::uninterned`] as a differential oracle
//! (mirroring the Andersen solver's `naive` flag) and as the baseline the
//! FSCS bench compares against.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use bootstrap_analyses::SteensgaardResult;
use bootstrap_ir::{CallGraph, CallTarget, FuncId, Loc, Program, Stmt, StmtIdx, VarId};
use bootstrap_store::FxBuildHasher;

use crate::budget::{AnalysisBudget, Outcome};
use crate::constraint::{Atom, Cond};
use crate::degrade::{DegradeReason, FaultPhase, FaultPlan};
use crate::intern::{ArenaFull, CondId, DeadId, DeadVars, Interner};
use crate::relevant::{
    modifying_functions, relevant_statements_indexed, RelevantIndex, RelevantSet,
};
use crate::summary::{SummaryKey, SummaryStore, SummaryTuple, Value};

/// Unwraps an arena operation inside a budgeted walk. A full arena
/// ([`crate::intern::ArenaFull`]) cannot be recovered from mid-walk —
/// dropping the item would under-approximate a may-analysis — so the
/// budget is marked exhausted with [`DegradeReason::ArenaFull`] and the
/// walk reports [`Outcome::Degraded`], the same sound discard a
/// step-budget expiry produces.
macro_rules! arena_try {
    ($budget:expr, $op:expr) => {
        match $op {
            Ok(v) => v,
            Err(_) => {
                $budget.exhaust(DegradeReason::ArenaFull);
                return $budget.degraded();
            }
        }
    };
}

/// Supplies flow-sensitive, context-insensitive points-to sets for pointers
/// resolved in earlier dovetail phases (higher in the Steensgaard
/// hierarchy). Returning `None` makes the engine fall back to the
/// Steensgaard over-approximation plus constraints — always sound.
pub trait PtsOracle {
    /// The FSCI may-points-to set of `v` just before `loc`, if known.
    fn fsci_pts(&self, v: VarId, loc: Loc) -> Option<Vec<VarId>>;
}

/// An oracle that knows nothing; the engine then relies purely on
/// Steensgaard candidates and constraints.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoOracle;

impl PtsOracle for NoOracle {
    fn fsci_pts(&self, _v: VarId, _loc: Loc) -> Option<Vec<VarId>> {
        None
    }
}

/// Shared immutable context for engine operations.
#[derive(Clone, Copy)]
pub struct EngineCx<'a> {
    /// The program under analysis.
    pub program: &'a Program,
    /// Steensgaard results (hierarchy + fallback candidates).
    pub steens: &'a SteensgaardResult,
    /// The call graph (for the modifying-functions closure).
    pub cg: &'a CallGraph,
    /// Prebuilt index for Algorithm 1.
    pub index: &'a RelevantIndex,
}

/// Construction options for a [`ClusterEngine`].
#[derive(Clone)]
pub struct EngineOptions {
    /// Maximum atoms per constraint conjunction before widening.
    pub cond_cap: usize,
    /// Track branch literals along walks (paper §3, "Path Sensitivity").
    pub path_sensitive: bool,
    /// Run the pre-interning walk (structural `Cond`/dead-set worklist
    /// items, no memo tables) — the differential oracle and bench baseline,
    /// mirroring `SolverOptions::naive` on the Andersen side.
    pub uninterned: bool,
    /// Share this arena (typically the session's) instead of creating a
    /// private one. Ignored — a private arena is used — if its widening cap
    /// differs from `cond_cap`.
    pub arena: Option<Arc<Interner>>,
    /// Deterministic fault injection: an unscoped
    /// [`FaultPhase::Summaries`] plan arms the summary-fixpoint budget
    /// (cluster-scoped plans are armed by the cluster drivers, which know
    /// their slot ids).
    pub fault: Option<FaultPlan>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            cond_cap: 8,
            path_sensitive: false,
            uninterned: false,
            arena: None,
            fault: None,
        }
    }
}

/// The per-cluster analysis engine.
///
/// # Examples
///
/// ```
/// use bootstrap_core::budget::AnalysisBudget;
/// use bootstrap_core::engine::{ClusterEngine, EngineCx, NoOracle};
///
/// let p = bootstrap_ir::parse_program(
///     "int a; int *x; void main() { x = &a; }",
/// )
/// .unwrap();
/// let st = bootstrap_analyses::steensgaard::analyze(&p);
/// let cg = bootstrap_ir::CallGraph::build(&p);
/// let index = bootstrap_core::relevant::RelevantIndex::build(&p, &st);
/// let cx = EngineCx { program: &p, steens: &st, cg: &cg, index: &index };
/// let x = p.var_named("x").unwrap();
/// let mut engine = ClusterEngine::new(cx, vec![x], 8);
/// let main = p.func(p.func_named("main").unwrap());
/// let sources = engine
///     .local_sources(cx, x, main.exit(), &NoOracle, &mut AnalysisBudget::unlimited())
///     .unwrap();
/// // x = &a on the only path: one source, the address of a.
/// assert_eq!(sources.len(), 1);
/// ```
pub struct ClusterEngine {
    members: Vec<VarId>,
    relevant: RelevantSet,
    modifying: HashSet<FuncId>,
    summaries: SummaryStore,
    /// Reverse dependencies: key -> summaries that consulted it.
    deps: HashMap<SummaryKey, HashSet<SummaryKey>>,
    cond_cap: usize,
    /// Track branch literals along walks (paper §3, "Path Sensitivity").
    path_sensitive: bool,
    /// Run the structural (pre-interning) walk instead of the id walk.
    uninterned: bool,
    /// Hash-consing arena for conditions and dead sets (shared with the
    /// session's other engines, or private).
    arena: Arc<Interner>,
    /// Unscoped summary-phase fault plan (see [`EngineOptions::fault`]).
    fault: Option<FaultPlan>,
    /// Per-function, per-statement *forced* branch literals: literals that
    /// every entry-to-statement path establishes (a forward must-dataflow;
    /// computed lazily in path-sensitive mode). Conjoined onto terminals,
    /// they carry the branch context *above* the point where a value is
    /// produced, while the walk itself collects the literals below it.
    reach_conds: HashMap<FuncId, Vec<Vec<Atom>>>,
    /// Walk steps performed (for instrumentation).
    steps: u64,
}

/// One backward-walk result before interprocedural resolution. Conditions
/// are interned ids in both walk modes (the uninterned oracle interns at
/// this boundary) so the fixpoint and the summary store are shared.
#[derive(Debug)]
struct WalkOut {
    results: Vec<(Value, CondId)>,
    missing: Vec<SummaryKey>,
    consulted: Vec<SummaryKey>,
}

impl ClusterEngine {
    /// Builds the engine for a cluster: runs Algorithm 1 for the relevant
    /// statements and closes the modifying-function set over the call
    /// graph.
    pub fn new(cx: EngineCx<'_>, members: Vec<VarId>, cond_cap: usize) -> Self {
        Self::with_engine_options(
            cx,
            members,
            EngineOptions {
                cond_cap,
                ..EngineOptions::default()
            },
        )
    }

    /// Builds the engine with full [`EngineOptions`] control (shared arena,
    /// the uninterned oracle walk).
    pub fn with_engine_options(
        cx: EngineCx<'_>,
        members: Vec<VarId>,
        options: EngineOptions,
    ) -> Self {
        let relevant = relevant_statements_indexed(cx.program, cx.steens, cx.index, &members);
        let modifying = modifying_functions(cx.program, cx.cg, &relevant);
        let arena = match &options.arena {
            Some(shared) if shared.cap() == options.cond_cap => Arc::clone(shared),
            _ => Arc::new(Interner::new(options.cond_cap)),
        };
        Self {
            members,
            relevant,
            modifying,
            summaries: SummaryStore::new(),
            deps: HashMap::new(),
            cond_cap: options.cond_cap,
            path_sensitive: options.path_sensitive,
            uninterned: options.uninterned,
            arena,
            fault: options.fault,
            reach_conds: HashMap::new(),
            steps: 0,
        }
    }

    /// The forced branch literals of every statement of `f` (path-sensitive
    /// mode): a forward must-analysis meeting literal sets over predecessor
    /// edges, with kills at definitions of the branch variable and at calls
    /// (for globals).
    fn reach_conds_for(&mut self, cx: EngineCx<'_>, f: FuncId) -> &Vec<Vec<Atom>> {
        if !self.reach_conds.contains_key(&f) {
            let func = cx.program.func(f);
            let n = func.body().len();
            let mut state: Vec<Option<std::collections::BTreeSet<Atom>>> = vec![None; n];
            state[0] = Some(std::collections::BTreeSet::new());
            let mut worklist = vec![0 as StmtIdx];
            while let Some(m) = worklist.pop() {
                let mut out = state[m as usize].clone().expect("visited");
                // Kills.
                match func.stmt(m) {
                    Stmt::Call(_) | Stmt::Spawn(_) => {
                        out.retain(|a| {
                            a.branch_var()
                                .map(|v| cx.program.var(v).kind().owner().is_some())
                                .unwrap_or(true)
                        });
                    }
                    stmt => {
                        if let Some(d) = stmt.direct_def() {
                            out.retain(|a| a.branch_var() != Some(d));
                        }
                    }
                }
                for &succ in func.succs(m) {
                    let mut contribution = out.clone();
                    if let Some(lit) = self.edge_literal(cx, func, m, succ) {
                        contribution.insert(lit);
                    }
                    let new = match &state[succ as usize] {
                        None => contribution,
                        Some(prev) => prev.intersection(&contribution).cloned().collect(),
                    };
                    if state[succ as usize].as_ref() != Some(&new) {
                        state[succ as usize] = Some(new);
                        worklist.push(succ);
                    }
                }
            }
            let table: Vec<Vec<Atom>> = state
                .into_iter()
                .map(|s| s.map(|set| set.into_iter().collect()).unwrap_or_default())
                .collect();
            self.reach_conds.insert(f, table);
        }
        &self.reach_conds[&f]
    }

    /// Conjoins the forced literals of statement `m` onto `cond`, skipping
    /// literals on variables the walk has already crossed a definition of
    /// (path-sensitive mode); `None` means the combination is infeasible.
    fn with_reach_cond(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        m: StmtIdx,
        cond: &Cond,
        dead: &DeadVars,
    ) -> Option<Cond> {
        if !self.path_sensitive {
            return Some(cond.clone());
        }
        let atoms = self.reach_conds_for(cx, f)[m as usize].clone();
        let mut out = cond.clone();
        for a in atoms {
            if let Some(v) = a.branch_var() {
                if dead.is_dead(v, cx.program) {
                    continue;
                }
            }
            out = out.and(a, self.cond_cap)?;
        }
        Some(out)
    }

    /// The interned counterpart of [`ClusterEngine::with_reach_cond`]:
    /// conjunctions go through the arena's memo tables. `Ok(None)` means
    /// the combination is infeasible; `Err` propagates a full arena.
    fn with_reach_cond_id(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        m: StmtIdx,
        cond: CondId,
        dead: &DeadVars,
    ) -> Result<Option<CondId>, ArenaFull> {
        if !self.path_sensitive {
            return Ok(Some(cond));
        }
        let atoms = self.reach_conds_for(cx, f)[m as usize].clone();
        let mut out = cond;
        for a in atoms {
            if let Some(v) = a.branch_var() {
                if dead.is_dead(v, cx.program) {
                    continue;
                }
            }
            match self.arena.and_atom(out, a)? {
                Some(c) => out = c,
                None => return Ok(None),
            }
        }
        Ok(Some(out))
    }

    /// The cluster members.
    pub fn members(&self) -> &[VarId] {
        &self.members
    }

    /// The relevant-statement slice (`V_P`, `St_P`).
    pub fn relevant(&self) -> &RelevantSet {
        &self.relevant
    }

    /// Functions whose execution may affect aliases of the cluster.
    pub fn modifying(&self) -> &HashSet<FuncId> {
        &self.modifying
    }

    /// The summaries computed so far.
    pub fn summaries(&self) -> &SummaryStore {
        &self.summaries
    }

    /// The hash-consing arena this engine interns into.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.arena
    }

    /// Engine steps performed so far (instrumentation).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// All computed summaries with conditions resolved to structural form,
    /// sorted — id-free, so snapshots from engines with different arenas
    /// (e.g. interned vs uninterned oracle) compare directly.
    pub fn summary_snapshot(&self) -> Vec<(SummaryKey, Vec<(Value, Cond)>)> {
        let mut entries: Vec<(SummaryKey, Vec<(Value, Cond)>)> = self
            .summaries
            .iter()
            .map(|(key, tuples)| {
                let mut resolved: Vec<(Value, Cond)> = tuples
                    .iter()
                    .map(|(v, c)| (*v, (*self.arena.resolve(*c)).clone()))
                    .collect();
                resolved.sort();
                (*key, resolved)
            })
            .collect();
        entries.sort_by_key(|(key, _)| *key);
        entries
    }

    /// Splices a summary entry loaded from the persistent store into this
    /// engine: each structural condition is re-interned into the engine's
    /// arena (the id-remap — `CondId`s are arena-relative, the structural
    /// form is position-independent) and the entry then short-circuits
    /// [`ClusterEngine::compute_all_summaries`], which skips keys already
    /// present. Only *final* fixpoint values may be installed; the store
    /// publishes exclusively from engines whose fixpoint completed clean.
    ///
    /// # Errors
    ///
    /// Propagates [`ArenaFull`]; the caller stops splicing and the engine
    /// computes the remaining summaries organically.
    pub(crate) fn install_summary(
        &mut self,
        key: SummaryKey,
        tuples: &[(Value, Cond)],
    ) -> Result<(), ArenaFull> {
        let mut interned = Vec::with_capacity(tuples.len());
        for (v, c) in tuples {
            interned.push((*v, self.arena.cond(c)?));
        }
        self.summaries.put(key, interned);
        Ok(())
    }

    /// The values `p` may hold just before `loc`, each with its constraint
    /// (Definition 8). `Value::Ptr(q)` results mean "the value `q` held at
    /// the entry of `loc`'s function" — the caller-splicing points used by
    /// the interprocedural drivers.
    pub fn local_sources(
        &mut self,
        cx: EngineCx<'_>,
        p: VarId,
        loc: Loc,
        oracle: &dyn PtsOracle,
        budget: &mut AnalysisBudget,
    ) -> Outcome<Vec<(Value, Cond)>> {
        if loc.stmt == 0 {
            return Outcome::Done(vec![(Value::Ptr(p), Cond::top())]);
        }
        loop {
            let out = match self.walk(cx, loc.func, loc.stmt, p, oracle, budget) {
                Outcome::Done(o) => o,
                Outcome::Degraded(r) => return Outcome::Degraded(r),
            };
            if out.missing.is_empty() {
                // Resolve ids at the public boundary and dedup structurally:
                // the output is identical whichever walk mode produced it
                // (and independent of arena id assignment order).
                let resolved: Vec<(Value, Cond)> = out
                    .results
                    .into_iter()
                    .map(|(v, c)| (v, (*self.arena.resolve(c)).clone()))
                    .collect();
                return Outcome::Done(dedup(resolved));
            }
            let missing = out.missing.clone();
            if let Outcome::Degraded(r) = self.compute_summaries(cx, missing, oracle, budget) {
                return Outcome::Degraded(r);
            }
        }
    }

    /// The exit summary tuples of `f` for `target`, computing them (and any
    /// callee summaries) on demand.
    pub fn exit_summary(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        target: VarId,
        oracle: &dyn PtsOracle,
        budget: &mut AnalysisBudget,
    ) -> Outcome<Vec<SummaryTuple>> {
        let key = (f, target);
        if !self.summaries.contains(&key) {
            if let Outcome::Degraded(r) = self.compute_summaries(cx, vec![key], oracle, budget) {
                return Outcome::Degraded(r);
            }
        }
        let mut resolved: Vec<(Value, Cond)> = self
            .summaries
            .get(&key)
            .unwrap_or(&[])
            .iter()
            .map(|(value, cond)| (*value, (*self.arena.resolve(*cond)).clone()))
            .collect();
        resolved.sort();
        let tuples = resolved
            .into_iter()
            .map(|(value, cond)| SummaryTuple {
                target,
                value,
                cond,
            })
            .collect();
        Outcome::Done(tuples)
    }

    /// Computes (to a fixpoint) the exit summaries for every function in
    /// `St_P` and every cluster member — the per-cluster work unit whose
    /// cost Table 1 reports.
    pub fn compute_all_summaries(
        &mut self,
        cx: EngineCx<'_>,
        oracle: &dyn PtsOracle,
        budget: &mut AnalysisBudget,
    ) -> Outcome<()> {
        if let Some(plan) = self.fault {
            if plan.applies_to(FaultPhase::Summaries, None) {
                budget.arm_fault(plan.kind, plan.at_tick);
            }
        }
        // Enumerate (function, member) pairs lazily: the unclustered
        // baseline runs this with *all* pointers as members, where
        // materializing the full key set upfront would dwarf memory long
        // before the budget expires.
        let mut funcs: Vec<FuncId> = self.relevant.funcs().collect();
        // The relevant-function set hashes nondeterministically; fix the
        // visit order so runs (and budget-bounded prefixes) are repeatable.
        funcs.sort_unstable();
        for f in funcs {
            for i in 0..self.members.len() {
                if !budget.tick() {
                    return budget.degraded();
                }
                let key = (f, self.members[i]);
                if self.summaries.contains(&key) {
                    continue;
                }
                if let Outcome::Degraded(r) = self.compute_summaries(cx, vec![key], oracle, budget)
                {
                    return Outcome::Degraded(r);
                }
            }
        }
        Outcome::Done(())
    }

    /// Dependency-driven summary fixpoint (Algorithm 5's recursion
    /// handling).
    fn compute_summaries(
        &mut self,
        cx: EngineCx<'_>,
        initial: Vec<SummaryKey>,
        oracle: &dyn PtsOracle,
        budget: &mut AnalysisBudget,
    ) -> Outcome<()> {
        let mut dirty: VecDeque<SummaryKey> = VecDeque::new();
        let mut queued: HashSet<SummaryKey> = HashSet::new();
        for key in initial {
            self.summaries.ensure(key);
            if queued.insert(key) {
                dirty.push_back(key);
            }
        }
        while let Some(key) = dirty.pop_front() {
            queued.remove(&key);
            let (f, target) = key;
            let exit = cx.program.func(f).exit().stmt;
            let out = match self.walk(cx, f, exit, target, oracle, budget) {
                Outcome::Done(o) => o,
                Outcome::Degraded(r) => return Outcome::Degraded(r),
            };
            for &k in &out.consulted {
                self.deps.entry(k).or_default().insert(key);
            }
            if out.missing.is_empty() {
                // Summaries are reused across call sites and frames, where
                // the callee's local path literals would be meaningless (or
                // worse, wrongly correlated across frames): strip them.
                let results = if self.path_sensitive {
                    let mut stripped = Vec::with_capacity(out.results.len());
                    for (v, c) in out.results {
                        stripped.push((v, arena_try!(budget, self.arena.drop_branch(c))));
                    }
                    stripped
                } else {
                    out.results
                };
                if self.summaries.put(key, self.dedup_ids(results)) {
                    if let Some(dependents) = self.deps.get(&key) {
                        // Requeue in sorted order: the dependent set hashes
                        // nondeterministically and the order decides which
                        // work a bounded budget reaches.
                        let mut dependents: Vec<SummaryKey> = dependents.iter().copied().collect();
                        dependents.sort_unstable();
                        for d in dependents {
                            if queued.insert(d) {
                                dirty.push_back(d);
                            }
                        }
                    }
                }
            } else {
                for k in out.missing {
                    self.summaries.ensure(k);
                    self.deps.entry(k).or_default().insert(key);
                    if queued.insert(k) {
                        dirty.push_back(k);
                    }
                }
                // Re-walk this key once the missing entries exist.
                if queued.insert(key) {
                    dirty.push_back(key);
                }
            }
        }
        Outcome::Done(())
    }

    /// One backward walk inside `f`, starting just before `before` and
    /// tracking `target` — dispatching on the configured walk mode.
    fn walk(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        before: StmtIdx,
        target: VarId,
        oracle: &dyn PtsOracle,
        budget: &mut AnalysisBudget,
    ) -> Outcome<WalkOut> {
        if self.uninterned {
            self.walk_uninterned(cx, f, before, target, oracle, budget)
        } else {
            self.walk_interned(cx, f, before, target, oracle, budget)
        }
    }

    /// The hash-consed walk: worklist items are `Copy` id tuples, the
    /// processed set hashes four integers, and every condition operation is
    /// a memoized arena call.
    fn walk_interned(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        before: StmtIdx,
        target: VarId,
        oracle: &dyn PtsOracle,
        budget: &mut AnalysisBudget,
    ) -> Outcome<WalkOut> {
        let func = cx.program.func(f);
        let mut out = WalkOut {
            results: Vec::new(),
            missing: Vec::new(),
            consulted: Vec::new(),
        };
        let mut queue: Vec<(StmtIdx, VarId, CondId, DeadId)> = Vec::new();
        let mut processed: HashSet<(StmtIdx, VarId, CondId, DeadId), FxBuildHasher> =
            HashSet::default();
        if before == 0 {
            out.results.push((Value::Ptr(target), CondId::TOP));
            return Outcome::Done(out);
        }
        for &m in func.preds(before) {
            queue.push((m, target, CondId::TOP, DeadId::EMPTY));
        }
        while let Some((m, x, cond, dead)) = queue.pop() {
            if !budget.tick() {
                return budget.degraded();
            }
            self.steps += 1;
            if !processed.insert((m, x, cond, dead)) {
                continue;
            }
            let loc = Loc::new(f, m);
            // Literals above a crossed definition of their variable refer
            // to the old value: extend the dead set with m's kills before
            // attaching anything from m or above. Dead sets only matter in
            // path-sensitive mode; resolve the (updated) set once per item.
            let (dead, dead_set) = if self.path_sensitive {
                let dead = match func.stmt(m) {
                    Stmt::Call(_) | Stmt::Spawn(_) => {
                        arena_try!(budget, self.arena.kill_globals(dead))
                    }
                    stmt => match stmt.direct_def() {
                        Some(d) => arena_try!(budget, self.arena.kill(dead, d)),
                        None => dead,
                    },
                };
                let resolved = self.arena.resolve_dead(dead);
                (dead, Some(resolved))
            } else {
                (dead, None)
            };
            // Rewrite the tracked value through the statement at m
            // (Algorithm 4), producing continuation and/or terminal steps.
            let mut continues: Vec<(VarId, CondId)> = Vec::new();
            match func.stmt(m) {
                Stmt::Copy { dst, src } => {
                    if *dst == x && self.relevant.contains_stmt(loc) {
                        continues.push((*src, cond));
                    } else {
                        continues.push((x, cond));
                    }
                }
                Stmt::AddrOf { dst, obj } => {
                    if *dst == x && self.relevant.contains_stmt(loc) {
                        let obj = *obj;
                        let reach = arena_try!(
                            budget,
                            self.reach_cond_of(cx, f, m, cond, dead_set.as_deref())
                        );
                        if let Some(c) = reach {
                            out.results.push((Value::Addr(obj), c));
                        }
                    } else {
                        continues.push((x, cond));
                    }
                }
                // A `free` nulls its operand, so for the backward value walk
                // it behaves exactly like an explicit NULL assignment.
                Stmt::Null { dst } | Stmt::Free { dst } => {
                    if *dst == x && self.relevant.contains_stmt(loc) {
                        let reach = arena_try!(
                            budget,
                            self.reach_cond_of(cx, f, m, cond, dead_set.as_deref())
                        );
                        if let Some(c) = reach {
                            out.results.push((Value::Null, c));
                        }
                    } else {
                        continues.push((x, cond));
                    }
                }
                Stmt::Load { dst, src } => {
                    if *dst == x && self.relevant.contains_stmt(loc) {
                        // Expand *src into candidate carriers.
                        for o in self.candidates(cx, *src, loc, oracle) {
                            let atom = Atom::PointsTo {
                                loc,
                                ptr: *src,
                                obj: o,
                            };
                            if let Some(c2) = arena_try!(budget, self.arena.and_atom(cond, atom)) {
                                continues.push((o, c2));
                            }
                        }
                    } else {
                        continues.push((x, cond));
                    }
                }
                Stmt::Store { dst, src } => {
                    if self.relevant.contains_stmt(loc)
                        && self.candidates(cx, *dst, loc, oracle).contains(&x)
                    {
                        let hit = Atom::PointsTo {
                            loc,
                            ptr: *dst,
                            obj: x,
                        };
                        if let Some(c2) = arena_try!(budget, self.arena.and_atom(cond, hit)) {
                            continues.push((*src, c2));
                        }
                        if let Some(c2) =
                            arena_try!(budget, self.arena.and_atom(cond, hit.negated()))
                        {
                            continues.push((x, c2));
                        }
                    } else {
                        continues.push((x, cond));
                    }
                }
                Stmt::Call(call) => match call.target {
                    CallTarget::Direct(g) if self.modifying.contains(&g) => {
                        let key = (g, x);
                        match self.summaries.get(&key) {
                            None => out.missing.push(key),
                            Some(tuples) => {
                                out.consulted.push(key);
                                let tuples: Vec<(Value, CondId)> = tuples.to_vec();
                                for (value, c2) in tuples {
                                    // Summaries grow during the recursion
                                    // fixpoint; charge the budget per tuple
                                    // so one worklist pop cannot do
                                    // unbounded work. A consumed summary
                                    // stands for arbitrary summarised work,
                                    // so this tick also checks the clock.
                                    if !budget.tick_checked() {
                                        return budget.degraded();
                                    }
                                    self.steps += 1;
                                    let Some(cc) =
                                        arena_try!(budget, self.arena.and_cond(cond, c2))
                                    else {
                                        continue;
                                    };
                                    match value {
                                        Value::Ptr(w) => continues.push((w, cc)),
                                        Value::Addr(o) => {
                                            let reach = arena_try!(
                                                budget,
                                                self.reach_cond_of(
                                                    cx,
                                                    f,
                                                    m,
                                                    cc,
                                                    dead_set.as_deref()
                                                )
                                            );
                                            if let Some(c) = reach {
                                                out.results.push((Value::Addr(o), c));
                                            }
                                        }
                                        Value::Null => {
                                            let reach = arena_try!(
                                                budget,
                                                self.reach_cond_of(
                                                    cx,
                                                    f,
                                                    m,
                                                    cc,
                                                    dead_set.as_deref()
                                                )
                                            );
                                            if let Some(c) = reach {
                                                out.results.push((Value::Null, c));
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    // Non-modifying or unresolved callees cannot affect the
                    // cluster: step over.
                    _ => continues.push((x, cond)),
                },
                // Spawn parameter binding is explicit Copy statements, and
                // lock/unlock never write pointers: the walk steps over them.
                Stmt::Spawn(_) | Stmt::Lock { .. } | Stmt::Unlock { .. } => {
                    continues.push((x, cond))
                }
                Stmt::Return | Stmt::Skip => continues.push((x, cond)),
            }
            for (x2, c2) in continues {
                if m == 0 {
                    out.results.push((Value::Ptr(x2), c2));
                } else {
                    for &m2 in func.preds(m) {
                        let c3 = if self.path_sensitive {
                            match self.edge_literal(cx, func, m2, m) {
                                // Skip stale literals (their variable was
                                // redefined below); conjoin live ones and
                                // prune contradictory paths.
                                Some(atom)
                                    if !dead_set
                                        .as_deref()
                                        .expect("path-sensitive dead set")
                                        .is_dead(
                                            atom.branch_var().expect("edge literal"),
                                            cx.program,
                                        ) =>
                                {
                                    match arena_try!(budget, self.arena.and_atom(c2, atom)) {
                                        Some(c) => c,
                                        None => continue,
                                    }
                                }
                                _ => c2,
                            }
                        } else {
                            c2
                        };
                        queue.push((m2, x2, c3, dead));
                    }
                }
            }
        }
        Outcome::Done(out)
    }

    /// [`ClusterEngine::with_reach_cond_id`] with an already-resolved dead
    /// set (`None` outside path-sensitive mode).
    fn reach_cond_of(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        m: StmtIdx,
        cond: CondId,
        dead_set: Option<&DeadVars>,
    ) -> Result<Option<CondId>, ArenaFull> {
        match dead_set {
            Some(dead) => self.with_reach_cond_id(cx, f, m, cond, dead),
            None => Ok(Some(cond)),
        }
    }

    /// The pre-interning walk, kept verbatim as the differential oracle:
    /// structural `Cond`/`DeadVars` worklist items, deep-cloned on every
    /// push and processed-set probe, no memo tables. Results are interned
    /// only at the boundary so everything downstream is shared.
    fn walk_uninterned(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        before: StmtIdx,
        target: VarId,
        oracle: &dyn PtsOracle,
        budget: &mut AnalysisBudget,
    ) -> Outcome<WalkOut> {
        let func = cx.program.func(f);
        let mut results: Vec<(Value, Cond)> = Vec::new();
        let mut out = WalkOut {
            results: Vec::new(),
            missing: Vec::new(),
            consulted: Vec::new(),
        };
        let mut queue: Vec<(StmtIdx, VarId, Cond, DeadVars)> = Vec::new();
        let mut processed: HashSet<(StmtIdx, VarId, Cond, DeadVars)> = HashSet::new();
        if before == 0 {
            out.results.push((Value::Ptr(target), CondId::TOP));
            return Outcome::Done(out);
        }
        for &m in func.preds(before) {
            queue.push((m, target, Cond::top(), DeadVars::default()));
        }
        while let Some((m, x, cond, dead)) = queue.pop() {
            if !budget.tick() {
                return budget.degraded();
            }
            self.steps += 1;
            if !processed.insert((m, x, cond.clone(), dead.clone())) {
                continue;
            }
            let loc = Loc::new(f, m);
            // Literals above a crossed definition of their variable refer
            // to the old value: extend the dead set with m's kills before
            // attaching anything from m or above.
            let dead = if self.path_sensitive {
                match func.stmt(m) {
                    Stmt::Call(_) | Stmt::Spawn(_) => dead.kill_globals(),
                    stmt => match stmt.direct_def() {
                        Some(d) => dead.kill(d),
                        None => dead,
                    },
                }
            } else {
                dead
            };
            // Rewrite the tracked value through the statement at m
            // (Algorithm 4), producing continuation and/or terminal steps.
            let mut continues: Vec<(VarId, Cond)> = Vec::new();
            match func.stmt(m) {
                Stmt::Copy { dst, src } => {
                    if *dst == x && self.relevant.contains_stmt(loc) {
                        continues.push((*src, cond.clone()));
                    } else {
                        continues.push((x, cond.clone()));
                    }
                }
                Stmt::AddrOf { dst, obj } => {
                    if *dst == x && self.relevant.contains_stmt(loc) {
                        if let Some(c) = self.with_reach_cond(cx, f, m, &cond, &dead) {
                            results.push((Value::Addr(*obj), c));
                        }
                    } else {
                        continues.push((x, cond.clone()));
                    }
                }
                // A `free` nulls its operand, so for the backward value walk
                // it behaves exactly like an explicit NULL assignment.
                Stmt::Null { dst } | Stmt::Free { dst } => {
                    if *dst == x && self.relevant.contains_stmt(loc) {
                        if let Some(c) = self.with_reach_cond(cx, f, m, &cond, &dead) {
                            results.push((Value::Null, c));
                        }
                    } else {
                        continues.push((x, cond.clone()));
                    }
                }
                Stmt::Load { dst, src } => {
                    if *dst == x && self.relevant.contains_stmt(loc) {
                        // Expand *src into candidate carriers.
                        for o in self.candidates(cx, *src, loc, oracle) {
                            let atom = Atom::PointsTo {
                                loc,
                                ptr: *src,
                                obj: o,
                            };
                            if let Some(c2) = cond.and(atom, self.cond_cap) {
                                continues.push((o, c2));
                            }
                        }
                    } else {
                        continues.push((x, cond.clone()));
                    }
                }
                Stmt::Store { dst, src } => {
                    if self.relevant.contains_stmt(loc)
                        && self.candidates(cx, *dst, loc, oracle).contains(&x)
                    {
                        let hit = Atom::PointsTo {
                            loc,
                            ptr: *dst,
                            obj: x,
                        };
                        if let Some(c2) = cond.and(hit, self.cond_cap) {
                            continues.push((*src, c2));
                        }
                        if let Some(c2) = cond.and(hit.negated(), self.cond_cap) {
                            continues.push((x, c2));
                        }
                    } else {
                        continues.push((x, cond.clone()));
                    }
                }
                Stmt::Call(call) => match call.target {
                    CallTarget::Direct(g) if self.modifying.contains(&g) => {
                        let key = (g, x);
                        match self.summaries.get(&key) {
                            None => out.missing.push(key),
                            Some(tuples) => {
                                out.consulted.push(key);
                                let tuples: Vec<(Value, Cond)> = tuples
                                    .iter()
                                    .map(|(v, c)| (*v, (*self.arena.resolve(*c)).clone()))
                                    .collect();
                                for (value, c2) in tuples {
                                    // Mirror the interned walk: one tick per
                                    // consumed summary tuple, so both modes
                                    // stay in step parity and bounded (and
                                    // the clock is checked, as interned).
                                    if !budget.tick_checked() {
                                        return budget.degraded();
                                    }
                                    self.steps += 1;
                                    let Some(cc) = cond.and_cond(&c2, self.cond_cap) else {
                                        continue;
                                    };
                                    match value {
                                        Value::Ptr(w) => continues.push((w, cc)),
                                        Value::Addr(o) => {
                                            if let Some(c) =
                                                self.with_reach_cond(cx, f, m, &cc, &dead)
                                            {
                                                results.push((Value::Addr(o), c));
                                            }
                                        }
                                        Value::Null => {
                                            if let Some(c) =
                                                self.with_reach_cond(cx, f, m, &cc, &dead)
                                            {
                                                results.push((Value::Null, c));
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    // Non-modifying or unresolved callees cannot affect the
                    // cluster: step over.
                    _ => continues.push((x, cond.clone())),
                },
                Stmt::Spawn(_) | Stmt::Lock { .. } | Stmt::Unlock { .. } => {
                    continues.push((x, cond.clone()))
                }
                Stmt::Return | Stmt::Skip => continues.push((x, cond.clone())),
            }
            for (x2, c2) in continues {
                if m == 0 {
                    results.push((Value::Ptr(x2), c2));
                } else {
                    for &m2 in func.preds(m) {
                        let c3 = if self.path_sensitive {
                            match self.edge_literal(cx, func, m2, m) {
                                // Skip stale literals (their variable was
                                // redefined below); conjoin live ones and
                                // prune contradictory paths.
                                Some(atom)
                                    if !dead.is_dead(
                                        atom.branch_var().expect("edge literal"),
                                        cx.program,
                                    ) =>
                                {
                                    match c2.and(atom, self.cond_cap) {
                                        Some(c) => c,
                                        None => continue,
                                    }
                                }
                                _ => c2.clone(),
                            }
                        } else {
                            c2.clone()
                        };
                        queue.push((m2, x2, c3, dead.clone()));
                    }
                }
            }
        }
        out.results = {
            let mut interned = Vec::with_capacity(results.len());
            for (v, c) in results {
                interned.push((v, arena_try!(budget, self.arena.cond(&c))));
            }
            interned
        };
        Outcome::Done(out)
    }

    /// The path literal implied by traversing the CFG edge `from -> to`,
    /// when `from` is a two-way branch testing a stable (function-local,
    /// address-not-taken) variable: successor 0 is the true arm.
    fn edge_literal(
        &self,
        cx: EngineCx<'_>,
        func: &bootstrap_ir::Function,
        from: StmtIdx,
        to: StmtIdx,
    ) -> Option<Atom> {
        let var = func.branch_cond(from)?;
        // Literals are tracked only for variables whose writes the walk is
        // guaranteed to cross: address-not-taken variables that are either
        // local to this function or global (globals are additionally
        // havocked at every call, since a callee may write them).
        let owner = cx.program.var(var).kind().owner();
        if cx.index.is_addr_taken(var) || !(owner.is_none() || owner == Some(func.id())) {
            return None;
        }
        let succs = func.succs(from);
        if succs.len() != 2 {
            return None;
        }
        if succs[0] == to {
            Some(Atom::BranchTrue { var })
        } else if succs[1] == to {
            Some(Atom::BranchFalse { var })
        } else {
            None
        }
    }

    /// The candidate pointees of `v` just before `loc`: the oracle's FSCI
    /// set when available (dovetailing), otherwise the members of the
    /// Steensgaard class below `v` (sound fallback; the cyclic case).
    fn candidates(
        &self,
        cx: EngineCx<'_>,
        v: VarId,
        loc: Loc,
        oracle: &dyn PtsOracle,
    ) -> Vec<VarId> {
        if let Some(pts) = oracle.fsci_pts(v, loc) {
            return pts;
        }
        match cx.steens.pointee(cx.steens.class_of(v)) {
            Some(c) => cx.steens.members(c).to_vec(),
            None => Vec::new(),
        }
    }

    /// Id-space dedup with unconditional-subsumption, mirroring [`dedup`]:
    /// interning is canonical, so sorting by id and dropping duplicates
    /// removes exactly the structural duplicates.
    fn dedup_ids(&self, mut results: Vec<(Value, CondId)>) -> Vec<(Value, CondId)> {
        results.sort();
        results.dedup();
        let unconditional: HashSet<Value> = results
            .iter()
            .filter(|(_, c)| self.arena.cond_is_top(*c))
            .map(|(v, _)| *v)
            .collect();
        results.retain(|(v, c)| self.arena.cond_is_top(*c) || !unconditional.contains(v));
        results
    }
}

fn dedup(mut results: Vec<(Value, Cond)>) -> Vec<(Value, Cond)> {
    results.sort();
    results.dedup();
    // If a value is reachable unconditionally, drop its conditional
    // duplicates (they are subsumed).
    let unconditional: HashSet<Value> = results
        .iter()
        .filter(|(_, c)| c.is_top())
        .map(|(v, _)| *v)
        .collect();
    results.retain(|(v, c)| c.is_top() || !unconditional.contains(v));
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootstrap_analyses::steensgaard;
    use bootstrap_ir::parse_program;

    struct Setup {
        program: Program,
        steens: SteensgaardResult,
        cg: CallGraph,
        index: RelevantIndex,
    }

    impl Setup {
        fn new(src: &str) -> Self {
            let program = parse_program(src).unwrap();
            let steens = steensgaard::analyze(&program);
            let cg = CallGraph::build(&program);
            let index = RelevantIndex::build(&program, &steens);
            Self {
                program,
                steens,
                cg,
                index,
            }
        }

        fn cx(&self) -> EngineCx<'_> {
            EngineCx {
                program: &self.program,
                steens: &self.steens,
                cg: &self.cg,
                index: &self.index,
            }
        }

        fn v(&self, n: &str) -> VarId {
            self.program.var_named(n).unwrap()
        }

        fn exit_of(&self, f: &str) -> Loc {
            self.program
                .func(self.program.func_named(f).unwrap())
                .exit()
        }
    }

    fn sources_of(setup: &Setup, members: &[&str], p: &str, loc: Loc) -> Vec<(Value, Cond)> {
        let members: Vec<VarId> = members.iter().map(|n| setup.v(n)).collect();
        let mut engine = ClusterEngine::new(setup.cx(), members, 8);
        engine
            .local_sources(
                setup.cx(),
                setup.v(p),
                loc,
                &NoOracle,
                &mut AnalysisBudget::unlimited(),
            )
            .unwrap()
    }

    #[test]
    fn straight_line_addr() {
        let s = Setup::new("int a; int *x; void main() { x = &a; }");
        let res = sources_of(&s, &["x"], "x", s.exit_of("main"));
        assert_eq!(res, vec![(Value::Addr(s.v("a")), Cond::top())]);
    }

    #[test]
    fn kill_is_respected_flow_sensitively() {
        // x = &a; x = &b: at exit only &b survives.
        let s = Setup::new("int a; int b; int *x; void main() { x = &a; x = &b; }");
        let res = sources_of(&s, &["x"], "x", s.exit_of("main"));
        assert_eq!(res, vec![(Value::Addr(s.v("b")), Cond::top())]);
    }

    #[test]
    fn branches_merge_both_values() {
        let s = Setup::new(
            "int a; int b; int *x; int c;
             void main() { if (c) { x = &a; } else { x = &b; } }",
        );
        let res = sources_of(&s, &["x"], "x", s.exit_of("main"));
        let values: Vec<Value> = res.iter().map(|(v, _)| *v).collect();
        assert!(values.contains(&Value::Addr(s.v("a"))));
        assert!(values.contains(&Value::Addr(s.v("b"))));
        assert_eq!(values.len(), 2);
    }

    #[test]
    fn unassigned_pointer_keeps_entry_value() {
        let s = Setup::new("int a; int *x; int *y; void main() { x = &a; }");
        let res = sources_of(&s, &["y"], "y", s.exit_of("main"));
        assert_eq!(res, vec![(Value::Ptr(s.v("y")), Cond::top())]);
    }

    #[test]
    fn null_kill() {
        let s = Setup::new("int a; int *x; void main() { x = &a; free(x); }");
        let res = sources_of(&s, &["x"], "x", s.exit_of("main"));
        assert_eq!(res, vec![(Value::Null, Cond::top())]);
    }

    #[test]
    fn copy_chain_resolves_to_origin() {
        let s = Setup::new(
            "int a; int *x; int *y; int *z;
             void main() { x = &a; y = x; z = y; }",
        );
        let res = sources_of(&s, &["x", "y", "z"], "z", s.exit_of("main"));
        assert_eq!(res, vec![(Value::Addr(s.v("a")), Cond::top())]);
    }

    #[test]
    fn loop_assignments_terminate_and_merge() {
        let s = Setup::new(
            "int a; int b; int *x; int c;
             void main() { x = &a; while (c) { x = &b; } }",
        );
        let res = sources_of(&s, &["x"], "x", s.exit_of("main"));
        let values: Vec<Value> = res.iter().map(|(v, _)| *v).collect();
        assert!(values.contains(&Value::Addr(s.v("a"))));
        assert!(values.contains(&Value::Addr(s.v("b"))));
    }

    #[test]
    fn figure4_store_forks_under_constraint() {
        // Paper Figure 4: 1a: b = c; 2a: x = &a; 3a: y = &b; 4a: *x = b.
        let s = Setup::new(
            "int *a; int *b; int *c; int **x; int **y;
             void main() { b = c; x = &a; y = &b; *x = b; }",
        );
        let res = sources_of(&s, &["a", "b", "c"], "a", s.exit_of("main"));
        // Through the store (x -> a): value comes from b, maximally
        // completed back to c's entry value; around the store: a's own
        // entry value.
        let values: Vec<&Value> = res.iter().map(|(v, _)| v).collect();
        assert!(
            values.contains(&&Value::Ptr(s.v("c"))),
            "maximal completion reaches c: {res:?}"
        );
        assert!(values.contains(&&Value::Ptr(s.v("a"))));
        // The through-store result must carry the x -> a constraint.
        let (_, cond) = res
            .iter()
            .find(|(v, _)| *v == Value::Ptr(s.v("c")))
            .unwrap();
        assert!(!cond.is_top());
        assert!(cond.to_string().contains("->"));
    }

    #[test]
    fn figure5_foo_summary_is_x_gets_w() {
        let s = Setup::new(
            "int **x; int **u; int **w; int **z;
             int *a; int *b; int *c; int *d;
             void foo() { *x = d; a = b; x = w; }
             void main() { x = &c; w = u; foo(); z = x; *z = b; }",
        );
        let members = vec![s.v("x"), s.v("u"), s.v("w"), s.v("z")];
        let mut engine = ClusterEngine::new(s.cx(), members, 8);
        let foo = s.program.func_named("foo").unwrap();
        let tuples = engine
            .exit_summary(
                s.cx(),
                foo,
                s.v("x"),
                &NoOracle,
                &mut AnalysisBudget::unlimited(),
            )
            .unwrap();
        // The paper's summary tuple (x, 3b, w, true).
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].value, Value::Ptr(s.v("w")));
        assert!(tuples[0].cond.is_top());
    }

    #[test]
    fn figure5_z_resolves_to_u_through_call() {
        let s = Setup::new(
            "int **x; int **u; int **w; int **z;
             int *a; int *b; int *c; int *d;
             void foo() { *x = d; a = b; x = w; }
             void main() { x = &c; w = u; foo(); z = x; *z = b; }",
        );
        let res = sources_of(&s, &["x", "u", "w", "z"], "z", s.exit_of("main"));
        // The paper's maximally complete update sequence
        // w = u, [x = w], z = x gives the tuple (z, 6a, u, true).
        assert_eq!(res, vec![(Value::Ptr(s.v("u")), Cond::top())]);
    }

    #[test]
    fn call_to_non_modifying_function_is_skipped() {
        let s = Setup::new(
            "int a; int *x; int *other;
             void bar() { other = other; }
             void main() { x = &a; bar(); }",
        );
        let res = sources_of(&s, &["x"], "x", s.exit_of("main"));
        assert_eq!(res, vec![(Value::Addr(s.v("a")), Cond::top())]);
    }

    #[test]
    fn callee_assignment_flows_through_summary() {
        let s = Setup::new(
            "int a; int *x;
             void set() { x = &a; }
             void main() { set(); }",
        );
        let res = sources_of(&s, &["x"], "x", s.exit_of("main"));
        assert_eq!(res, vec![(Value::Addr(s.v("a")), Cond::top())]);
    }

    #[test]
    fn conditional_callee_yields_identity_and_update() {
        let s = Setup::new(
            "int a; int *x; int c;
             void set() { if (c) { x = &a; } }
             void main() { set(); }",
        );
        let res = sources_of(&s, &["x"], "x", s.exit_of("main"));
        let values: Vec<Value> = res.iter().map(|(v, _)| *v).collect();
        assert!(values.contains(&Value::Addr(s.v("a"))));
        assert!(
            values.contains(&Value::Ptr(s.v("x"))),
            "identity path: {values:?}"
        );
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        let s = Setup::new(
            "int a; int b; int *x; int c;
             void rec() { if (c) { rec(); x = &a; } else { x = &b; } }
             void main() { rec(); }",
        );
        let res = sources_of(&s, &["x"], "x", s.exit_of("main"));
        let values: Vec<Value> = res.iter().map(|(v, _)| *v).collect();
        assert!(values.contains(&Value::Addr(s.v("a"))));
        assert!(values.contains(&Value::Addr(s.v("b"))));
    }

    #[test]
    fn recursive_call_kills_prior_assignment() {
        // x = &a before the recursive call is always overwritten by the
        // call's own assignments — the engine must not resurrect it.
        let s = Setup::new(
            "int a; int b; int *x; int c;
             void rec() { if (c) { x = &a; rec(); } else { x = &b; } }
             void main() { rec(); }",
        );
        let res = sources_of(&s, &["x"], "x", s.exit_of("main"));
        let values: Vec<Value> = res.iter().map(|(v, _)| *v).collect();
        assert!(values.contains(&Value::Addr(s.v("b"))));
        assert!(
            !values.contains(&Value::Addr(s.v("a"))),
            "&a is dead on every path: {values:?}"
        );
    }

    #[test]
    fn mutual_recursion_reaches_fixpoint() {
        let s = Setup::new(
            "int a; int b; int *x; int c;
             void even() { if (c) { x = &a; odd(); } }
             void odd() { if (c) { x = &b; even(); } }
             void main() { even(); }",
        );
        let res = sources_of(&s, &["x"], "x", s.exit_of("main"));
        let values: Vec<Value> = res.iter().map(|(v, _)| *v).collect();
        assert!(values.contains(&Value::Addr(s.v("a"))));
        assert!(values.contains(&Value::Addr(s.v("b"))));
        assert!(values.contains(&Value::Ptr(s.v("x"))));
    }

    #[test]
    fn budget_timeout_propagates() {
        let s = Setup::new(
            "int a; int *x; int c;
             void main() { while (c) { x = &a; x = x; } }",
        );
        let members = vec![s.v("x")];
        let mut engine = ClusterEngine::new(s.cx(), members, 8);
        let r = engine.local_sources(
            s.cx(),
            s.v("x"),
            s.exit_of("main"),
            &NoOracle,
            &mut AnalysisBudget::steps(2),
        );
        assert_eq!(r, Outcome::Degraded(DegradeReason::BudgetSteps));
    }

    #[test]
    fn store_through_unrelated_pointer_ignored() {
        // *z writes only y's class, never x's.
        let s = Setup::new(
            "int a; int b; int *x; int *y; int **z;
             void main() { x = &a; z = &y; *z = &b; }",
        );
        let res = sources_of(&s, &["x"], "x", s.exit_of("main"));
        assert_eq!(res, vec![(Value::Addr(s.v("a")), Cond::top())]);
    }

    #[test]
    fn load_expands_to_carrier_values() {
        let s = Setup::new(
            "int a; int *x; int *y; int **z;
             void main() { x = &a; z = &x; y = *z; }",
        );
        let res = sources_of(&s, &["x", "y"], "y", s.exit_of("main"));
        // y = *z with z -> x: y's value is x's value = &a, under z -> x.
        assert!(
            res.iter().any(|(v, _)| *v == Value::Addr(s.v("a"))),
            "{res:?}"
        );
    }

    /// Both walk modes over the same cluster must produce identical
    /// summary sets and identical local sources.
    fn assert_walks_agree(src: &str, members: &[&str], path_sensitive: bool) {
        let s = Setup::new(src);
        let members: Vec<VarId> = members.iter().map(|n| s.v(n)).collect();
        let mk = |uninterned: bool| {
            let mut e = ClusterEngine::with_engine_options(
                s.cx(),
                members.clone(),
                EngineOptions {
                    cond_cap: 8,
                    path_sensitive,
                    uninterned,
                    ..EngineOptions::default()
                },
            );
            e.compute_all_summaries(s.cx(), &NoOracle, &mut AnalysisBudget::unlimited())
                .unwrap();
            e
        };
        let interned = mk(false);
        let oracle = mk(true);
        assert_eq!(
            interned.summary_snapshot(),
            oracle.summary_snapshot(),
            "walk modes disagree (path_sensitive={path_sensitive})"
        );
    }

    #[test]
    fn interned_walk_matches_uninterned_oracle() {
        let src = "int *a; int *b; int *c; int **x; int **y;
             void main() { b = c; x = &a; y = &b; *x = b; }";
        assert_walks_agree(src, &["a", "b", "c"], false);
        let rec = "int a; int b; int *x; int c;
             void rec() { if (c) { x = &a; rec(); } else { x = &b; } }
             void main() { rec(); }";
        assert_walks_agree(rec, &["x"], false);
        assert_walks_agree(rec, &["x"], true);
        let calls = "int **x; int **u; int **w; int **z;
             int *a; int *b; int *c; int *d;
             void foo() { *x = d; a = b; x = w; }
             void main() { x = &c; w = u; foo(); z = x; *z = b; }";
        assert_walks_agree(calls, &["x", "u", "w", "z"], false);
        assert_walks_agree(calls, &["x", "u", "w", "z"], true);
    }

    #[test]
    fn shared_arena_is_adopted_and_mismatched_cap_rejected() {
        let s = Setup::new("int a; int *x; void main() { x = &a; }");
        let shared = Arc::new(Interner::new(8));
        let e = ClusterEngine::with_engine_options(
            s.cx(),
            vec![s.v("x")],
            EngineOptions {
                cond_cap: 8,
                arena: Some(Arc::clone(&shared)),
                ..EngineOptions::default()
            },
        );
        assert!(Arc::ptr_eq(e.interner(), &shared));
        // A cap mismatch falls back to a private arena (memo results would
        // otherwise widen at the wrong cap).
        let e2 = ClusterEngine::with_engine_options(
            s.cx(),
            vec![s.v("x")],
            EngineOptions {
                cond_cap: 4,
                arena: Some(Arc::clone(&shared)),
                ..EngineOptions::default()
            },
        );
        assert!(!Arc::ptr_eq(e2.interner(), &shared));
        assert_eq!(e2.interner().cap(), 4);
    }

    #[test]
    fn arena_capacity_exhaustion_degrades_instead_of_panicking() {
        let s = Setup::new(
            "int a; int *x; int *y; int **z;
             void main() { x = &a; z = &x; y = *z; }",
        );
        // Slot 0 (⊤) uses the only id: the first points-to constraint the
        // load expansion interns hits the cap.
        let tiny = Arc::new(Interner::with_max_ids(8, 1));
        let mut engine = ClusterEngine::with_engine_options(
            s.cx(),
            vec![s.v("x"), s.v("y")],
            EngineOptions {
                cond_cap: 8,
                arena: Some(tiny),
                ..EngineOptions::default()
            },
        );
        let mut budget = AnalysisBudget::unlimited();
        let r = engine.local_sources(s.cx(), s.v("y"), s.exit_of("main"), &NoOracle, &mut budget);
        assert_eq!(r, Outcome::Degraded(DegradeReason::ArenaFull));
        assert_eq!(
            budget.reason(),
            Some(DegradeReason::ArenaFull),
            "arena overflow exhausts the budget"
        );
    }

    #[test]
    fn engine_reports_interner_activity() {
        let s = Setup::new(
            "int a; int *x; int *y; int **z;
             void main() { x = &a; z = &x; y = *z; }",
        );
        let members = vec![s.v("x"), s.v("y")];
        let mut engine = ClusterEngine::new(s.cx(), members, 8);
        engine
            .compute_all_summaries(s.cx(), &NoOracle, &mut AnalysisBudget::unlimited())
            .unwrap();
        let stats = engine.interner().stats();
        assert!(stats.conds >= 1, "top is always interned: {stats:?}");
        assert!(
            stats.hits + stats.misses > 0,
            "loads intern constraints: {stats:?}"
        );
    }
}
