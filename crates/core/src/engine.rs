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
//! The walk is sparse and shares suffixes. A walk item — statement,
//! tracked variable, condition, dead set — jumps straight to the nearest
//! earlier statements that can change the tracked variable or the item's
//! state: relevant definitions of the variable, relevant stores, calls to
//! a modifying callee that may write it or cannot return, joins, branches
//! and statement 0 (and, path-sensitively, every call and every
//! definition of a branch variable). Everything in between rewrites the
//! value to itself. Summary walks — the ones that recur from a function's
//! exit for every member — memoize each item's outcome (its terminal
//! values and the summaries it consulted) per function, one outcome per
//! strongly connected component of the item graph, and every walk of
//! [`ClusterEngine::compute_all_summaries`], [`ClusterEngine::local_sources`]
//! and [`ClusterEngine::exit_summary`] reuses them. Together the two make
//! whole-cover summarization linear in the length of a copy chain
//! instead of quadratic.
//!
//! Conditions and dead-variable sets live in an [`Interner`] arena, so
//! items are `Copy` tuples of ids. The dense walk — every CFG
//! predecessor, no memo — survives behind [`EngineOptions::dense`] as a
//! differential oracle (mirroring the Andersen solver's `naive` flag) and
//! as the baseline the FSCS bench compares against.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use bootstrap_analyses::SteensgaardResult;
use bootstrap_ir::{CallGraph, CallTarget, FuncId, Function, Loc, Program, Stmt, StmtIdx, VarId};
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

/// Memoized item outcomes one engine may hold; the tables are cleared when
/// a walk would pass it. The unclustered baseline tracks every pointer of
/// the program, and a cache that only ever grows would keep memory the
/// dense walk freed after every walk.
const MEMO_CAP: usize = 1 << 18;

/// Supplies flow-sensitive, context-insensitive points-to sets for pointers
/// resolved in earlier dovetail phases (higher in the Steensgaard
/// hierarchy). Returning `None` makes the engine fall back to the
/// Steensgaard over-approximation plus constraints — always sound. An
/// answer must lie within that over-approximation: the members of the
/// Steensgaard class `v` points to.
pub trait PtsOracle {
    /// The FSCI may-points-to set of `v` just before `loc`, if known.
    fn fsci_pts(&self, v: VarId, loc: Loc) -> Option<Vec<VarId>>;

    /// Whether answers given now are final. An oracle whose answers can be
    /// weaker for a while (a dependency cycle cut mid-computation) returns
    /// `false` for that time; the engine then neither reuses nor records
    /// memoized walk outcomes, which would carry answers across that
    /// boundary.
    fn is_stable(&self) -> bool {
        true
    }
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
    /// Test hook: walk every CFG predecessor and memoize nothing — the
    /// differential oracle for the sparse walk and the FSCS bench's
    /// baseline, mirroring `SolverOptions::naive` on the Andersen side.
    pub dense: bool,
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
            dense: false,
            arena: None,
            fault: None,
        }
    }
}

/// A walk item: the statement the walk processes next, the variable whose
/// value (just after that statement) it tracks, the path condition and
/// the dead set.
type Item = (StmtIdx, VarId, CondId, DeadId);

/// Memoized item outcomes of one function.
type MemoTable = HashMap<Item, Arc<Memo>, FxBuildHasher>;

/// Item outcomes a memoizing walk closed, for the caller to memoize.
type Closed = Vec<(Item, Arc<Memo>)>;

/// Where on a function's chains a walk tracking one variable stops: its
/// definitions and the calls to callees that may write it, as `(chain,
/// position, statement)`, sorted.
type VarStops = Vec<(u32, u32, StmtIdx)>;

/// How a walk steps from an item to the items it visits next.
#[derive(Clone, Copy)]
enum Relation<'c> {
    /// Every CFG predecessor: the oracle walk.
    Dense,
    /// The nearest stops on the function's chains.
    Sparse(&'c Chains),
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
    /// How often each summary has changed; a memoized outcome records the
    /// versions it consulted and is stale once one moves.
    versions: HashMap<SummaryKey, u32, FxBuildHasher>,
    /// Track branch literals along walks (paper §3, "Path Sensitivity").
    path_sensitive: bool,
    /// Walk the dense relation without the memo (the test oracle).
    dense: bool,
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
    /// The sparse predecessor relation, built lazily per function.
    chains: HashMap<FuncId, Arc<Chains>>,
    /// Memoized item outcomes per function.
    memo: HashMap<FuncId, MemoTable>,
    /// Entries across the tables of `memo`.
    memo_len: usize,
    /// Per function and tracked variable, where on the function's chains
    /// a walk tracking it stops.
    var_stops: HashMap<(FuncId, VarId), VarStops, FxBuildHasher>,
    /// Per tracked variable, the sorted functions whose execution may
    /// write it: the callers-closure of the functions holding a relevant
    /// definition of it or a relevant store into its class.
    writers: HashMap<VarId, Arc<[FuncId]>, FxBuildHasher>,
    /// Per function, it and its transitive callers, sorted.
    callers: HashMap<FuncId, Arc<[FuncId]>, FxBuildHasher>,
    /// Per modifying function, whether some path from its entry reaches
    /// its exit (`false` also while the answer is being computed, which
    /// only makes walks stop at more calls).
    returns: HashMap<FuncId, bool, FxBuildHasher>,
    /// Walk steps performed (for instrumentation).
    steps: u64,
}

/// One backward-walk result before interprocedural resolution.
#[derive(Debug, Default)]
struct WalkOut {
    results: Vec<(Value, CondId)>,
    missing: Vec<SummaryKey>,
    consulted: Vec<SummaryKey>,
}

/// The memoized outcome of a walk item: the terminal values reachable
/// from it, and the summaries (at the version seen) they were spliced
/// from. Both sorted and deduplicated.
#[derive(Debug, Default)]
struct Memo {
    results: Vec<(Value, CondId)>,
    consulted: Vec<(SummaryKey, u32)>,
}

/// An outcome under construction: a finished outcome shared as is while
/// it is the only contribution (a chain of items that only pass a value
/// along shares one allocation), else a growing union.
#[derive(Default)]
struct Acc {
    shared: Option<Arc<Memo>>,
    own: Memo,
}

impl Acc {
    fn merge(&mut self, other: &Arc<Memo>) {
        if self.own.results.is_empty() && self.own.consulted.is_empty() {
            match &self.shared {
                None => {
                    self.shared = Some(Arc::clone(other));
                    return;
                }
                Some(s) if Arc::ptr_eq(s, other) => return,
                Some(_) => {}
            }
        }
        if let Some(s) = self.shared.take() {
            self.absorb(&s);
        }
        self.absorb(other);
    }

    /// Adds another partial outcome of the same component.
    fn join(&mut self, other: &Acc) {
        if let Some(s) = &other.shared {
            self.merge(s);
        }
        if !other.own.results.is_empty() || !other.own.consulted.is_empty() {
            if let Some(s) = self.shared.take() {
                self.absorb(&s);
            }
            self.absorb(&other.own);
        }
    }

    fn absorb(&mut self, other: &Memo) {
        self.own.results.extend_from_slice(&other.results);
        self.own.consulted.extend_from_slice(&other.consulted);
    }

    fn finish(self) -> Arc<Memo> {
        let Acc { shared, mut own } = self;
        if own.results.is_empty() && own.consulted.is_empty() {
            return shared.unwrap_or_default();
        }
        if let Some(s) = shared {
            own.results.extend_from_slice(&s.results);
            own.consulted.extend_from_slice(&s.consulted);
        }
        own.results.sort_unstable();
        own.results.dedup();
        own.consulted.sort_unstable();
        own.consulted.dedup();
        Arc::new(own)
    }
}

/// The sparse predecessor relation of one function for one engine (its
/// relevant slice and path mode). Statements that every walk stops at —
/// statement 0, joins, branches, relevant stores, dead ends, calls to a
/// modifying function that cannot return and (path-sensitively) all calls
/// and definitions of branch variables — cut the rest of the CFG into
/// chains: runs of single-predecessor statements. Inside a chain a walk
/// stops only at a definition of the tracked variable or at a call that
/// may write it, and positions along the chain order those.
struct Chains {
    /// Per statement: its chain and position along it (0 = the first
    /// statement after the chain's head), or `None` for a statement every
    /// walk stops at.
    at: Vec<Option<(u32, u32)>>,
    /// Per chain: the stop just before its first statement, and that
    /// first statement.
    heads: Vec<(StmtIdx, StmtIdx)>,
    /// Direct calls to modifying functions on chains as `(callee,
    /// statement)`, sorted (path-insensitive mode only: path-sensitively
    /// every call is a stop).
    calls: Vec<(FuncId, StmtIdx)>,
    /// The function's branch variables whose literals walks track,
    /// sorted (path-sensitive mode): dead sets record only these, because
    /// only they are ever asked about.
    literal_vars: Vec<VarId>,
    /// Whether one of `literal_vars` is a global (a call kills those).
    global_literal: bool,
}

impl Chains {
    /// Lays out the chains of `func`; `blocked` lists its modifying
    /// callees that cannot return.
    fn build(
        cx: EngineCx<'_>,
        func: &Function,
        relevant: &RelevantSet,
        modifying: &HashSet<FuncId>,
        path_sensitive: bool,
        blocked: &[FuncId],
    ) -> Chains {
        let n = func.body().len();
        let mut literal_vars: Vec<VarId> = Vec::new();
        if path_sensitive {
            literal_vars = (0..n as StmtIdx)
                .filter_map(|b| literal_var(cx, func, b))
                .collect();
            literal_vars.sort_unstable();
            literal_vars.dedup();
        }
        let global_literal = literal_vars
            .iter()
            .any(|&v| cx.program.var(v).kind().owner().is_none());
        let mut stop: Vec<bool> = (0..n as StmtIdx)
            .map(|m| {
                m == 0
                    || func.preds(m).len() != 1
                    || func.succs(m).len() > 1
                    || match func.stmt(m) {
                        Stmt::Store { .. } => relevant.contains_stmt(Loc::new(func.id(), m)),
                        Stmt::Call(_) | Stmt::Spawn(_) if path_sensitive => true,
                        Stmt::Call(call) => {
                            matches!(call.target, CallTarget::Direct(g) if blocked.contains(&g))
                        }
                        stmt => stmt
                            .direct_def()
                            .is_some_and(|d| literal_vars.binary_search(&d).is_ok()),
                    }
            })
            .collect();
        let mut chains = Chains {
            at: vec![None; n],
            heads: Vec::new(),
            calls: Vec::new(),
            literal_vars,
            global_literal,
        };
        for head in 0..n as StmtIdx {
            if stop[head as usize] {
                chains.start(func, modifying, &stop, head);
            }
        }
        // A cycle of single-predecessor statements that no stop leads into
        // (unreachable code) is left over: cut it open at one statement.
        for head in 0..n as StmtIdx {
            if !stop[head as usize] && chains.at[head as usize].is_none() {
                stop[head as usize] = true;
                chains.start(func, modifying, &stop, head);
            }
        }
        chains.calls.sort_unstable();
        chains
    }

    /// Lays out the chains that begin after the stop `head`, indexing the
    /// calls to modifying functions on them.
    fn start(
        &mut self,
        func: &Function,
        modifying: &HashSet<FuncId>,
        stop: &[bool],
        head: StmtIdx,
    ) {
        for &first in func.succs(head) {
            if stop[first as usize] || self.at[first as usize].is_some() {
                continue;
            }
            let chain = self.heads.len() as u32;
            self.heads.push((head, first));
            let (mut m, mut pos) = (first, 0u32);
            loop {
                self.at[m as usize] = Some((chain, pos));
                if let Stmt::Call(call) = func.stmt(m) {
                    if let CallTarget::Direct(g) = call.target {
                        if modifying.contains(&g) {
                            self.calls.push((g, m));
                        }
                    }
                }
                match func.succs(m) {
                    [next] if !stop[*next as usize] && self.at[*next as usize].is_none() => {
                        m = *next;
                        pos += 1;
                    }
                    _ => break,
                }
            }
        }
    }
}

/// The variable whose literals the edges out of `from` carry: `from` is a
/// two-way branch testing a stable variable. Literals are tracked only for
/// variables whose writes the walk is guaranteed to cross:
/// address-not-taken variables that are either local to this function or
/// global (globals are additionally havocked at every call, since a callee
/// may write them).
fn literal_var(cx: EngineCx<'_>, func: &Function, from: StmtIdx) -> Option<VarId> {
    let var = func.branch_cond(from)?;
    let owner = cx.program.var(var).kind().owner();
    if cx.index.is_addr_taken(var) || !(owner.is_none() || owner == Some(func.id())) {
        return None;
    }
    (func.succs(from).len() == 2).then_some(var)
}

/// The path literal implied by traversing the CFG edge `from -> to`, when
/// `from` is a two-way branch testing a stable variable: successor 0 is
/// the true arm.
fn edge_literal(cx: EngineCx<'_>, func: &Function, from: StmtIdx, to: StmtIdx) -> Option<Atom> {
    let var = literal_var(cx, func, from)?;
    let succs = func.succs(from);
    if succs[0] == to {
        Some(Atom::BranchTrue { var })
    } else if succs[1] == to {
        Some(Atom::BranchFalse { var })
    } else {
        None
    }
}

/// One open item of the sparse walk's Tarjan traversal. Its successors
/// are `pending[next..end]`, above the successors of the frames below it.
struct Frame {
    index: u32,
    low: u32,
    base: usize,
    next: usize,
    end: usize,
    /// Its slot on the stack of open items, which holds its outcome so far.
    slot: usize,
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
    /// the dense oracle walk).
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
            versions: HashMap::default(),
            path_sensitive: options.path_sensitive,
            dense: options.dense,
            arena,
            fault: options.fault,
            reach_conds: HashMap::new(),
            chains: HashMap::new(),
            memo: HashMap::new(),
            memo_len: 0,
            var_stops: HashMap::default(),
            writers: HashMap::default(),
            callers: HashMap::default(),
            returns: HashMap::default(),
            steps: 0,
        }
    }

    /// The forced branch literals of every statement of `f` (path-sensitive
    /// mode): a forward must-analysis meeting literal sets over predecessor
    /// edges, with kills at definitions of the branch variable and at calls
    /// (for globals).
    fn reach_conds_for(&mut self, cx: EngineCx<'_>, f: FuncId) -> &Vec<Vec<Atom>> {
        self.reach_conds.entry(f).or_insert_with(|| {
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
                    if let Some(lit) = edge_literal(cx, func, m, succ) {
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
            state
                .into_iter()
                .map(|s| s.map(|set| set.into_iter().collect()).unwrap_or_default())
                .collect()
        })
    }

    /// Conjoins the forced literals of statement `m` onto `cond`, skipping
    /// literals on variables the walk has already crossed a definition of;
    /// `dead` is `None` outside path-sensitive mode, where nothing is
    /// conjoined. `Ok(None)` means the combination is infeasible; `Err`
    /// propagates a full arena.
    fn reach_cond(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        m: StmtIdx,
        cond: CondId,
        dead: Option<&DeadVars>,
    ) -> Result<Option<CondId>, ArenaFull> {
        let Some(dead) = dead else {
            return Ok(Some(cond));
        };
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

    /// Engine steps performed so far (instrumentation): items visited plus
    /// summary tuples spliced.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// All computed summaries with conditions resolved to structural form,
    /// sorted — id-free, so snapshots from engines with different arenas
    /// (e.g. the sparse walk and the dense oracle) compare directly.
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

    /// The summary keys on which this engine and `other` — two walks over
    /// one cluster, such as the sparse walk and the dense oracle —
    /// disagree: a key every complete run computes (a function of `St_P`
    /// with a member) that one of them lacks, or a key both hold with
    /// different tuples. A key only one of them demanded along the way is
    /// not compared: the sparse walk steps over calls whose summary it
    /// can predict and never asks for it.
    pub fn summary_disagreements(&self, other: &ClusterEngine) -> Vec<SummaryKey> {
        let (mine, theirs) = (self.summary_snapshot(), other.summary_snapshot());
        let theirs: HashMap<SummaryKey, &Vec<(Value, Cond)>> =
            theirs.iter().map(|(k, t)| (*k, t)).collect();
        let mut keys: Vec<SummaryKey> = mine
            .iter()
            .filter(|(k, t)| theirs.get(k).is_some_and(|o| *o != t))
            .map(|(k, _)| *k)
            .collect();
        for f in self.relevant.funcs() {
            for &m in &self.members {
                if self.summaries.contains(&(f, m)) != other.summaries.contains(&(f, m)) {
                    keys.push((f, m));
                }
            }
        }
        keys.sort_unstable();
        keys
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
        self.put_summary(key, interned);
        Ok(())
    }

    /// Stores `tuples` as the summary of `key`; returns `true` if it
    /// changed, which makes every memoized outcome that consulted it stale.
    fn put_summary(&mut self, key: SummaryKey, tuples: Vec<(Value, CondId)>) -> bool {
        let changed = self.summaries.put(key, tuples);
        if changed {
            *self.versions.entry(key).or_default() += 1;
        }
        changed
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
            let out = match self.walk(cx, loc.func, loc.stmt, p, oracle, budget, false) {
                Outcome::Done(o) => o,
                Outcome::Degraded(r) => return Outcome::Degraded(r),
            };
            if out.missing.is_empty() {
                // Resolve ids at the public boundary and dedup structurally:
                // the output is identical whichever walk produced it (and
                // independent of arena id assignment order).
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
            let out = match self.walk(cx, f, exit, target, oracle, budget, true) {
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
                let results = self.dedup_ids(results);
                if self.put_summary(key, results) {
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
    /// tracking `target`. A walk that `memoize`s records the outcomes of
    /// the items it visits for later walks in `f` (summary walks, which
    /// recur from the same exit for every member); any other walk only
    /// reads them.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        before: StmtIdx,
        target: VarId,
        oracle: &dyn PtsOracle,
        budget: &mut AnalysisBudget,
        memoize: bool,
    ) -> Outcome<WalkOut> {
        let mut out = WalkOut::default();
        if before == 0 {
            out.results.push((Value::Ptr(target), CondId::TOP));
            return Outcome::Done(out);
        }
        let chains = (!self.dense).then(|| self.chains_of(cx, f));
        let rel = match &chains {
            None => Relation::Dense,
            Some(chains) => Relation::Sparse(chains),
        };
        let mut roots = Vec::new();
        for &m in cx.program.func(f).preds(before) {
            let root = arena_try!(
                budget,
                self.land(cx, f, rel, m, target, CondId::TOP, DeadId::EMPTY)
            );
            roots.extend(root);
        }
        let share = !self.dense && oracle.is_stable();
        let mut table = match share {
            true => self.memo.remove(&f).unwrap_or_default(),
            false => HashMap::default(),
        };
        self.memo_len -= table.len();
        let walked = if memoize && share {
            self.tarjan(cx, f, rel, roots, oracle, budget, out, &mut table)
        } else {
            let table = share.then_some(&mut table);
            self.dfs(cx, f, rel, roots, oracle, budget, out, table)
                .map(|out| (out, Vec::new()))
        };
        if share {
            if let Outcome::Done((out, closed)) = &walked {
                if out.missing.is_empty() && !closed.is_empty() {
                    if self.memo_len + table.len() + closed.len() > MEMO_CAP {
                        self.memo.clear();
                        self.memo_len = 0;
                        table.clear();
                    }
                    table.extend(closed.iter().map(|(item, memo)| (*item, Arc::clone(memo))));
                }
            }
            self.memo_len += table.len();
            self.memo.insert(f, table);
        }
        walked.map(|(out, _)| out)
    }

    /// A depth-first search over the items reachable under `rel`,
    /// deduplicated per walk; an item memoized in `table` contributes its
    /// outcome instead of being expanded. Under the dense relation and
    /// with no table this is the oracle walk.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        rel: Relation<'_>,
        mut queue: Vec<Item>,
        oracle: &dyn PtsOracle,
        budget: &mut AnalysisBudget,
        mut out: WalkOut,
        mut table: Option<&mut MemoTable>,
    ) -> Outcome<WalkOut> {
        let mut processed: HashSet<Item, FxBuildHasher> = HashSet::default();
        while let Some(item) = queue.pop() {
            if !budget.tick() {
                return budget.degraded();
            }
            self.steps += 1;
            if !processed.insert(item) {
                continue;
            }
            if let Some(memo) = table.as_deref_mut().and_then(|t| self.memo_hit(t, item)) {
                out.results.extend_from_slice(&memo.results);
                out.consulted.extend(memo.consulted.iter().map(|&(k, _)| k));
                continue;
            }
            if let Outcome::Degraded(r) =
                self.expand(cx, f, rel, item, oracle, budget, &mut out, &mut queue)
            {
                return Outcome::Degraded(r);
            }
        }
        Outcome::Done(out)
    }

    /// The memoizing walk: Tarjan's algorithm over the items reachable
    /// under `rel`, closing each strongly connected component with one
    /// shared outcome. Items memoized in `table` are not expanded again.
    /// Returns the walk's output and the outcomes it closed, which the
    /// caller memoizes if no summary was missing.
    #[allow(clippy::too_many_arguments)]
    fn tarjan(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        rel: Relation<'_>,
        roots: Vec<Item>,
        oracle: &dyn PtsOracle,
        budget: &mut AnalysisBudget,
        mut out: WalkOut,
        table: &mut MemoTable,
    ) -> Outcome<(WalkOut, Closed)> {
        // Per reached item its Tarjan index; per index the component
        // outcome once closed.
        let mut seen: HashMap<Item, u32, FxBuildHasher> = HashMap::default();
        let mut outcomes: Vec<Option<Arc<Memo>>> = Vec::new();
        let mut frames: Vec<Frame> = Vec::new();
        let mut pending: Vec<Item> = Vec::new();
        let mut open: Vec<(Item, u32, Acc)> = Vec::new();
        let mut closed: Closed = Vec::new();
        let mut total = Acc::default();
        let mut roots = roots.into_iter();
        let mut scratch = WalkOut::default();
        loop {
            let item = match frames.last_mut() {
                Some(top) if top.next < top.end => {
                    top.next += 1;
                    pending[top.next - 1]
                }
                Some(_) => {
                    // The top frame is finished: close its component if it
                    // is the root, else hand its low link to its parent.
                    let done = frames.pop().expect("top frame");
                    pending.truncate(done.base);
                    if done.low < done.index {
                        let parent = frames.last_mut().expect("a non-root frame has a parent");
                        parent.low = parent.low.min(done.low);
                        continue;
                    }
                    // The component is the root and the open items above it.
                    let mut acc = std::mem::take(&mut open[done.slot].2);
                    for (_, _, member) in &open[done.slot + 1..] {
                        acc.join(member);
                    }
                    let outcome = acc.finish();
                    for (item, index, _) in open.drain(done.slot..) {
                        outcomes[index as usize] = Some(Arc::clone(&outcome));
                        closed.push((item, Arc::clone(&outcome)));
                    }
                    match frames.last() {
                        Some(parent) => open[parent.slot].2.merge(&outcome),
                        None => total.merge(&outcome),
                    }
                    continue;
                }
                None => match roots.next() {
                    Some(root) => root,
                    None => break,
                },
            };
            if !budget.tick() {
                return budget.degraded();
            }
            self.steps += 1;
            let next_index = outcomes.len() as u32;
            let finished = match seen.entry(item) {
                Entry::Occupied(e) => match &outcomes[*e.get() as usize] {
                    Some(outcome) => Arc::clone(outcome),
                    None => {
                        let top = frames.last_mut().expect("open items have a frame above");
                        top.low = top.low.min(*e.get());
                        continue;
                    }
                },
                Entry::Vacant(e) => {
                    e.insert(next_index);
                    let hit = self.memo_hit(table, item);
                    outcomes.push(hit.clone());
                    match hit {
                        Some(outcome) => outcome,
                        None => {
                            let base = pending.len();
                            if let Outcome::Degraded(r) = self.expand(
                                cx,
                                f,
                                rel,
                                item,
                                oracle,
                                budget,
                                &mut scratch,
                                &mut pending,
                            ) {
                                return Outcome::Degraded(r);
                            }
                            out.missing.append(&mut scratch.missing);
                            let mut acc = Acc::default();
                            acc.own.results.append(&mut scratch.results);
                            for k in scratch.consulted.drain(..) {
                                let version = self.versions.get(&k).copied().unwrap_or(0);
                                acc.own.consulted.push((k, version));
                            }
                            open.push((item, next_index, acc));
                            frames.push(Frame {
                                index: next_index,
                                low: next_index,
                                base,
                                next: base,
                                end: pending.len(),
                                slot: open.len() - 1,
                            });
                            continue;
                        }
                    }
                }
            };
            match frames.last() {
                Some(top) => open[top.slot].2.merge(&finished),
                None => total.merge(&finished),
            }
        }
        let total = total.finish();
        out.results.extend_from_slice(&total.results);
        out.consulted
            .extend(total.consulted.iter().map(|&(k, _)| k));
        Outcome::Done((out, closed))
    }

    /// The memoized outcome of `item`, unless a summary it consulted has
    /// changed since (the stale entry is dropped).
    fn memo_hit(&self, table: &mut MemoTable, item: Item) -> Option<Arc<Memo>> {
        let outcome = table.get(&item)?;
        let fresh = outcome
            .consulted
            .iter()
            .all(|(k, v)| self.versions.get(k).copied().unwrap_or(0) == *v);
        if fresh {
            Some(Arc::clone(outcome))
        } else {
            table.remove(&item);
            None
        }
    }

    /// Processes one item (Algorithm 4): rewrites the tracked value through
    /// the item's statement, appending terminal values, consulted and
    /// missing summaries to `out` and the items to visit next under `rel`
    /// to `next`.
    #[allow(clippy::too_many_arguments)]
    fn expand(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        rel: Relation<'_>,
        (m, x, cond, dead): Item,
        oracle: &dyn PtsOracle,
        budget: &mut AnalysisBudget,
        out: &mut WalkOut,
        next: &mut Vec<Item>,
    ) -> Outcome<()> {
        let func = cx.program.func(f);
        let loc = Loc::new(f, m);
        // Literals above a crossed definition of their variable refer to
        // the old value: extend the dead set with m's kills before
        // attaching anything from m or above. Dead sets only matter in
        // path-sensitive mode, and only for the function's literal
        // variables (the sparse walk records no others); resolve the
        // (updated) set once per item.
        let chains = match rel {
            Relation::Sparse(chains) => Some(chains),
            Relation::Dense => None,
        };
        let tracked = |v: VarId| chains.is_none_or(|c| c.literal_vars.binary_search(&v).is_ok());
        let (dead, dead_set) = if self.path_sensitive {
            let dead = match func.stmt(m) {
                Stmt::Call(_) | Stmt::Spawn(_) if chains.is_none_or(|c| c.global_literal) => {
                    arena_try!(budget, self.arena.kill_globals(dead))
                }
                stmt => match stmt.direct_def() {
                    Some(d) if tracked(d) => arena_try!(budget, self.arena.kill(dead, d)),
                    _ => dead,
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
                    let reach =
                        arena_try!(budget, self.reach_cond(cx, f, m, cond, dead_set.as_deref()));
                    if let Some(c) = reach {
                        out.results.push((Value::Addr(obj), c));
                    }
                } else {
                    continues.push((x, cond));
                }
            }
            // A `free` nulls its operand, so for the backward value walk it
            // behaves exactly like an explicit NULL assignment.
            Stmt::Null { dst } | Stmt::Free { dst } => {
                if *dst == x && self.relevant.contains_stmt(loc) {
                    let reach =
                        arena_try!(budget, self.reach_cond(cx, f, m, cond, dead_set.as_deref()));
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
                    if let Some(c2) = arena_try!(budget, self.arena.and_atom(cond, hit.negated())) {
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
                                // fixpoint; charge the budget per tuple so
                                // one item cannot do unbounded work. A
                                // consumed summary stands for arbitrary
                                // summarised work, so this tick also checks
                                // the clock.
                                if !budget.tick_checked() {
                                    return budget.degraded();
                                }
                                self.steps += 1;
                                let Some(cc) = arena_try!(budget, self.arena.and_cond(cond, c2))
                                else {
                                    continue;
                                };
                                match value {
                                    Value::Ptr(w) => continues.push((w, cc)),
                                    Value::Addr(_) | Value::Null => {
                                        let reach = arena_try!(
                                            budget,
                                            self.reach_cond(cx, f, m, cc, dead_set.as_deref())
                                        );
                                        if let Some(c) = reach {
                                            out.results.push((value, c));
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
            Stmt::Spawn(_) | Stmt::Lock { .. } | Stmt::Unlock { .. } => continues.push((x, cond)),
            Stmt::Return | Stmt::Skip => continues.push((x, cond)),
        }
        for (x2, c2) in continues {
            if m == 0 {
                out.results.push((Value::Ptr(x2), c2));
                continue;
            }
            for &m2 in func.preds(m) {
                let c3 = match self.live_literal(cx, func, m2, m, dead_set.as_deref()) {
                    // Conjoin live literals and prune contradictory paths.
                    Some(atom) => match arena_try!(budget, self.arena.and_atom(c2, atom)) {
                        Some(c) => c,
                        None => continue,
                    },
                    None => c2,
                };
                let item = arena_try!(budget, self.land(cx, f, rel, m2, x2, c3, dead));
                next.extend(item);
            }
        }
        Outcome::Done(())
    }

    /// The literal of the edge `from -> to` if it is to be conjoined
    /// (path-sensitive mode, `dead` given): stale literals — their variable
    /// was redefined below — are skipped.
    fn live_literal(
        &self,
        cx: EngineCx<'_>,
        func: &Function,
        from: StmtIdx,
        to: StmtIdx,
        dead: Option<&DeadVars>,
    ) -> Option<Atom> {
        let dead = dead?;
        let atom = edge_literal(cx, func, from, to)?;
        (!dead.is_dead(atom.branch_var().expect("edge literal"), cx.program)).then_some(atom)
    }

    /// The item a walk reaching statement `m` with `(x, cond, dead)` visits:
    /// that item itself under the dense relation; under the sparse one, the
    /// nearest stop for `x` at or before `m`, with the literal of the last
    /// edge crossed on the way (path-sensitively). `Ok(None)` means that
    /// literal contradicts `cond`.
    #[allow(clippy::too_many_arguments)]
    fn land(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        rel: Relation<'_>,
        m: StmtIdx,
        x: VarId,
        cond: CondId,
        dead: DeadId,
    ) -> Result<Option<Item>, ArenaFull> {
        let chains = match rel {
            Relation::Dense => return Ok(Some((m, x, cond, dead))),
            Relation::Sparse(chains) => chains,
        };
        let (stop, entered) = self.jump(cx, f, chains, m, x);
        let mut cond = cond;
        if let Some(to) = entered.filter(|_| self.path_sensitive) {
            let dead_set = self.arena.resolve_dead(dead);
            let func = cx.program.func(f);
            if let Some(atom) = self.live_literal(cx, func, stop, to, Some(&dead_set)) {
                match self.arena.and_atom(cond, atom)? {
                    Some(c) => cond = c,
                    None => return Ok(None),
                }
            }
        }
        Ok(Some((stop, x, cond, dead)))
    }

    /// The nearest stop for `x` at or before `m`, and — when it is the head
    /// of `m`'s chain — the statement after it that the walk entered the
    /// chain through.
    fn jump(
        &mut self,
        cx: EngineCx<'_>,
        f: FuncId,
        chains: &Chains,
        m: StmtIdx,
        x: VarId,
    ) -> (StmtIdx, Option<StmtIdx>) {
        let Some((chain, pos)) = chains.at[m as usize] else {
            return (m, None);
        };
        let nearest = |stops: &[(u32, u32, StmtIdx)]| {
            let i = stops.partition_point(|&(c, p, _)| (c, p) <= (chain, pos));
            match i.checked_sub(1).map(|i| stops[i]) {
                Some((c, _, stop)) if c == chain => (stop, None),
                _ => {
                    let (head, first) = chains.heads[chain as usize];
                    (head, Some(first))
                }
            }
        };
        if let Some(stops) = self.var_stops.get(&(f, x)) {
            return nearest(stops);
        }
        let stops = self.stops_of(cx, f, chains, x);
        let out = nearest(&stops);
        self.var_stops.insert((f, x), stops);
        out
    }

    /// Where on `f`'s chains a walk tracking `x` stops: the definitions of
    /// `x` (one the slice ignores only costs a stop) and the calls whose
    /// callee may write `x`. Any other callee's summary for `x` is `{(x,
    /// ⊤)}` (it can return, or the call would be a stop of its own), so
    /// crossing its call leaves the item as it is.
    fn stops_of(&mut self, cx: EngineCx<'_>, f: FuncId, chains: &Chains, x: VarId) -> VarStops {
        let on_chain = |m: StmtIdx| chains.at[m as usize].map(|(c, p)| (c, p, m));
        let mut stops: VarStops = cx
            .index
            .defs_of(x)
            .iter()
            .filter(|loc| loc.func == f)
            .filter_map(|loc| on_chain(loc.stmt))
            .collect();
        if !chains.calls.is_empty() {
            for &g in self.writers_of(cx, x).iter() {
                let from = chains.calls.partition_point(|&(h, _)| h < g);
                let calls = chains.calls[from..].iter().take_while(|&&(h, _)| h == g);
                stops.extend(calls.filter_map(|&(_, m)| on_chain(m)));
            }
        }
        stops.sort_unstable();
        stops
    }

    /// The sorted functions whose execution may write `x` under this
    /// cluster's relevant slice: the callers-closure of the functions that
    /// hold a relevant definition of `x` or a relevant store into `x`'s
    /// Steensgaard class (an oracle's candidates lie within that class).
    fn writers_of(&mut self, cx: EngineCx<'_>, x: VarId) -> Arc<[FuncId]> {
        if let Some(writers) = self.writers.get(&x) {
            return Arc::clone(writers);
        }
        let class = cx.steens.class_of(x).0;
        let mut seeds: Vec<FuncId> = cx
            .index
            .defs_of(x)
            .iter()
            .chain(cx.index.stores_writing(class))
            .filter(|loc| self.relevant.contains_stmt(**loc))
            .map(|loc| loc.func)
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        let writers = match seeds.as_slice() {
            [f] => self.callers_closure(cx, *f),
            _ => {
                let mut all: Vec<FuncId> = Vec::new();
                for f in seeds {
                    all.extend_from_slice(&self.callers_closure(cx, f));
                }
                all.sort_unstable();
                all.dedup();
                all.into()
            }
        };
        self.writers.insert(x, Arc::clone(&writers));
        writers
    }

    /// `f` and its transitive callers, sorted.
    fn callers_closure(&mut self, cx: EngineCx<'_>, f: FuncId) -> Arc<[FuncId]> {
        Arc::clone(self.callers.entry(f).or_insert_with(|| {
            let mut seen: HashSet<FuncId, FxBuildHasher> = HashSet::default();
            seen.insert(f);
            let mut stack = vec![f];
            while let Some(g) = stack.pop() {
                for &caller in cx.cg.callers(g) {
                    if seen.insert(caller) {
                        stack.push(caller);
                    }
                }
            }
            let mut closure: Vec<FuncId> = seen.into_iter().collect();
            closure.sort_unstable();
            closure.into()
        }))
    }

    /// Whether some path from `g`'s entry reaches its exit without crossing
    /// a call to a modifying function that cannot return. Such a call ends
    /// every walk path through it (its summaries are empty); non-modifying
    /// callees are stepped over by every walk. A function still being
    /// decided — recursion — or one past a nesting limit counts as not
    /// returning, which can only add stops.
    fn can_return(&mut self, cx: EngineCx<'_>, g: FuncId, depth: usize) -> bool {
        if let Some(&known) = self.returns.get(&g) {
            return known;
        }
        if depth > 64 {
            return false;
        }
        self.returns.insert(g, false);
        let func = cx.program.func(g);
        let exit = func.exit().stmt;
        let mut seen = vec![false; func.body().len()];
        let mut stack = vec![0 as StmtIdx];
        seen[0] = true;
        let mut returns = false;
        while let Some(m) = stack.pop() {
            if m == exit {
                returns = true;
                break;
            }
            if let Stmt::Call(call) = func.stmt(m) {
                if let CallTarget::Direct(h) = call.target {
                    if self.modifying.contains(&h) && !self.can_return(cx, h, depth + 1) {
                        continue;
                    }
                }
            }
            for &s in func.succs(m) {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push(s);
                }
            }
        }
        self.returns.insert(g, returns);
        returns
    }

    /// The sparse relation of `f`, built on first use.
    fn chains_of(&mut self, cx: EngineCx<'_>, f: FuncId) -> Arc<Chains> {
        if let Some(chains) = self.chains.get(&f) {
            return Arc::clone(chains);
        }
        let mut blocked = Vec::new();
        if !self.path_sensitive {
            for &g in cx.cg.callees(f) {
                if self.modifying.contains(&g) && !self.can_return(cx, g, 0) {
                    blocked.push(g);
                }
            }
        }
        let func = cx.program.func(f);
        let (relevant, modifying) = (&self.relevant, &self.modifying);
        let chains = Arc::new(Chains::build(
            cx,
            func,
            relevant,
            modifying,
            self.path_sensitive,
            &blocked,
        ));
        self.chains.insert(f, Arc::clone(&chains));
        chains
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

    /// The sparse walk and the dense oracle over the same cluster must
    /// compute equal summaries and equal local sources at every exit.
    fn assert_walks_agree(src: &str, members: &[&str], path_sensitive: bool) {
        let s = Setup::new(src);
        let members: Vec<VarId> = members.iter().map(|n| s.v(n)).collect();
        let mk = |dense: bool| {
            let mut e = ClusterEngine::with_engine_options(
                s.cx(),
                members.clone(),
                EngineOptions {
                    path_sensitive,
                    dense,
                    ..EngineOptions::default()
                },
            );
            e.compute_all_summaries(s.cx(), &NoOracle, &mut AnalysisBudget::unlimited())
                .unwrap();
            e
        };
        let (mut sparse, mut dense) = (mk(false), mk(true));
        assert_eq!(
            sparse.summary_disagreements(&dense),
            vec![],
            "walks disagree (path_sensitive={path_sensitive})"
        );
        for func in s.program.functions() {
            for &p in &members {
                let sources = |e: &mut ClusterEngine| {
                    e.local_sources(
                        s.cx(),
                        p,
                        func.exit(),
                        &NoOracle,
                        &mut AnalysisBudget::unlimited(),
                    )
                    .unwrap()
                };
                assert_eq!(sources(&mut sparse), sources(&mut dense));
            }
        }
    }

    #[test]
    fn sparse_walk_matches_dense_oracle() {
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
        // A loop (one item component), a callee that never returns, and
        // a global branch variable killed by a call.
        let shapes = "int a; int b; int *x; int *y; int c; int d;
             void stuck() { while (1) { } }
             void set() { if (d) { y = &b; } }
             void main() {
                 x = &a;
                 while (c) { y = x; x = y; if (d) { x = &b; } }
                 if (d) { set(); }
                 if (c) { stuck(); }
                 y = x;
             }";
        assert_walks_agree(shapes, &["x", "y"], false);
        assert_walks_agree(shapes, &["x", "y"], true);
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
