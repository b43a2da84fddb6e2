//! Interprocedural alias queries: the FSCI driver (Algorithm 3), the
//! dovetailing points-to oracle (Algorithm 2) and flow- and
//! context-sensitive queries (§3).
//!
//! An [`Analyzer`] is a caching query context over a [`Session`]. It owns
//! one [`ClusterEngine`] per Steensgaard partition (created lazily) plus a
//! memoized FSCI points-to cache. The dovetail invariant — summaries for a
//! partition at depth *d* only consult FSCI sets of strictly higher
//! partitions — is enforced dynamically with an in-progress guard: on
//! re-entry (the cyclic case) the oracle reports "unknown" and the engine
//! falls back to Steensgaard candidates plus Definition 8 constraints.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use bootstrap_analyses::ClassId;
use bootstrap_ir::{FuncId, Loc, Stmt, VarId};

use crate::budget::{AnalysisBudget, Outcome};
use crate::constraint::Cond;
use crate::cover::Cluster;
use crate::degrade::PanicClass;
use crate::engine::{ClusterEngine, EngineCx, EngineOptions, PtsOracle};
use crate::intern::Interner;
use crate::parallel::ClusterReport;
use crate::profile::Phase;
use crate::session::Session;
use crate::summary::{Source, Value};

/// Thread-local FSCI memo: `None` marks an oracle budget miss.
type FsciMemo = HashMap<(VarId, Loc), Option<Arc<Vec<VarId>>>>;

/// An error raised by a malformed query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The supplied calling context does not form a valid call chain
    /// ending at the queried location's function.
    InvalidContext(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::InvalidContext(msg) => write!(f, "invalid context: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A caching query context over a [`Session`].
///
/// Not `Sync`: create one analyzer per thread (the underlying [`Session`]
/// is shareable).
///
/// # Examples
///
/// ```
/// use bootstrap_core::{Config, Session};
///
/// let program = bootstrap_ir::parse_program(
///     "int a; int *p; int *q; void main() { p = &a; q = p; }",
/// )
/// .unwrap();
/// let session = Session::new(&program, Config::default());
/// let az = session.analyzer();
/// let main_exit = program.entry().unwrap().exit();
/// let p = program.var_named("p").unwrap();
/// let q = program.var_named("q").unwrap();
/// assert!(az.may_alias(p, q, main_exit).unwrap());
/// ```
pub struct Analyzer<'s> {
    session: &'s Session<'s>,
    engines: RefCell<HashMap<ClassId, Rc<RefCell<ClusterEngine>>>>,
    /// Thread-local memo over the session's shared cache: avoids the shared
    /// shard lock (and its hit/miss accounting) on repeat lookups. Values
    /// are `Arc` so they can be published to the shared cache verbatim.
    fsci_cache: RefCell<FsciMemo>,
    /// FSCI computations currently on the oracle stack; re-entry on the
    /// same `(variable, location)` is a genuine cyclic dependency (the
    /// paper's same-depth case) and degrades to the Steensgaard fallback.
    fsci_stack: RefCell<HashSet<(VarId, Loc)>>,
    /// Scratch memo for *nested* FSCI results, valid only while one
    /// top-level computation is in flight and cleared when it finishes.
    /// Nested results may carry a cycle cut, so they never enter the
    /// durable caches — but without any reuse the dovetailing recursion
    /// re-walks every level from scratch, and on cyclic points-to shapes
    /// (a struct with a back-pointer field) the tree grows exponentially.
    fsci_scratch: RefCell<FsciMemo>,
    /// The arena engines of this analyzer intern into — the session's
    /// shared interner, or a private (typically larger) one for a
    /// degraded-cluster retry.
    arena: Arc<Interner>,
    /// Set when a query panicked mid-walk on this analyzer. A panic can
    /// leave partially-fixpointed summaries behind, so the analyzer's FSCS
    /// answers are no longer trustworthy: [`crate::Session::query_at_loc`]
    /// skips tier 1 on a poisoned analyzer and the cluster drivers replace
    /// poisoned analyzers outright.
    poisoned: Cell<Option<PanicClass>>,
}

impl<'s> Analyzer<'s> {
    pub(crate) fn new(session: &'s Session<'s>) -> Self {
        Self::with_arena(session, Arc::clone(session.interner()))
    }

    pub(crate) fn with_arena(session: &'s Session<'s>, arena: Arc<Interner>) -> Self {
        Self {
            session,
            engines: RefCell::new(HashMap::new()),
            fsci_cache: RefCell::new(HashMap::new()),
            fsci_stack: RefCell::new(HashSet::new()),
            fsci_scratch: RefCell::new(HashMap::new()),
            arena,
            poisoned: Cell::new(None),
        }
    }

    /// The panic class that poisoned this analyzer, if any.
    pub fn poison_class(&self) -> Option<PanicClass> {
        self.poisoned.get()
    }

    /// Marks this analyzer poisoned (a panic unwound through its state).
    pub fn poison(&self, class: PanicClass) {
        if self.poisoned.get().is_none() {
            self.poisoned.set(Some(class));
        }
    }

    /// The underlying session.
    pub fn session(&self) -> &'s Session<'s> {
        self.session
    }

    fn cx(&self) -> EngineCx<'s> {
        self.session.engine_cx()
    }

    /// Builds an engine over the session's shared interning arena,
    /// recording the Algorithm 1 setup cost as the relevant phase. With a
    /// persistent store configured, the freshly sliced engine consults it
    /// before any solving: a valid entry pre-installs the summaries (and
    /// the session's recorded answers), making the fixpoint near-free.
    fn build_engine(&self, members: Vec<VarId>) -> ClusterEngine {
        let t0 = std::time::Instant::now();
        let config = self.session.config();
        let mut engine = ClusterEngine::with_engine_options(
            self.cx(),
            members,
            EngineOptions {
                cond_cap: config.cond_cap,
                path_sensitive: config.path_sensitive,
                uninterned: false,
                arena: Some(Arc::clone(&self.arena)),
                fault: None,
            },
        );
        self.session
            .profile()
            .record(Phase::Relevant, t0.elapsed(), 0);
        if let Some(store) = self.session.cluster_store() {
            store.consult(self.session, &mut engine);
        }
        engine
    }

    /// The (lazily created) engine for the Steensgaard alias partition
    /// with key `key` (see
    /// [`bootstrap_analyses::SteensgaardResult::partition_key`]).
    fn partition_engine(&self, key: ClassId) -> Rc<RefCell<ClusterEngine>> {
        if let Some(e) = self.engines.borrow().get(&key) {
            return Rc::clone(e);
        }
        let members = self.session.engine_members(key).to_vec();
        let engine = Rc::new(RefCell::new(self.build_engine(members)));
        self.engines.borrow_mut().insert(key, Rc::clone(&engine));
        engine
    }

    /// Flow-sensitive, context-insensitive value sources of `p` just before
    /// `loc`, over all contexts (Theorem 5 / Algorithm 3): each source is
    /// where a maximally complete update sequence ending in `p` begins.
    pub fn sources(
        &self,
        p: VarId,
        loc: Loc,
        budget: &mut AnalysisBudget,
    ) -> Outcome<Vec<(Source, Cond)>> {
        self.with_partition_engine(p, |az, e| az.sources_with_engine(e, p, loc, budget))
    }

    /// Runs `f` with the partition engine of `p`, falling back to a
    /// throwaway single-pointer engine when a caller already holds that
    /// engine (recursive FSCI resolution within one partition, or a user
    /// driving an engine directly with the analyzer as oracle) —
    /// Algorithm 1's closure from `{p}` still pulls in everything that
    /// affects `p`. A degraded run can leave partially-fixpointed
    /// summaries in the engine, which a later walk would consult as if
    /// converged — an unsound under-approximation — so the engine is
    /// dropped from the cache on any non-`Done` outcome.
    fn with_partition_engine<T>(
        &self,
        p: VarId,
        f: impl FnOnce(&Self, &mut ClusterEngine) -> Outcome<T>,
    ) -> Outcome<T> {
        let class = self.session.steens().partition_key(p);
        let engine = self.partition_engine(class);
        if let Ok(mut e) = engine.try_borrow_mut() {
            let out = f(self, &mut e);
            drop(e);
            if !out.is_done() {
                self.engines.borrow_mut().remove(&class);
            }
            return out;
        }
        let mut fresh = self.build_engine(vec![p]);
        f(self, &mut fresh)
    }

    /// The Algorithm 3 climb with an explicit engine — used both by
    /// [`Analyzer::sources`] (partition engine) and by
    /// [`Analyzer::process_cluster`] (the cluster's own engine, so the
    /// measured cost is the cluster's).
    fn sources_with_engine(
        &self,
        engine: &mut ClusterEngine,
        p: VarId,
        loc: Loc,
        budget: &mut AnalysisBudget,
    ) -> Outcome<Vec<(Source, Cond)>> {
        let mut results: Vec<(Source, Cond)> = Vec::new();
        let mut queue: Vec<(FuncId, VarId)> = Vec::new();
        let mut seen: HashSet<(FuncId, VarId)> = HashSet::new();
        let entry_func = self.session.program().entry().map(|f| f.id());

        let local = match engine.local_sources(self.cx(), p, loc, self, budget) {
            Outcome::Done(v) => v,
            Outcome::Degraded(r) => return Outcome::Degraded(r),
        };
        absorb(local, loc.func, &mut results, &mut queue, &mut seen);

        // Algorithm 3: propagate entry frontiers up through all callers.
        while let Some((f, q)) = queue.pop() {
            let callers = self.session.callers_of(f);
            if Some(f) == entry_func || callers.is_empty() {
                results.push((Source::EntryVar(q), Cond::top()));
            }
            for &cs in callers {
                let vals = match engine.local_sources(self.cx(), q, cs, self, budget) {
                    Outcome::Done(v) => v,
                    Outcome::Degraded(r) => return Outcome::Degraded(r),
                };
                absorb(vals, cs.func, &mut results, &mut queue, &mut seen);
            }
        }
        results.sort();
        results.dedup();
        Outcome::Done(results)
    }

    /// Analyzes one cluster end to end — Algorithm 1's slice, all function
    /// summaries, and the interprocedural sources of every member at the
    /// entry function's exit. This is the per-cluster work unit whose cost
    /// the Table 1 harness measures.
    pub fn process_cluster(&self, cluster: &Cluster, mut budget: AnalysisBudget) -> ClusterReport {
        let t0 = std::time::Instant::now();
        let cx = self.cx();
        let mut engine = self.build_engine(cluster.members.clone());
        let fscs_start = std::time::Instant::now();
        let steps_before = engine.steps();
        let mut degraded = match engine.compute_all_summaries(cx, self, &mut budget) {
            Outcome::Done(()) => None,
            Outcome::Degraded(r) => Some(r),
        };
        if degraded.is_none() {
            if let Some(entry) = self.session.program().entry() {
                let exit = entry.exit();
                for &m in &cluster.members {
                    match self.sources_with_engine(&mut engine, m, exit, &mut budget) {
                        Outcome::Done(_) => {}
                        Outcome::Degraded(r) => {
                            degraded = Some(r);
                            break;
                        }
                    }
                }
            }
        }
        self.session.profile().record(
            Phase::Fscs,
            fscs_start.elapsed(),
            engine.steps() - steps_before,
        );
        // Publish only a *clean* cluster: a degraded fixpoint can hold
        // partial summaries that must never be reused as if converged.
        if degraded.is_none() && self.poisoned.get().is_none() {
            if let Some(store) = self.session.cluster_store() {
                store.publish(self.session, &engine);
            }
        }
        ClusterReport {
            cluster_id: cluster.id,
            size: cluster.members.len(),
            relevant_stmts: engine.relevant().stmt_count(),
            summary_entries: engine.summaries().entry_count(),
            summary_tuples: engine.summaries().tuple_count(),
            duration: t0.elapsed(),
            degraded,
        }
    }

    /// Like [`Analyzer::sources`], but restricted to one calling context
    /// (§3 "Computing Flow and Context-Sensitive Aliases"). `context` lists
    /// the call sites from the outermost frame to the one that invokes
    /// `loc`'s function; an empty context means `loc` is in the entry
    /// function.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::InvalidContext`] if the call sites do not form
    /// a chain ending at `loc.func`.
    pub fn sources_in_context(
        &self,
        p: VarId,
        loc: Loc,
        context: &[Loc],
        budget: &mut AnalysisBudget,
    ) -> Result<Outcome<Vec<(Source, Cond)>>, QueryError> {
        self.validate_context(loc, context)?;
        Ok(self.with_partition_engine(p, |az, e| {
            az.sources_in_context_with_engine(e, p, loc, context, budget)
        }))
    }

    /// The context-restricted climb with an explicit engine.
    fn sources_in_context_with_engine(
        &self,
        engine: &mut ClusterEngine,
        p: VarId,
        loc: Loc,
        context: &[Loc],
        budget: &mut AnalysisBudget,
    ) -> Outcome<Vec<(Source, Cond)>> {
        let mut results: Vec<(Source, Cond)> = Vec::new();

        // Frontier of variables tracked at the entry of the current frame.
        let mut frontier: HashSet<VarId> = HashSet::new();
        let local = match engine.local_sources(self.cx(), p, loc, self, budget) {
            Outcome::Done(v) => v,
            Outcome::Degraded(r) => return Outcome::Degraded(r),
        };
        for (val, cond) in local {
            match val {
                Value::Addr(o) => results.push((Source::Addr(o), cond)),
                Value::Null => results.push((Source::Null, cond)),
                Value::Ptr(q) => {
                    frontier.insert(q);
                }
            }
        }
        // Climb the context from the innermost call site outwards.
        for &cs in context.iter().rev() {
            if frontier.is_empty() {
                break;
            }
            let mut next: HashSet<VarId> = HashSet::new();
            for q in frontier {
                let vals = match engine.local_sources(self.cx(), q, cs, self, budget) {
                    Outcome::Done(v) => v,
                    Outcome::Degraded(r) => return Outcome::Degraded(r),
                };
                for (val, cond) in vals {
                    match val {
                        Value::Addr(o) => results.push((Source::Addr(o), cond)),
                        Value::Null => results.push((Source::Null, cond)),
                        Value::Ptr(w) => {
                            next.insert(w);
                        }
                    }
                }
            }
            frontier = next;
        }
        for q in frontier {
            results.push((Source::EntryVar(q), Cond::top()));
        }
        results.sort();
        results.dedup();
        Outcome::Done(results)
    }

    fn validate_context(&self, loc: Loc, context: &[Loc]) -> Result<(), QueryError> {
        let program = self.session.program();
        let mut expected_callee = loc.func;
        for &cs in context.iter().rev() {
            match program.stmt_at(cs) {
                Stmt::Call(c) | Stmt::Spawn(c) => match c.target {
                    bootstrap_ir::CallTarget::Direct(g) if g == expected_callee => {
                        expected_callee = cs.func;
                    }
                    _ => {
                        return Err(QueryError::InvalidContext(format!(
                            "call at {cs} does not invoke {}",
                            program.func(expected_callee).name()
                        )))
                    }
                },
                _ => {
                    return Err(QueryError::InvalidContext(format!(
                        "{cs} is not a call site"
                    )))
                }
            }
        }
        if let Some(entry) = program.entry() {
            if expected_callee != entry.id() {
                return Err(QueryError::InvalidContext(format!(
                    "context does not start at the entry function (starts at {})",
                    program.func(expected_callee).name()
                )));
            }
        }
        Ok(())
    }

    /// Filters sources whose constraints are refutable against the FSCI
    /// points-to cache.
    pub(crate) fn satisfiable_sources(&self, sources: Vec<(Source, Cond)>) -> Vec<(Source, Cond)> {
        sources
            .into_iter()
            .filter(|(_, cond)| cond.satisfiable(|v, l| self.fsci_pts(v, l)))
            .collect()
    }

    /// May `p` and `q` alias just before `loc`, in some context
    /// (flow-sensitive, context-insensitive at the query level)?
    pub fn may_alias(&self, p: VarId, q: VarId, loc: Loc) -> Outcome<bool> {
        let mut budget = self.session.config().query_budget();
        if p == q {
            return Outcome::Done(true);
        }
        let sp = match self.sources(p, loc, &mut budget) {
            Outcome::Done(v) => self.satisfiable_sources(v),
            Outcome::Degraded(r) => return Outcome::Degraded(r),
        };
        let sq = match self.sources(q, loc, &mut budget) {
            Outcome::Done(v) => self.satisfiable_sources(v),
            Outcome::Degraded(r) => return Outcome::Degraded(r),
        };
        Outcome::Done(self.sources_alias(&sp, &sq))
    }

    /// May `p` and `q` alias just before `loc` in the given context?
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::InvalidContext`] for malformed contexts.
    pub fn may_alias_in_context(
        &self,
        p: VarId,
        q: VarId,
        loc: Loc,
        context: &[Loc],
    ) -> Result<Outcome<bool>, QueryError> {
        let mut budget = self.session.config().query_budget();
        if p == q {
            return Ok(Outcome::Done(true));
        }
        let sp = match self.sources_in_context(p, loc, context, &mut budget)? {
            Outcome::Done(v) => self.satisfiable_sources(v),
            Outcome::Degraded(r) => return Ok(Outcome::Degraded(r)),
        };
        let sq = match self.sources_in_context(q, loc, context, &mut budget)? {
            Outcome::Done(v) => self.satisfiable_sources(v),
            Outcome::Degraded(r) => return Ok(Outcome::Degraded(r)),
        };
        Ok(Outcome::Done(self.sources_alias(&sp, &sq)))
    }

    fn sources_alias(&self, sp: &[(Source, Cond)], sq: &[(Source, Cond)]) -> bool {
        let config = self.session.config();
        for (s1, c1) in sp {
            for (s2, c2) in sq {
                if !s1.same_value(*s2) {
                    continue;
                }
                // A concrete execution reaching the query point follows a
                // single path; the two sources must be jointly feasible on
                // it (syntactic check; path literals make this the paper's
                // infeasible-path weeding).
                if c1.and_cond(c2, config.cond_cap).is_none() {
                    continue;
                }
                match s1 {
                    Source::Addr(_) => return true,
                    Source::EntryVar(_) if config.alias_on_entry_garbage => return true,
                    Source::Null if config.alias_on_null => return true,
                    _ => {}
                }
            }
        }
        false
    }

    /// Must `p` and `q` alias just before `loc`? A conservative
    /// under-approximation: both pointers have exactly one unconditional
    /// source and it is the same object address — the form of must-alias
    /// the lockset application needs.
    pub fn must_alias(&self, p: VarId, q: VarId, loc: Loc) -> Outcome<bool> {
        let mut budget = self.session.config().query_budget();
        if p == q {
            return Outcome::Done(true);
        }
        let sp = match self.sources(p, loc, &mut budget) {
            Outcome::Done(v) => v,
            Outcome::Degraded(r) => return Outcome::Degraded(r),
        };
        let sq = match self.sources(q, loc, &mut budget) {
            Outcome::Done(v) => v,
            Outcome::Degraded(r) => return Outcome::Degraded(r),
        };
        let single = |s: &[(Source, Cond)]| match s {
            [(Source::Addr(o), cond)] if cond.is_top() && !cond.is_widened() => Some(*o),
            _ => None,
        };
        if matches!((single(&sp), single(&sq)), (Some(a), Some(b)) if a == b) {
            return Outcome::Done(true);
        }
        // Path-sensitive upgrade: even with several sources per pointer,
        // the pointers must alias if on *every* path their values coincide.
        // BDDs answer the tautology question the syntactic conjunctions
        // cannot (the paper's suggested use of BDDs, §3).
        if self.session.config().path_sensitive {
            return Outcome::Done(self.must_by_path_coverage(&sp, &sq));
        }
        Outcome::Done(false)
    }

    /// Sound must-alias over branch-literal conditions: requires (a) every
    /// source condition to be a pure, unwidened conjunction of branch
    /// literals, (b) each pointer's differing-value sources to be mutually
    /// exclusive (so each path determines one value), and (c) the
    /// disjunction of matching-value pair conditions to be a tautology
    /// (every path has a matching pair).
    fn must_by_path_coverage(&self, sp: &[(Source, Cond)], sq: &[(Source, Cond)]) -> bool {
        use crate::bdd::Manager;
        use crate::constraint::Atom;
        if sp.is_empty() || sq.is_empty() {
            return false;
        }
        let config = self.session.config();
        let value_ok = |s: &Source| match s {
            Source::Addr(_) => true,
            Source::EntryVar(_) => config.alias_on_entry_garbage,
            Source::Null => config.alias_on_null,
        };
        let mut mgr = Manager::new();
        let cond_bdd = |mgr: &mut Manager, cond: &Cond| -> Option<crate::bdd::Ref> {
            if cond.is_widened() {
                return None;
            }
            let mut acc = mgr.tru();
            for &atom in cond.atoms() {
                let lit = match atom {
                    Atom::BranchTrue { var } => mgr.var(var.index() as u32),
                    Atom::BranchFalse { var } => mgr.nvar(var.index() as u32),
                    _ => return None,
                };
                acc = mgr.and(acc, lit);
            }
            Some(acc)
        };
        let to_bdds = |mgr: &mut Manager, s: &[(Source, Cond)]| {
            s.iter()
                .map(|(src, cond)| {
                    if !value_ok(src) {
                        return None;
                    }
                    cond_bdd(mgr, cond).map(|b| (*src, b))
                })
                .collect::<Option<Vec<_>>>()
        };
        let (Some(bp), Some(bq)) = (to_bdds(&mut mgr, sp), to_bdds(&mut mgr, sq)) else {
            return false;
        };
        // (b) value determinism per pointer.
        for set in [&bp, &bq] {
            for (i, (v1, c1)) in set.iter().enumerate() {
                for (v2, c2) in &set[i + 1..] {
                    if v1 != v2 {
                        let joint = mgr.and(*c1, *c2);
                        if !mgr.is_false(joint) {
                            return false;
                        }
                    }
                }
            }
        }
        // (c) matching-pair coverage.
        let mut coverage = mgr.fls();
        for (v1, c1) in &bp {
            for (v2, c2) in &bq {
                if v1.same_value(*v2) {
                    let pair = mgr.and(*c1, *c2);
                    coverage = mgr.or(coverage, pair);
                }
            }
        }
        mgr.is_true(coverage)
    }

    /// All pointers that may alias `p` just before `loc`, drawn from the
    /// clusters of the session's cover containing `p` (Theorems 6/7: the
    /// union over those clusters is complete).
    pub fn alias_set(&self, p: VarId, loc: Loc) -> Outcome<Vec<VarId>> {
        let mut budget = self.session.config().query_budget();
        let sp = match self.sources(p, loc, &mut budget) {
            Outcome::Done(v) => self.satisfiable_sources(v),
            Outcome::Degraded(r) => return Outcome::Degraded(r),
        };
        let mut candidates: Vec<VarId> = Vec::new();
        for cluster in self.session.cover().clusters_containing(p) {
            candidates.extend(cluster.members.iter().copied());
        }
        candidates.sort();
        candidates.dedup();
        let mut out = Vec::new();
        for q in candidates {
            if q == p {
                continue;
            }
            let sq = match self.sources(q, loc, &mut budget) {
                Outcome::Done(v) => self.satisfiable_sources(v),
                Outcome::Degraded(r) => return Outcome::Degraded(r),
            };
            if self.sources_alias(&sp, &sq) {
                out.push(q);
            }
        }
        Outcome::Done(out)
    }

    /// The FSCI may-points-to set of `v` just before `loc` (dovetailing
    /// oracle). Returns `None` when the computation would recurse into a
    /// partition currently being analyzed (the cyclic case) or exceeds the
    /// oracle budget — callers fall back to Steensgaard candidates.
    pub fn fsci_pts(&self, v: VarId, loc: Loc) -> Option<Vec<VarId>> {
        if let Some(cached) = self.fsci_cache.borrow().get(&(v, loc)) {
            return cached.as_ref().map(|r| r.as_ref().clone());
        }
        // Session-wide shared cache next: another analyzer (possibly on
        // another thread) may already have done this computation. Only
        // clean results are ever published there, so adopting one is
        // indistinguishable from having computed it here.
        if let Some(shared) = self.session.fsci_cache().get(v, loc) {
            self.fsci_cache
                .borrow_mut()
                .insert((v, loc), shared.clone());
            return shared.as_ref().map(|r| r.as_ref().clone());
        }
        if self.fsci_stack.borrow().contains(&(v, loc)) {
            // Cyclic (same-depth) dependency: report unknown, do not cache.
            return None;
        }
        // Results computed while an outer FSCI computation is on the stack
        // may have been degraded by a cycle cut (sound, but
        // over-approximate relative to a clean run). Caching them durably
        // would make query answers depend on query *order*; only top-level
        // computations enter the durable caches. Nested results are still
        // reused *within* the current top-level computation (the scratch
        // memo) — recomputing them at every level makes the dovetailing
        // recursion exponential on cyclic points-to shapes.
        let clean = self.fsci_stack.borrow().is_empty();
        if !clean {
            if let Some(scratch) = self.fsci_scratch.borrow().get(&(v, loc)) {
                return scratch.as_ref().map(|r| r.as_ref().clone());
            }
        }
        self.fsci_stack.borrow_mut().insert((v, loc));
        let mut budget = self.session.config().oracle_budget();
        let result = match self.sources(v, loc, &mut budget) {
            Outcome::Done(srcs) => {
                let mut pts: Vec<VarId> = srcs
                    .into_iter()
                    .filter_map(|(s, _)| match s {
                        Source::Addr(o) => Some(o),
                        Source::Null | Source::EntryVar(_) => None,
                    })
                    .collect();
                pts.sort();
                pts.dedup();
                Some(Arc::new(pts))
            }
            Outcome::Degraded(_) => None,
        };
        self.fsci_stack.borrow_mut().remove(&(v, loc));
        if clean {
            // The top-level computation is over: its nested scratch
            // results (possibly cycle-cut) must not leak into later,
            // independently-ordered queries.
            self.fsci_scratch.borrow_mut().clear();
            self.fsci_cache
                .borrow_mut()
                .insert((v, loc), result.clone());
            self.session.fsci_cache().insert(v, loc, result.clone());
        } else {
            self.fsci_scratch
                .borrow_mut()
                .insert((v, loc), result.clone());
        }
        result.map(|r| r.as_ref().clone())
    }

    /// The store-warmed full-precision answer for `(p, loc)`, if one was
    /// loaded. Building the partition engine first is what consults the
    /// store, so even the very first query of a partition sees its warm
    /// artifacts.
    pub(crate) fn warm_sources(&self, p: VarId, loc: Loc) -> Option<Vec<(Source, Cond)>> {
        self.session.cluster_store()?;
        let class = self.session.steens().partition_key(p);
        let _ = self.partition_engine(class);
        self.session.warm_query(p, loc)
    }

    /// Publishes every cached partition engine's artifacts to the
    /// session's persistent store (a no-op without one). Checker drivers
    /// call this once after a query batch: only clean engines survive in
    /// the cache — degraded ones are dropped on the spot by
    /// [`Analyzer::with_partition_engine`] — so everything published is a
    /// completed fixpoint. A poisoned analyzer publishes nothing.
    pub fn publish_store(&self) {
        let Some(store) = self.session.cluster_store() else {
            return;
        };
        if self.poisoned.get().is_some() {
            return;
        }
        for engine in self.engines.borrow().values() {
            if let Ok(e) = engine.try_borrow() {
                store.publish(self.session, &e);
            }
        }
    }

    /// Direct access to the per-partition engine for inspection (summary
    /// counts, relevant-set sizes). Creates the engine if needed.
    pub fn engine_for(&self, class: ClassId) -> Rc<RefCell<ClusterEngine>> {
        self.partition_engine(class)
    }
}

impl PtsOracle for Analyzer<'_> {
    fn fsci_pts(&self, v: VarId, loc: Loc) -> Option<Vec<VarId>> {
        Analyzer::fsci_pts(self, v, loc)
    }
}

fn absorb(
    vals: Vec<(Value, Cond)>,
    func: FuncId,
    results: &mut Vec<(Source, Cond)>,
    queue: &mut Vec<(FuncId, VarId)>,
    seen: &mut HashSet<(FuncId, VarId)>,
) {
    for (val, cond) in vals {
        match val {
            Value::Addr(o) => results.push((Source::Addr(o), cond)),
            Value::Null => results.push((Source::Null, cond)),
            Value::Ptr(q) => {
                if seen.insert((func, q)) {
                    queue.push((func, q));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Config;
    use bootstrap_ir::{parse_program, Program};

    fn session(src: &str) -> (Program, Config) {
        (parse_program(src).unwrap(), Config::default())
    }

    fn v(p: &Program, n: &str) -> VarId {
        p.var_named(n).unwrap()
    }

    fn main_exit(p: &Program) -> Loc {
        p.entry().unwrap().exit()
    }

    #[test]
    fn may_alias_after_copy() {
        let (p, c) = session("int a; int *x; int *y; void main() { x = &a; y = x; }");
        let s = Session::new(&p, c);
        let az = s.analyzer();
        assert!(az.may_alias(v(&p, "x"), v(&p, "y"), main_exit(&p)).unwrap());
    }

    #[test]
    fn flow_sensitivity_kills_stale_alias() {
        let (p, c) = session(
            "int a; int b; int *x; int *y;
             void main() { x = &a; y = &a; x = &b; }",
        );
        let s = Session::new(&p, c);
        let az = s.analyzer();
        // At exit, x = &b while y = &a: no alias (a flow-insensitive
        // analysis would report one).
        assert!(!az.may_alias(v(&p, "x"), v(&p, "y"), main_exit(&p)).unwrap());
        let an = bootstrap_analyses::andersen::analyze(&p);
        assert!(an.may_alias(v(&p, "x"), v(&p, "y")), "Andersen is coarser");
    }

    #[test]
    fn call_site_precision_beats_andersen() {
        // The classic id() polyvariance test: splicing summaries through
        // each call site keeps x and y apart.
        let (p, c) = session(
            "int a; int b; int *x; int *y;
             int *id(int *q) { return q; }
             void main() { x = id(&a); y = id(&b); }",
        );
        let s = Session::new(&p, c);
        let az = s.analyzer();
        assert!(!az.may_alias(v(&p, "x"), v(&p, "y"), main_exit(&p)).unwrap());
        let an = bootstrap_analyses::andersen::analyze(&p);
        assert!(
            an.may_alias(v(&p, "x"), v(&p, "y")),
            "Andersen conflates the call sites"
        );
        // Sanity: x still aliases a fresh pointer to a.
        assert!(az
            .must_alias(v(&p, "x"), v(&p, "x"), main_exit(&p))
            .unwrap());
    }

    #[test]
    fn context_sensitive_global_query() {
        let (p, c) = session(
            "int a; int b; int *g;
             void setter(int *vv) { g = vv; }
             void main() { setter(&a); setter(&b); }",
        );
        let s = Session::new(&p, c);
        let az = s.analyzer();
        let setter = p.func_named("setter").unwrap();
        let setter_exit = p.func(setter).exit();
        let call_sites: Vec<Loc> = s.callers_of(setter).to_vec();
        assert_eq!(call_sites.len(), 2);
        let (cs1, cs2) = (
            call_sites[0].min(call_sites[1]),
            call_sites[0].max(call_sites[1]),
        );
        let mut b1 = AnalysisBudget::unlimited();
        let srcs1 = az
            .sources_in_context(v(&p, "g"), setter_exit, &[cs1], &mut b1)
            .unwrap()
            .unwrap();
        let srcs2 = az
            .sources_in_context(v(&p, "g"), setter_exit, &[cs2], &mut b1)
            .unwrap()
            .unwrap();
        assert_eq!(srcs1, vec![(Source::Addr(v(&p, "a")), Cond::top())]);
        assert_eq!(srcs2, vec![(Source::Addr(v(&p, "b")), Cond::top())]);
        // Context-insensitive union sees both.
        let all = az.sources(v(&p, "g"), setter_exit, &mut b1).unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn may_alias_in_context_distinguishes() {
        let (p, c) = session(
            "int a; int *g; int *h;
             void set(int *vv) { g = vv; }
             void main() { h = &a; set(&a); set(g); set(h); }",
        );
        let s = Session::new(&p, c);
        let az = s.analyzer();
        let set = p.func_named("set").unwrap();
        let set_exit = p.func(set).exit();
        let mut sites = s.callers_of(set).to_vec();
        sites.sort();
        // In every context here g ends up as &a eventually; check the
        // first one precisely.
        let r = az
            .may_alias_in_context(v(&p, "g"), v(&p, "h"), set_exit, &[sites[0]])
            .unwrap()
            .unwrap();
        assert!(r);
    }

    #[test]
    fn invalid_context_is_rejected() {
        let (p, c) = session("int *gv; void g() { } void main() { g(); }");
        let s = Session::new(&p, c);
        let az = s.analyzer();
        let g = p.func_named("g").unwrap();
        let g_exit = p.func(g).exit();
        let not_a_call = Loc::new(p.func_named("main").unwrap(), 0);
        let x = p.var_named("gv").unwrap();
        let err = az
            .sources_in_context(x, g_exit, &[not_a_call], &mut AnalysisBudget::unlimited())
            .unwrap_err();
        assert!(matches!(err, QueryError::InvalidContext(_)));
        assert!(err.to_string().contains("not a call site"));
    }

    #[test]
    fn empty_context_requires_entry_function() {
        let (p, c) = session("int *gv; void g() { } void main() { g(); }");
        let s = Session::new(&p, c);
        let az = s.analyzer();
        let g = p.func_named("g").unwrap();
        let g_exit = p.func(g).exit();
        let x = p.var_named("gv").unwrap();
        assert!(az
            .sources_in_context(x, g_exit, &[], &mut AnalysisBudget::unlimited())
            .is_err());
        // But main's own locations accept the empty context.
        assert!(az
            .sources_in_context(x, main_exit(&p), &[], &mut AnalysisBudget::unlimited())
            .is_ok());
    }

    #[test]
    fn must_alias_positive_and_negative() {
        let (p, c) = session(
            "int a; int b; int cnd; int *x; int *y; int *z;
             void main() { x = &a; y = &a; if (cnd) { z = &a; } else { z = &b; } }",
        );
        let s = Session::new(&p, c);
        let az = s.analyzer();
        assert!(az
            .must_alias(v(&p, "x"), v(&p, "y"), main_exit(&p))
            .unwrap());
        assert!(!az
            .must_alias(v(&p, "x"), v(&p, "z"), main_exit(&p))
            .unwrap());
        assert!(az.may_alias(v(&p, "x"), v(&p, "z"), main_exit(&p)).unwrap());
    }

    #[test]
    fn fsci_pts_resolves_higher_pointer() {
        let (p, c) = session(
            "int a; int *x; int **z;
             void main() { x = &a; z = &x; *z = &a; }",
        );
        let s = Session::new(&p, c);
        let az = s.analyzer();
        // At the store, z points exactly to {x}.
        let main = p.func(p.func_named("main").unwrap());
        let store_loc = main
            .locs()
            .find(|(_, st)| matches!(st, Stmt::Store { .. }))
            .unwrap()
            .0;
        let pts = az.fsci_pts(v(&p, "z"), store_loc).unwrap();
        assert_eq!(pts, vec![v(&p, "x")]);
    }

    #[test]
    fn second_analyzer_hits_shared_fsci_cache() {
        let (p, c) = session(
            "int a; int *x; int **z;
             void main() { x = &a; z = &x; *z = &a; }",
        );
        let s = Session::new(&p, c);
        let main = p.func(p.func_named("main").unwrap());
        let store_loc = main
            .locs()
            .find(|(_, st)| matches!(st, Stmt::Store { .. }))
            .unwrap()
            .0;
        let az1 = s.analyzer();
        let pts1 = az1.fsci_pts(v(&p, "z"), store_loc).unwrap();
        let after_first = s.fsci_cache_stats();
        assert!(after_first.entries > 0, "clean result published");
        // A brand-new analyzer (as a parallel worker would create) answers
        // from the shared cache instead of recomputing.
        let az2 = s.analyzer();
        let pts2 = az2.fsci_pts(v(&p, "z"), store_loc).unwrap();
        assert_eq!(pts1, pts2);
        let after_second = s.fsci_cache_stats();
        assert!(
            after_second.hits > after_first.hits,
            "expected a shared-cache hit: {after_second:?}"
        );
    }

    #[test]
    fn alias_set_collects_cluster_aliases() {
        let (p, c) = session(
            "int a; int b; int *x; int *y; int *w;
             void main() { x = &a; y = x; w = &b; }",
        );
        let s = Session::new(&p, c);
        let az = s.analyzer();
        let aliases = az.alias_set(v(&p, "x"), main_exit(&p)).unwrap();
        assert!(aliases.contains(&v(&p, "y")));
        assert!(!aliases.contains(&v(&p, "w")));
    }

    #[test]
    fn process_cluster_reports_work() {
        let (p, c) = session(
            "int a; int *x; int *y;
             void set() { y = x; }
             void main() { x = &a; set(); }",
        );
        let s = Session::new(&p, c);
        let az = s.analyzer();
        let cluster = s.cover().clusters_containing(v(&p, "x")).next().unwrap();
        let report = az.process_cluster(cluster, AnalysisBudget::unlimited());
        assert!(report.degraded.is_none());
        assert!(report.relevant_stmts > 0);
        assert!(report.summary_tuples > 0);
        assert_eq!(report.size, cluster.members.len());
    }

    #[test]
    fn null_does_not_alias_by_default() {
        let (p, c) = session("int *x; int *y; void main() { x = NULL; y = NULL; }");
        let s = Session::new(&p, c);
        let az = s.analyzer();
        assert!(!az.may_alias(v(&p, "x"), v(&p, "y"), main_exit(&p)).unwrap());
        // With the flag on, NULL values compare equal.
        let c2 = Config {
            alias_on_null: true,
            ..Config::default()
        };
        let s2 = Session::new(&p, c2);
        let az2 = s2.analyzer();
        assert!(az2
            .may_alias(v(&p, "x"), v(&p, "y"), main_exit(&p))
            .unwrap());
    }

    #[test]
    fn free_kills_alias() {
        let (p, c) = session(
            "int a; int *x; int *y;
             void main() { x = &a; y = x; free(x); }",
        );
        let s = Session::new(&p, c);
        let az = s.analyzer();
        assert!(!az.may_alias(v(&p, "x"), v(&p, "y"), main_exit(&p)).unwrap());
    }

    #[test]
    fn heap_sites_alias_iff_same_site() {
        let (p, c) = session(
            "int *x; int *y; int *z; int cnd;
             void main() { x = malloc(4); if (cnd) { y = x; } else { y = malloc(4); } z = malloc(8); }",
        );
        let s = Session::new(&p, c);
        let az = s.analyzer();
        assert!(az.may_alias(v(&p, "x"), v(&p, "y"), main_exit(&p)).unwrap());
        assert!(!az.may_alias(v(&p, "x"), v(&p, "z"), main_exit(&p)).unwrap());
    }

    #[test]
    fn cyclic_back_pointer_queries_terminate() {
        // A stream/state pair with a back-pointer field (the libbz2 shape):
        // the dovetailing FSCI oracle recurses through the collapsed
        // stores, and without the nested scratch memo the recursion tree
        // grows exponentially — this test hung before it was added.
        let (p, _) = session(
            r#"
            typedef unsigned char UChar;
            typedef struct S_s { UChar *next_in; int avail_in; void *state; } S;
            typedef struct E_s { S *strm; int nblock; UChar block[64]; } E;
            S gs; E gee;
            UChar input_buf[64];
            int rle_run(S *s) {
                E *e; int ch;
                e = (E *)s->state;
                while (s->avail_in > 0) {
                    ch = (int)*s->next_in;
                    s->next_in = s->next_in + 1;
                    s->avail_in = s->avail_in - 1;
                    e->block[e->nblock] = (UChar)ch;
                }
                return 0;
            }
            void main() {
                int r;
                gs.state = (void *)&gee;
                gee.strm = &gs;
                gs.next_in = input_buf;
                gs.avail_in = 10;
                r = rle_run(&gs);
            }
            "#,
        );
        // Modest budgets: the point is termination, not precision — with
        // the scratch memo the budget is barely touched, without it the
        // recursion re-spends the oracle budget at every level.
        let c = Config {
            query_step_budget: 50_000,
            oracle_step_budget: 5_000,
            ..Config::default()
        };
        let s = Session::new(&p, c);
        let az = s.analyzer();
        let exit = main_exit(&p);
        for &ptr in s.pointers() {
            let _ = s.query_at_loc(&az, ptr, exit);
        }
    }
}
