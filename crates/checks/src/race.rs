//! Data-race detection over the spawn/lock extended IR.
//!
//! A race is reported for a pair of memory accesses when
//!
//! * both may touch the same *thread-escaped* abstract object (alias facts
//!   from the precision ladder),
//! * the enclosing functions may run concurrently per the thread-escape
//!   analysis, at least one access is a write, and
//! * no common lock is **provably** held at both sites.
//!
//! Lock identity drives the suppression. Each `lock(m)` is resolved through
//! [`Session::query_at_loc`]: it contributes to the flow-sensitive
//! **must**-lockset only when the ladder names exactly one mutex object at
//! full FSCS precision (must-alias). Any coarser or multi-source answer —
//! budget exhaustion, arena overflow, a poisoned engine — falls back to the
//! **may**-lockset, which is reported as evidence but never suppresses.
//! Degradation therefore only *shrinks* must-locksets: every race reported
//! at full precision is also reported at a degraded tier (the findings gain
//! low-confidence tags, they never disappear).
//!
//! Locksets flow forward through each function's CFG (gen at `lock`, kill
//! at `unlock`, intersection of must-sets at joins) and across call edges:
//! a callee's entry lockset is the meet over its call sites, while a
//! spawned thread starts with the empty lockset regardless of what its
//! spawner held. Calls are assumed lock-balanced (a callee restores the
//! caller's lockset before returning).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use bootstrap_analyses::escape::{self, EscapeResult};
use bootstrap_core::{Cond, Precision, Session, Source};
use bootstrap_ir::{CallTarget, Function, Loc, Program, Stmt, VarId, VarKind};

use crate::{site_label, CheckerKind, Finding, Resolver, Severity};

/// One `lock` / `unlock` statement with its resolved mutex identity.
struct LockOp {
    is_lock: bool,
    /// The single mutex `m` definitely names here (FSCS tier, sole
    /// unconditional source). Only these suppress races.
    must: Option<VarId>,
    /// Every mutex `m` may name here, at whatever tier answered.
    may: Vec<VarId>,
    /// Tier that answered the identity query.
    precision: Precision,
}

/// Flow state: the locks held when control reaches a statement.
#[derive(Clone, PartialEq, Eq)]
struct LockState {
    /// Locks provably held on every path (must-lockset).
    must: BTreeSet<VarId>,
    /// Locks possibly held on some path (may-lockset, ⊇ must).
    may: BTreeSet<VarId>,
    /// Coarsest tier consulted by any lock resolution on a reaching path.
    precision: Precision,
}

impl LockState {
    fn empty() -> LockState {
        LockState {
            must: BTreeSet::new(),
            may: BTreeSet::new(),
            precision: Precision::Fscs,
        }
    }

    /// Path-join: intersect must, union may, coarsen precision.
    fn meet(&self, other: &LockState) -> LockState {
        LockState {
            must: self.must.intersection(&other.must).copied().collect(),
            may: self.may.union(&other.may).copied().collect(),
            precision: self.precision.max(other.precision),
        }
    }
}

/// Meets `state` into an optional slot (`None` = unreached, the top
/// element); returns `true` when the slot changed.
fn meet_into(slot: &mut Option<LockState>, state: &LockState) -> bool {
    let merged = match slot.as_ref() {
        None => state.clone(),
        Some(old) => old.meet(state),
    };
    if slot.as_ref() == Some(&merged) {
        false
    } else {
        *slot = Some(merged);
        true
    }
}

fn transfer(state: &LockState, op: Option<&LockOp>) -> LockState {
    let mut out = state.clone();
    let Some(op) = op else { return out };
    out.precision = out.precision.max(op.precision);
    if op.is_lock {
        if let Some(m) = op.must {
            out.must.insert(m);
        }
        out.may.extend(op.may.iter().copied());
    } else {
        // Conservative release: any mutex this unlock may name is no
        // longer *definitely* held. The may-set only shrinks when the
        // identity is unique, so must ⊆ may is preserved.
        for m in &op.may {
            out.must.remove(m);
        }
        if let [only] = op.may.as_slice() {
            out.may.remove(only);
        }
    }
    out
}

/// One read or write of shared memory.
struct Access {
    loc: Loc,
    write: bool,
    /// The pointer dereferenced (`*p` access) or the global named directly.
    var: VarId,
    /// Escaped abstract objects the access may touch.
    objs: Vec<VarId>,
    /// Must-lockset held at the access.
    must: BTreeSet<VarId>,
    /// May-lockset held at the access (evidence).
    may: BTreeSet<VarId>,
    /// Coarsest tier behind the access resolution or its lockset.
    precision: Precision,
}

/// The program's thread-escape facts, or `None` when it runs fewer than
/// two threads and so cannot race.
pub(crate) fn threads(session: &Session<'_>) -> Option<EscapeResult> {
    let esc = escape::analyze(session.program(), |v| {
        session.steens().points_to_vars(v).to_vec()
    });
    (esc.thread_count() >= 2).then_some(esc)
}

/// Runs the race checker over the facts [`threads`] found. Returns
/// findings plus `(sites, queries)` work counters for
/// [`crate::CheckerStats`].
pub(crate) fn check(
    session: &Session<'_>,
    rs: &mut Resolver<'_, '_>,
    esc: &EscapeResult,
) -> (Vec<Finding>, usize, usize) {
    let program = session.program();

    // Collect lock/unlock sites and dereference sites in live functions,
    // then resolve them in Steensgaard-partition order so consecutive
    // queries share the same per-cluster engine (the batching the other
    // checkers use).
    let mut lock_sites: Vec<(VarId, Loc, bool)> = Vec::new();
    let mut deref_sites: Vec<(VarId, Loc)> = Vec::new();
    for f in program.functions() {
        if esc.threads_of(f.entry().func).is_empty() {
            continue;
        }
        for (loc, s) in f.locs() {
            match s {
                Stmt::Lock { m } => lock_sites.push((*m, loc, true)),
                Stmt::Unlock { m } => lock_sites.push((*m, loc, false)),
                Stmt::Load { src, .. } => deref_sites.push((*src, loc)),
                Stmt::Store { dst, .. } | Stmt::Free { dst } => deref_sites.push((*dst, loc)),
                _ => {}
            }
        }
    }
    let mut order: Vec<(VarId, Loc)> = lock_sites
        .iter()
        .map(|&(m, loc, _)| (m, loc))
        .chain(deref_sites.iter().copied())
        .collect();
    order.sort_by_key(|&(p, loc)| (session.steens().partition_key(p), loc.func, loc.stmt));
    let queries = order.len();
    for (p, loc) in order {
        rs.sources(p, loc);
    }

    // Resolved lock identities per lock/unlock statement.
    let mut ops: HashMap<Loc, LockOp> = HashMap::new();
    for &(m, loc, is_lock) in &lock_sites {
        let (sources, precision) = rs.sources(m, loc);
        let may: Vec<VarId> = mutex_objects(program, sources);
        let must = match (sources, precision) {
            ([(Source::Addr(o), _)], Precision::Fscs)
                if !program.var(*o).kind().is_synthetic_object() =>
            {
                Some(*o)
            }
            _ => None,
        };
        ops.insert(
            loc,
            LockOp {
                is_lock,
                must,
                may,
                precision,
            },
        );
    }

    let states = lockset_fixpoint(session, esc, &ops);
    let lockstate_at = |loc: Loc| -> LockState {
        states
            .get(loc.func.index())
            .and_then(|f| f.get(loc.stmt as usize))
            .and_then(|s| s.clone())
            .unwrap_or_else(LockState::empty)
    };

    // Shared-memory accesses: dereferences resolved to escaped objects,
    // plus direct reads/writes of escaped globals.
    let mut accesses: Vec<Access> = Vec::new();
    let push_direct = |accesses: &mut Vec<Access>, v: VarId, loc: Loc, write: bool| {
        if matches!(program.var(v).kind(), VarKind::Global) && esc.escapes(v) {
            let st = lockstate_at(loc);
            accesses.push(Access {
                loc,
                write,
                var: v,
                objs: vec![v],
                must: st.must,
                may: st.may,
                precision: st.precision,
            });
        }
    };
    let push_deref =
        |accesses: &mut Vec<Access>, rs: &mut Resolver<'_, '_>, p: VarId, loc: Loc, write: bool| {
            let (sources, precision) = rs.sources(p, loc);
            let objs: Vec<VarId> = sources
                .iter()
                .filter_map(|(s, _)| match s {
                    Source::Addr(o)
                        if !program.var(*o).kind().is_synthetic_object() && esc.escapes(*o) =>
                    {
                        Some(*o)
                    }
                    _ => None,
                })
                .collect();
            if objs.is_empty() {
                return;
            }
            let st = lockstate_at(loc);
            accesses.push(Access {
                loc,
                write,
                var: p,
                objs,
                must: st.must,
                may: st.may,
                precision: precision.max(st.precision),
            });
        };
    for f in program.functions() {
        if esc.threads_of(f.entry().func).is_empty() {
            continue;
        }
        for (loc, s) in f.locs() {
            match s {
                Stmt::Load { dst, src } => {
                    push_deref(&mut accesses, rs, *src, loc, false);
                    push_direct(&mut accesses, *dst, loc, true);
                }
                Stmt::Store { dst, src } => {
                    push_deref(&mut accesses, rs, *dst, loc, true);
                    push_direct(&mut accesses, *src, loc, false);
                }
                // Deallocation is a write to the pointed-to object.
                Stmt::Free { dst } => {
                    push_deref(&mut accesses, rs, *dst, loc, true);
                    push_direct(&mut accesses, *dst, loc, true);
                }
                Stmt::Copy { dst, src } => {
                    push_direct(&mut accesses, *dst, loc, true);
                    push_direct(&mut accesses, *src, loc, false);
                }
                Stmt::AddrOf { dst, .. } | Stmt::Null { dst } => {
                    push_direct(&mut accesses, *dst, loc, true);
                }
                _ => {}
            }
        }
    }
    let sites = accesses.len() + lock_sites.len();

    // Pair accesses per shared object.
    let mut by_obj: BTreeMap<VarId, Vec<usize>> = BTreeMap::new();
    for (i, a) in accesses.iter().enumerate() {
        for &o in &a.objs {
            by_obj.entry(o).or_default().push(i);
        }
    }
    let mut findings: Vec<Finding> = Vec::new();
    let mut seen: HashSet<(Loc, Loc, VarId)> = HashSet::new();
    for (obj, idxs) in &by_obj {
        for (pi, &i) in idxs.iter().enumerate() {
            for &j in &idxs[pi..] {
                let (a, b) = (&accesses[i], &accesses[j]);
                if !(a.write || b.write) {
                    continue;
                }
                if i == j && !a.write {
                    continue;
                }
                if !esc.may_run_concurrently(a.loc.func, b.loc.func) {
                    continue;
                }
                // A lock provably held at both sites serializes the pair.
                if a.must.intersection(&b.must).next().is_some() {
                    continue;
                }
                let (a, b) = if (b.loc, b.var) < (a.loc, a.var) {
                    (b, a)
                } else {
                    (a, b)
                };
                if !seen.insert((a.loc, b.loc, *obj)) {
                    continue;
                }
                findings.push(race_finding(program, *obj, a, b));
            }
        }
    }
    (findings, sites, queries)
}

/// The mutex objects among a resolution's sources (escaped or not: a lock
/// serializes regardless of where the mutex lives).
fn mutex_objects(program: &Program, sources: &[(Source, Cond)]) -> Vec<VarId> {
    let mut out: Vec<VarId> = sources
        .iter()
        .filter_map(|(s, _)| match s {
            Source::Addr(o) if !program.var(*o).kind().is_synthetic_object() => Some(*o),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Flow-sensitive lockset states for every function reachable from a
/// thread, indexed `[func][stmt]` (`None` = statement unreached).
fn lockset_fixpoint(
    session: &Session<'_>,
    esc: &EscapeResult,
    ops: &HashMap<Loc, LockOp>,
) -> Vec<Vec<Option<LockState>>> {
    let program = session.program();
    let n = program.func_count();
    let mut entries: Vec<Option<LockState>> = vec![None; n];
    // Thread entry points (main and every spawn target) start with no
    // locks held: a new thread inherits nothing from its spawner.
    for t in esc.threads() {
        meet_into(&mut entries[t.entry.index()], &LockState::empty());
    }
    let mut states: Vec<Vec<Option<LockState>>> = vec![Vec::new(); n];
    loop {
        let mut changed = false;
        for f in program.functions() {
            let fid = f.entry().func;
            let Some(entry) = entries[fid.index()].clone() else {
                continue;
            };
            let inp = flow_function(f, &entry, ops);
            // Propagate the lockset held at each call site into the
            // callee's entry (spawn edges excluded: handled above).
            for (loc, s) in f.locs() {
                let Stmt::Call(c) = s else { continue };
                let Some(at) = inp[loc.stmt as usize].as_ref() else {
                    continue;
                };
                let targets: Vec<_> = match c.target {
                    CallTarget::Direct(g) => vec![g],
                    CallTarget::Indirect(p) => session
                        .steens()
                        .points_to_vars(p)
                        .iter()
                        .filter_map(|&o| match program.var(o).kind() {
                            VarKind::FuncObj(g) => Some(*g),
                            _ => None,
                        })
                        .collect(),
                };
                for g in targets {
                    changed |= meet_into(&mut entries[g.index()], at);
                }
            }
            states[fid.index()] = inp;
        }
        if !changed {
            return states;
        }
    }
}

/// Forward must/may lockset flow over one function body.
fn flow_function(
    f: &Function,
    entry: &LockState,
    ops: &HashMap<Loc, LockOp>,
) -> Vec<Option<LockState>> {
    let n = f.body().len();
    let mut inp: Vec<Option<LockState>> = vec![None; n];
    inp[0] = Some(entry.clone());
    let mut work: Vec<u32> = vec![0];
    while let Some(s) = work.pop() {
        let Some(state) = inp[s as usize].clone() else {
            continue;
        };
        let out = transfer(&state, ops.get(&Loc::new(f.entry().func, s)));
        for &t in f.succs(s) {
            if meet_into(&mut inp[t as usize], &out) {
                work.push(t);
            }
        }
    }
    inp
}

fn race_finding(program: &Program, obj: VarId, a: &Access, b: &Access) -> Finding {
    let object = program.var(obj).name().to_string();
    let verb = |x: &Access| if x.write { "write" } else { "read" };
    let same_site = a.loc == b.loc && a.var == b.var;
    let message = if same_site {
        format!(
            "concurrent executions of {} both {} `{}`; locks held: {}",
            site_label(program, a.loc),
            verb(a),
            object,
            render_lockset(program, &a.must, &a.may),
        )
    } else {
        format!(
            "{} of `{}` races with {} at {}; locks held: {} / {}",
            verb(a),
            object,
            verb(b),
            site_label(program, b.loc),
            render_lockset(program, &a.must, &a.may),
            render_lockset(program, &b.must, &b.may),
        )
    };
    let precision = a.precision.max(b.precision);
    // Unconditional only when neither side holds any candidate lock and
    // the facts are full-precision; partial or degraded protection is a
    // may-race.
    let severity = if a.may.is_empty() && b.may.is_empty() && precision == Precision::Fscs {
        Severity::Error
    } else {
        Severity::Warning
    };
    Finding {
        checker: CheckerKind::Race,
        severity,
        func: program.func(a.loc.func).name().to_string(),
        loc: a.loc,
        line: program.line_of(a.loc),
        var: program.var(a.var).name().to_string(),
        object: Some(object),
        message,
        precision,
    }
}

/// Renders a lockset: proven (must) locks plainly, may-only candidates
/// with a `?` suffix. `{}` when no lock is held.
fn render_lockset(program: &Program, must: &BTreeSet<VarId>, may: &BTreeSet<VarId>) -> String {
    let mut names: Vec<String> = must
        .iter()
        .map(|&m| program.var(m).name().to_string())
        .collect();
    names.extend(
        may.iter()
            .filter(|m| !must.contains(m))
            .map(|&m| format!("{}?", program.var(m).name())),
    );
    names.sort();
    format!("{{{}}}", names.join(", "))
}
