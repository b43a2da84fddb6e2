//! Hash-consing arena for engine conditions and dead-variable sets.
//!
//! The backward walk of [`crate::engine::ClusterEngine`] is dominated by
//! allocation: every worklist push and every processed-set probe deep-clones
//! a [`Cond`] (a sorted `Vec<Atom>`) and a dead-variable set. The arena
//! hash-conses both into `u32` ids — equal ids if and only if structurally
//! equal values — so worklist items become small `Copy` tuples, the
//! processed set hashes four integers, and the conjunction operators of
//! Definition 8 are memoized per `(id, operand)` pair instead of being
//! re-derived (and re-allocated) on every edge.
//!
//! One arena is shared by every analyzer of a session (like the FSCI
//! cache): tables sit behind [`parking_lot::RwLock`]s and the hit/miss
//! counters are atomics, so LPT workers reuse each other's conjunction
//! results. Ids are assigned first-come, which means id *values* depend on
//! thread interleaving — everything observable resolves ids back to
//! structural values (or sorts structurally) before leaving the engine.
//!
//! The widening cap (the session's `cond_cap`) is fixed at construction so
//! memo keys do not need to carry it; engines reject a shared arena whose
//! cap differs from their own and fall back to a private one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bootstrap_ir::{Program, VarId};
use bootstrap_store::FxBuildHasher;
use parking_lot::RwLock;

use crate::constraint::{Atom, Cond};

/// The arena ran out of ids: interning one more distinct value would
/// exceed the table's id capacity (at most `u32::MAX` values, or the lower
/// limit set via [`Interner::with_max_ids`]).
///
/// Allocating arena operations return this instead of silently wrapping
/// ids — a wrapped id would alias slot 0 (⊤ / the empty dead set) and
/// make the engine unsound. Callers treat it like budget exhaustion: the
/// partial analysis is discarded as `Outcome::TimedOut`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaFull;

impl std::fmt::Display for ArenaFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("interning arena is full: id capacity exhausted")
    }
}

impl std::error::Error for ArenaFull {}

/// Interned id of a [`Cond`]: equal ids ⟺ structurally equal conditions
/// within one arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CondId(u32);

impl CondId {
    /// The id of [`Cond::top`] — slot 0 in every arena.
    pub const TOP: CondId = CondId(0);

    /// Returns `true` for the unconstrained, unwidened condition.
    pub fn is_top(self) -> bool {
        self.0 == 0
    }
}

/// Interned id of a dead-variable set (see `DeadVars`): equal ids ⟺ equal
/// sets within one arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeadId(u32);

impl DeadId {
    /// The id of the empty dead set — slot 0 in every arena.
    pub const EMPTY: DeadId = DeadId(0);
}

/// Branch variables whose definition the backward walk has crossed: path
/// literals on them refer to an *older* value than the query point sees,
/// so the walk must stop collecting them (crossing a call kills all
/// globals — the callee may write them).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct DeadVars {
    pub(crate) vars: Vec<VarId>,
    pub(crate) globals: bool,
}

impl DeadVars {
    pub(crate) fn is_dead(&self, v: VarId, program: &Program) -> bool {
        (self.globals && program.var(v).kind().owner().is_none())
            || self.vars.binary_search(&v).is_ok()
    }

    #[must_use]
    pub(crate) fn kill(&self, v: VarId) -> DeadVars {
        match self.vars.binary_search(&v) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut d = self.clone();
                d.vars.insert(pos, v);
                d
            }
        }
    }

    #[must_use]
    pub(crate) fn kill_globals(&self) -> DeadVars {
        let mut d = self.clone();
        d.globals = true;
        d
    }
}

/// One hash-consing table: dense id → value storage plus the reverse map.
struct Table<T> {
    items: Vec<Arc<T>>,
    ids: HashMap<Arc<T>, u32, FxBuildHasher>,
    /// Distinct values this table may hold; interning past it is an
    /// [`ArenaFull`] error rather than an id wrap.
    max_ids: u32,
}

impl<T: Eq + std::hash::Hash> Table<T> {
    fn with_zero(zero: T, max_ids: u32) -> Self {
        let mut t = Table {
            items: Vec::new(),
            ids: HashMap::default(),
            max_ids,
        };
        t.intern(zero).expect("capacity admits the zero slot");
        t
    }

    fn intern(&mut self, value: T) -> Result<u32, ArenaFull> {
        if let Some(&id) = self.ids.get(&value) {
            return Ok(id);
        }
        if self.items.len() >= self.max_ids as usize {
            return Err(ArenaFull);
        }
        let id = self.items.len() as u32;
        let value = Arc::new(value);
        self.items.push(Arc::clone(&value));
        self.ids.insert(value, id);
        Ok(id)
    }

    fn get(&self, id: u32) -> Arc<T> {
        Arc::clone(&self.items[id as usize])
    }
}

/// Counters of the interning arena (monotonic over the session lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Distinct conditions interned.
    pub conds: usize,
    /// Distinct dead-variable sets interned.
    pub deads: usize,
    /// Entries across all memo tables (conjunction, simplification, kill).
    pub memo_entries: usize,
    /// Memoized-operation lookups answered from a memo table. Each hit is
    /// a conjunction/simplification (and its allocations) not re-derived.
    pub hits: u64,
    /// Memoized-operation lookups that computed a fresh result.
    pub misses: u64,
    /// Id capacity of the arena (`u32::MAX` for production arenas).
    /// Occupancy — `conds`/`deads` against this — shows how close the
    /// arena is to [`ArenaFull`], e.g. after a store splice re-interns a
    /// cached cluster's conditions.
    pub max_ids: u32,
}

/// The thread-safe hash-consing arena: intern tables for [`Cond`] and dead
/// sets plus memo tables for the engine's condition operators.
pub struct Interner {
    /// The widening cap every memoized conjunction uses (fixed per arena).
    cap: usize,
    conds: RwLock<Table<Cond>>,
    deads: RwLock<Table<DeadVars>>,
    /// `(cond, atom) → cond ∧ atom`; `None` records a contradiction.
    and_atom: RwLock<HashMap<(u32, Atom), Option<CondId>, FxBuildHasher>>,
    /// `(cond, cond) → conjunction`; `None` records a contradiction.
    and_cond: RwLock<HashMap<(u32, u32), Option<CondId>, FxBuildHasher>>,
    /// `cond → cond` with path literals removed.
    drop_branch: RwLock<HashMap<u32, CondId, FxBuildHasher>>,
    /// `(dead, var) → dead ∪ {var}`.
    kills: RwLock<HashMap<(u32, u32), DeadId, FxBuildHasher>>,
    /// `dead → dead` with the globals flag set.
    kill_globals: RwLock<HashMap<u32, DeadId, FxBuildHasher>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Interner {
    /// An arena whose memoized conjunctions widen at `cap` atoms.
    pub fn new(cap: usize) -> Self {
        Self::with_max_ids(cap, u32::MAX)
    }

    /// Like [`Interner::new`] but holding at most `max_ids` distinct
    /// conditions (and dead sets); interning past that returns
    /// [`ArenaFull`]. The production arenas use the full `u32` id space —
    /// this constructor exists so tests can exercise the capacity path
    /// without interning four billion values.
    ///
    /// # Panics
    ///
    /// Panics if `max_ids` is zero (slot 0 is reserved for ⊤ / the empty
    /// dead set in every arena).
    pub fn with_max_ids(cap: usize, max_ids: u32) -> Self {
        assert!(max_ids >= 1, "slot 0 is reserved");
        Self {
            cap,
            conds: RwLock::new(Table::with_zero(Cond::top(), max_ids)),
            deads: RwLock::new(Table::with_zero(DeadVars::default(), max_ids)),
            and_atom: RwLock::new(HashMap::default()),
            and_cond: RwLock::new(HashMap::default()),
            drop_branch: RwLock::new(HashMap::default()),
            kills: RwLock::new(HashMap::default()),
            kill_globals: RwLock::new(HashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The widening cap this arena's memoized conjunctions use.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The id capacity this arena was built with (`u32::MAX` for
    /// production arenas). The cluster drivers read it to retry an
    /// arena-full cluster with a doubled-capacity arena.
    pub fn max_ids(&self) -> u32 {
        self.conds.read().max_ids
    }

    /// A snapshot of the table sizes and hit/miss counters.
    pub fn stats(&self) -> InternerStats {
        InternerStats {
            conds: self.conds.read().items.len(),
            deads: self.deads.read().items.len(),
            memo_entries: self.and_atom.read().len()
                + self.and_cond.read().len()
                + self.drop_branch.read().len()
                + self.kills.read().len()
                + self.kill_globals.read().len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            max_ids: self.max_ids(),
        }
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Interns `cond`, returning its canonical id.
    pub(crate) fn cond(&self, cond: &Cond) -> Result<CondId, ArenaFull> {
        if cond.is_top() && !cond.is_widened() {
            return Ok(CondId::TOP);
        }
        if let Some(&id) = self.conds.read().ids.get(cond) {
            return Ok(CondId(id));
        }
        Ok(CondId(self.conds.write().intern(cond.clone())?))
    }

    fn intern_cond(&self, cond: Cond) -> Result<CondId, ArenaFull> {
        if cond.is_top() && !cond.is_widened() {
            return Ok(CondId::TOP);
        }
        Ok(CondId(self.conds.write().intern(cond)?))
    }

    /// The condition behind `id`.
    pub(crate) fn resolve(&self, id: CondId) -> Arc<Cond> {
        self.conds.read().get(id.0)
    }

    /// `true` if `id` denotes an unconstrained conjunction (including the
    /// widened-to-empty edge case a cap of zero produces).
    pub(crate) fn cond_is_top(&self, id: CondId) -> bool {
        id.is_top() || self.resolve(id).is_top()
    }

    /// Interns a dead-variable set.
    pub(crate) fn dead(&self, dead: &DeadVars) -> Result<DeadId, ArenaFull> {
        if dead.vars.is_empty() && !dead.globals {
            return Ok(DeadId::EMPTY);
        }
        if let Some(&id) = self.deads.read().ids.get(dead) {
            return Ok(DeadId(id));
        }
        Ok(DeadId(self.deads.write().intern(dead.clone())?))
    }

    /// The dead set behind `id`.
    pub(crate) fn resolve_dead(&self, id: DeadId) -> Arc<DeadVars> {
        self.deads.read().get(id.0)
    }

    /// Memoized [`Cond::and`] under the arena cap; `Ok(None)` on
    /// contradiction. A full arena is an error, never memoized — retrying
    /// against a larger arena would succeed.
    pub(crate) fn and_atom(&self, c: CondId, atom: Atom) -> Result<Option<CondId>, ArenaFull> {
        let key = (c.0, atom);
        if let Some(&r) = self.and_atom.read().get(&key) {
            self.hit();
            return Ok(r);
        }
        self.miss();
        let r = match self.resolve(c).and(atom, self.cap) {
            Some(nc) => Some(self.intern_cond(nc)?),
            None => None,
        };
        self.and_atom.write().insert(key, r);
        Ok(r)
    }

    /// Memoized [`Cond::and_cond`] under the arena cap; `Ok(None)` on
    /// contradiction.
    pub(crate) fn and_cond(&self, a: CondId, b: CondId) -> Result<Option<CondId>, ArenaFull> {
        if a.is_top() {
            return Ok(Some(b));
        }
        if b.is_top() {
            return Ok(Some(a));
        }
        let key = (a.0, b.0);
        if let Some(&r) = self.and_cond.read().get(&key) {
            self.hit();
            return Ok(r);
        }
        self.miss();
        let r = match self.resolve(a).and_cond(&self.resolve(b), self.cap) {
            Some(nc) => Some(self.intern_cond(nc)?),
            None => None,
        };
        self.and_cond.write().insert(key, r);
        Ok(r)
    }

    /// Memoized [`Cond::drop_branch_atoms`].
    pub(crate) fn drop_branch(&self, c: CondId) -> Result<CondId, ArenaFull> {
        if c.is_top() {
            return Ok(c);
        }
        if let Some(&r) = self.drop_branch.read().get(&c.0) {
            self.hit();
            return Ok(r);
        }
        self.miss();
        let r = self.intern_cond(self.resolve(c).drop_branch_atoms())?;
        self.drop_branch.write().insert(c.0, r);
        Ok(r)
    }

    /// Memoized `DeadVars::kill`.
    pub(crate) fn kill(&self, d: DeadId, v: VarId) -> Result<DeadId, ArenaFull> {
        let key = (d.0, v.index() as u32);
        if let Some(&r) = self.kills.read().get(&key) {
            self.hit();
            return Ok(r);
        }
        self.miss();
        let cur = self.resolve_dead(d);
        // Already-dead vars are common on cyclic walks: short-circuit to
        // the same id without cloning or re-hashing the whole set.
        let r = match cur.vars.binary_search(&v) {
            Ok(_) => d,
            Err(_) => self.dead(&cur.kill(v))?,
        };
        self.kills.write().insert(key, r);
        Ok(r)
    }

    /// Memoized `DeadVars::kill_globals`.
    pub(crate) fn kill_globals(&self, d: DeadId) -> Result<DeadId, ArenaFull> {
        if let Some(&r) = self.kill_globals.read().get(&d.0) {
            self.hit();
            return Ok(r);
        }
        self.miss();
        let cur = self.resolve_dead(d);
        let r = if cur.globals {
            d
        } else {
            self.dead(&cur.kill_globals())?
        };
        self.kill_globals.write().insert(d.0, r);
        Ok(r)
    }
}

impl Default for Interner {
    fn default() -> Self {
        Self::new(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootstrap_ir::{FuncId, Loc};

    fn pt(l: u32, p: usize, o: usize) -> Atom {
        Atom::PointsTo {
            loc: Loc::new(FuncId::new(0), l),
            ptr: VarId::new(p),
            obj: VarId::new(o),
        }
    }

    #[test]
    fn top_and_empty_are_slot_zero() {
        let arena = Interner::new(8);
        assert_eq!(arena.cond(&Cond::top()), Ok(CondId::TOP));
        assert_eq!(arena.dead(&DeadVars::default()), Ok(DeadId::EMPTY));
        assert!(arena.cond_is_top(CondId::TOP));
        assert!(arena.resolve(CondId::TOP).is_top());
    }

    #[test]
    fn equal_conds_get_equal_ids() {
        let arena = Interner::new(8);
        let c1 = Cond::top().and(pt(1, 0, 1), 8).unwrap();
        let c2 = Cond::top().and(pt(1, 0, 1), 8).unwrap();
        let id1 = arena.cond(&c1).unwrap();
        let id2 = arena.cond(&c2).unwrap();
        assert_eq!(id1, id2);
        assert_ne!(id1, CondId::TOP);
        assert_eq!(*arena.resolve(id1), c1);
    }

    #[test]
    fn and_atom_matches_structural_and_memoizes() {
        let arena = Interner::new(8);
        let base = arena.and_atom(CondId::TOP, pt(1, 0, 1)).unwrap().unwrap();
        // Same op again: a memo hit, same id.
        let again = arena.and_atom(CondId::TOP, pt(1, 0, 1)).unwrap().unwrap();
        assert_eq!(base, again);
        let stats = arena.stats();
        assert!(stats.hits >= 1, "second and_atom should hit: {stats:?}");
        // Contradiction is memoized as None.
        assert_eq!(arena.and_atom(base, pt(1, 0, 1).negated()), Ok(None));
        assert_eq!(arena.and_atom(base, pt(1, 0, 1).negated()), Ok(None));
        // Structural agreement with Cond::and.
        let structural = Cond::top().and(pt(1, 0, 1), 8).unwrap();
        assert_eq!(*arena.resolve(base), structural);
    }

    #[test]
    fn and_cond_top_short_circuits() {
        let arena = Interner::new(8);
        let c = arena.and_atom(CondId::TOP, pt(2, 1, 2)).unwrap().unwrap();
        assert_eq!(arena.and_cond(CondId::TOP, c), Ok(Some(c)));
        assert_eq!(arena.and_cond(c, CondId::TOP), Ok(Some(c)));
        let d = arena.and_atom(CondId::TOP, pt(3, 1, 2)).unwrap().unwrap();
        let both = arena.and_cond(c, d).unwrap().unwrap();
        assert_eq!(arena.resolve(both).atoms().len(), 2);
    }

    #[test]
    fn widening_respects_arena_cap() {
        let arena = Interner::new(2);
        let mut c = CondId::TOP;
        for i in 0..5 {
            c = arena
                .and_atom(c, pt(i, i as usize, i as usize + 1))
                .unwrap()
                .unwrap();
        }
        let resolved = arena.resolve(c);
        assert_eq!(resolved.atoms().len(), 2);
        assert!(resolved.is_widened());
        assert!(!arena.cond_is_top(c));
    }

    #[test]
    fn drop_branch_strips_literals() {
        let arena = Interner::new(8);
        let lit = Atom::BranchTrue { var: VarId::new(3) };
        let c = arena.and_atom(CondId::TOP, lit).unwrap().unwrap();
        let mixed = arena.and_atom(c, pt(1, 0, 1)).unwrap().unwrap();
        let stripped = arena.drop_branch(mixed).unwrap();
        assert_eq!(arena.resolve(stripped).atoms(), &[pt(1, 0, 1)]);
        // Pure-literal conds strip to top.
        assert!(arena.cond_is_top(arena.drop_branch(c).unwrap()));
    }

    #[test]
    fn kill_builds_canonical_dead_sets() {
        let arena = Interner::new(8);
        let a = arena.kill(DeadId::EMPTY, VarId::new(2)).unwrap();
        let b = arena.kill(a, VarId::new(1)).unwrap();
        let c = arena
            .kill(
                arena.kill(DeadId::EMPTY, VarId::new(2)).unwrap(),
                VarId::new(1),
            )
            .unwrap();
        assert_eq!(b, c, "insertion order does not matter");
        // Killing an already-dead var is the identity.
        assert_eq!(arena.kill(b, VarId::new(2)), Ok(b));
        let g = arena.kill_globals(b).unwrap();
        assert!(arena.resolve_dead(g).globals);
        assert_eq!(arena.kill_globals(b), Ok(g));
    }

    #[test]
    fn arena_overflow_returns_capacity_error() {
        // Capacity 3: slot 0 is ⊤, leaving room for two distinct conds.
        let arena = Interner::with_max_ids(8, 3);
        let a = arena.and_atom(CondId::TOP, pt(1, 0, 1)).unwrap().unwrap();
        let b = arena.and_atom(CondId::TOP, pt(2, 0, 2)).unwrap().unwrap();
        assert_ne!(a, b);
        // Re-interning existing values still succeeds at capacity.
        assert_eq!(arena.and_atom(CondId::TOP, pt(1, 0, 1)), Ok(Some(a)));
        let c1 = Cond::top().and(pt(1, 0, 1), 8).unwrap();
        assert_eq!(arena.cond(&c1), Ok(a));
        // A third distinct cond overflows: an error, not a wrapped id.
        assert_eq!(arena.and_atom(CondId::TOP, pt(3, 0, 3)), Err(ArenaFull));
        assert_eq!(arena.and_atom(a, pt(2, 0, 2)), Err(ArenaFull));
        // The dead-set table is capped independently: ids 1 and 2 fit,
        // the third distinct set errors.
        let d1 = arena.kill(DeadId::EMPTY, VarId::new(1)).unwrap();
        let d2 = arena.kill(d1, VarId::new(2)).unwrap();
        assert_ne!(d1, d2);
        assert_eq!(arena.kill(d1, VarId::new(3)), Err(ArenaFull));
        // Overflow is not memoized: the same op against a roomier arena
        // succeeds.
        let roomy = Interner::new(8);
        assert!(roomy.and_atom(CondId::TOP, pt(3, 0, 3)).is_ok());
        // Stats still reflect only the successful interns, and report the
        // capacity so occupancy is observable.
        assert_eq!(arena.stats().conds, 3);
        assert_eq!(arena.stats().deads, 3);
        assert_eq!(arena.stats().max_ids, 3);
        assert_eq!(roomy.stats().max_ids, u32::MAX);
    }

    #[test]
    fn shared_across_threads() {
        let arena = Interner::new(8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let arena = &arena;
                scope.spawn(move || {
                    for i in 0..32 {
                        let id = arena
                            .and_atom(CondId::TOP, pt(i, t, i as usize))
                            .unwrap()
                            .unwrap();
                        assert_eq!(
                            arena.and_atom(CondId::TOP, pt(i, t, i as usize)),
                            Ok(Some(id))
                        );
                    }
                });
            }
        });
        let stats = arena.stats();
        assert_eq!(stats.conds, 1 + 4 * 32);
        assert!(stats.hits >= 4 * 32);
    }
}
