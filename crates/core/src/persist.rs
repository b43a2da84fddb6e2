//! Bridge between a [`Session`] and the content-addressed persistent
//! store (`bootstrap-store`): function digests, key derivation, the
//! payload codec, and the consult/publish protocol (DESIGN.md §12).
//!
//! The store crate owns the on-disk envelope; this module owns what goes
//! inside it and how it is keyed:
//!
//! * **Key** — fxhash of (format version, result-affecting options, the
//!   cluster's sorted member names, the sorted [`Digests`] of the
//!   functions its relevant slice touches). Editing any of those
//!   functions moves the key, so stale entries are simply never found.
//! * **Payload** — name tables (IR variable and function names are
//!   globally unique mangled strings, e.g. `func::name`, `heap@func:3`,
//!   `&func`, so a name is a position-independent reference) followed by
//!   the cluster's summary tuples, its recorded FSCS query answers, and
//!   the FSCI oracle results over its slice. Conditions are stored
//!   structurally and re-interned on load — the `CondId` remap.
//! * **Gate** — summaries consult the cross-partition FSCI oracle during
//!   their fixpoint, so the payload is only valid for the exact program
//!   it was computed from. Loads are gated on the whole-program hash
//!   recorded in the envelope; per-cluster keys still give eviction and
//!   corruption isolation at cluster granularity.
//!
//! Every failure past the envelope (program-hash mismatch, undecodable
//! payload, a name that no longer resolves) demotes the hit to an
//! invalidation and falls back to a recompute — the store can cost time,
//! never an answer.

use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::sync::Arc;

use bootstrap_ir::{display::stmt_to_string, FuncId, Function, Loc, Program, VarId};
use bootstrap_store::codec::{Reader, Writer};
use bootstrap_store::{FxHasher64, LoadOutcome, Store, StoreConfig, StoreCounters, FORMAT_VERSION};
use parking_lot::RwLock;

use crate::constraint::{Atom, Cond};
use crate::degrade::FaultPhase;
use crate::engine::ClusterEngine;
use crate::session::{Config, QueryRecord, Session};
use crate::summary::{Source, SummaryKey, Value};

/// The session-side face of the persistent store: one per session,
/// shared (behind `&Session`) by every analyzer and worker thread.
pub(crate) struct ClusterStore {
    store: Store,
    options_hash: u64,
    /// Keys installed warm this run. A warm engine's recorded artifacts
    /// are a subset of the cold ones (queries answered from the store
    /// are not re-recorded), so publishing them back would shrink the
    /// entry; hits are therefore never re-published.
    hit_keys: RwLock<HashSet<u64>>,
    /// A store-phase fault is armed: every consult treats its entry as
    /// corrupt without reading it, forcing the recompute-and-overwrite
    /// path the fuzz matrix checks.
    faulted: bool,
    /// Cross-epoch adoption: when the incremental differ proves a set of
    /// alias partitions unchanged between the previous program epoch and
    /// this one, entries recorded under the previous whole-program hash
    /// are accepted for clusters wholly inside that clean set.
    adoption: RwLock<Option<Adoption>>,
}

/// Proof, from the incremental partition differ, that entries written
/// under `prev_program_hash` are still valid for clusters whose members
/// all live in `clean` partitions (cluster independence: a cluster's
/// summaries only consult facts inside its own relevant slice, and a
/// clean fingerprint pins that slice byte-for-byte).
pub(crate) struct Adoption {
    pub(crate) prev_program_hash: u64,
    pub(crate) clean: HashSet<bootstrap_analyses::ClassId>,
}

impl ClusterStore {
    /// Opens the session's store. `None` (persistence disabled) when the
    /// directory cannot be opened: a missing cache may cost time, never
    /// a run.
    pub(crate) fn open(sc: StoreConfig, config: &Config) -> Option<Self> {
        let store = Store::open(sc).ok()?;
        // Phase-only match (ignoring any cluster scope): store consults
        // have no stable cluster slot to scope by.
        let faulted = config
            .fault_plan
            .is_some_and(|p| p.phase == FaultPhase::Store);
        Some(ClusterStore {
            store,
            options_hash: options_hash(config),
            hit_keys: RwLock::new(HashSet::new()),
            faulted,
            adoption: RwLock::new(None),
        })
    }

    /// Arms cross-epoch adoption (see [`Adoption`]). Replaces any earlier
    /// grant: each edit epoch re-derives its clean set from scratch.
    pub(crate) fn adopt(&self, adoption: Adoption) {
        *self.adoption.write() = Some(adoption);
    }

    /// This opening's hit/miss/invalidated counters.
    pub(crate) fn counters(&self) -> StoreCounters {
        self.store.counters()
    }

    /// The content address of one cluster's artifacts, or `None` when a
    /// member name fails to round-trip through the program's name table
    /// (never the case for parsed or builder-made programs — names are
    /// mangled to be unique — but cheap to verify instead of trust).
    fn cluster_key(&self, session: &Session<'_>, engine: &ClusterEngine) -> Option<u64> {
        let program = session.program();
        let members = engine.members();
        if members
            .iter()
            .any(|&m| program.var_named(program.var(m).name()) != Some(m))
        {
            return None;
        }
        let mut h = FxHasher64::default();
        h.write_u64(u64::from(FORMAT_VERSION));
        h.write_u64(self.options_hash);
        write_names(&mut h, program, members);
        session
            .digests()
            .write_sorted(&mut h, engine.relevant().funcs());
        Some(h.finish())
    }

    /// Consults the store for a freshly built engine, splicing any valid
    /// entry into it (summaries), the session (query answers), and the
    /// shared FSCI cache. Called by the analyzer right after Algorithm 1
    /// builds the slice, before any solving.
    pub(crate) fn consult(&self, session: &Session<'_>, engine: &mut ClusterEngine) {
        let Some(key) = self.cluster_key(session, engine) else {
            return;
        };
        if self.faulted {
            self.store.probe_invalidated(key);
            return;
        }
        let (payload, entry_program_hash) = match self.store.load(key, self.options_hash) {
            LoadOutcome::Hit {
                payload,
                program_hash,
            } => (payload, program_hash),
            LoadOutcome::Miss | LoadOutcome::Invalidated => return,
        };
        let program_hash = session.program_content_hash();
        let mut adopted = false;
        if entry_program_hash != program_hash {
            // A content-equal slice from a different program: the
            // summaries may have consulted FSCI facts that no longer
            // hold — unless the incremental differ proved every partition
            // this cluster touches unchanged since that exact epoch.
            if self.may_adopt(session, engine, entry_program_hash) {
                adopted = true;
            } else {
                self.store.demote_hit();
                return;
            }
        }
        let Some(entry) = decode_payload(&payload, session.program()) else {
            self.store.demote_hit();
            return;
        };
        for (skey, tuples) in &entry.summaries {
            if engine.install_summary(*skey, tuples).is_err() {
                // Arena full mid-splice. Installed entries are final
                // fixpoint values and stay; the engine computes the rest
                // organically (degrading through the ladder if the arena
                // stays full, exactly as a cold run would).
                break;
            }
        }
        for ((v, loc), sources) in entry.queries {
            session.install_warm_query(v, loc, sources);
        }
        for ((v, loc), pts) in entry.fsci {
            session.fsci_cache().insert(v, loc, pts.map(Arc::new));
        }
        if adopted {
            // Re-home the entry under the current epoch's program hash so
            // the next epoch can chain its own adoption from this one.
            let _ = self
                .store
                .save(key, self.options_hash, program_hash, &payload);
        }
        self.hit_keys.write().insert(key);
    }

    /// `true` when an adoption grant covers this engine: the entry was
    /// written at exactly the granted previous epoch and every member's
    /// alias partition is in the proven-clean set.
    fn may_adopt(
        &self,
        session: &Session<'_>,
        engine: &ClusterEngine,
        entry_program_hash: u64,
    ) -> bool {
        let adoption = self.adoption.read();
        let Some(a) = adoption.as_ref() else {
            return false;
        };
        if entry_program_hash != a.prev_program_hash {
            return false;
        }
        engine
            .members()
            .iter()
            .all(|&m| a.clean.contains(&session.steens().partition_key(m)))
    }

    /// Publishes one clean engine's artifacts (summaries, recorded query
    /// answers over its members, FSCI results over its slice). Skips
    /// keys installed warm this run; overwrites invalidated entries with
    /// the forced recompute's results.
    pub(crate) fn publish(&self, session: &Session<'_>, engine: &ClusterEngine) {
        let Some(key) = self.cluster_key(session, engine) else {
            return;
        };
        if self.hit_keys.read().contains(&key) {
            return;
        }
        let Some(payload) = encode_payload(session, engine) else {
            return;
        };
        let program_hash = session.program_content_hash();
        let _ = self
            .store
            .save(key, self.options_hash, program_hash, &payload);
    }
}

/// The content digests of one program (DESIGN.md §12). A function's
/// digest covers what the walks of Algorithms 2–5 and the §3 branch
/// literals read: its name, parameter names and exit index, and per
/// statement its text, successors and branch variable — not its source
/// line, so a reformat keeps every digest.
pub(crate) struct Digests {
    /// Per function, indexed by [`FuncId`].
    funcs: Vec<u64>,
    /// The whole-program hash: the digests in function order.
    pub(crate) program: u64,
}

impl Digests {
    pub(crate) fn new(program: &Program) -> Self {
        let funcs: Vec<u64> = program
            .functions()
            .map(|f| func_digest(program, f))
            .collect();
        let mut h = FxHasher64::default();
        write_u64s(&mut h, funcs.iter().copied());
        Digests {
            program: h.finish(),
            funcs,
        }
    }

    /// Writes the sorted digests of `funcs` into `h`.
    pub(crate) fn write_sorted(&self, h: &mut FxHasher64, funcs: impl Iterator<Item = FuncId>) {
        let mut digests: Vec<u64> = funcs.map(|f| self.funcs[f.index()]).collect();
        digests.sort_unstable();
        write_u64s(h, digests.into_iter());
    }
}

fn func_digest(program: &Program, func: &Function) -> u64 {
    let mut h = FxHasher64::default();
    hash_str(&mut h, func.name());
    h.write_u64(func.params().len() as u64);
    for &p in func.params() {
        hash_str(&mut h, program.var(p).name());
    }
    h.write_u64(u64::from(func.exit().stmt));
    h.write_u64(func.body().len() as u64);
    for (loc, stmt) in func.locs() {
        hash_str(&mut h, &stmt_to_string(program, stmt));
        let succs = func.succs(loc.stmt).iter();
        write_u64s(&mut h, succs.map(|&s| u64::from(s)));
        // No variable has an empty name.
        let cond = func.branch_cond(loc.stmt);
        hash_str(&mut h, cond.map_or("", |v| program.var(v).name()));
    }
    h.finish()
}

fn write_u64s(h: &mut FxHasher64, xs: impl ExactSizeIterator<Item = u64>) {
    h.write_u64(xs.len() as u64);
    for x in xs {
        h.write_u64(x);
    }
}

/// Writes the sorted, count-prefixed names of `members` into `h`.
pub(crate) fn write_names(h: &mut FxHasher64, program: &Program, members: &[VarId]) {
    let mut names: Vec<&str> = members.iter().map(|&m| program.var(m).name()).collect();
    names.sort_unstable();
    h.write_u64(names.len() as u64);
    for n in names {
        hash_str(h, n);
    }
}

pub(crate) fn hash_str(h: &mut FxHasher64, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

/// Hash of every configuration knob that can change an analysis result.
/// `fault_plan` is deliberately excluded (faults force recomputes through
/// their own path) and so is the store config itself.
fn options_hash(config: &Config) -> u64 {
    let mut h = FxHasher64::default();
    h.write_u64(config.andersen_threshold as u64);
    h.write_u64(config.cond_cap as u64);
    h.write_u64(u64::from(config.alias_on_entry_garbage));
    h.write_u64(u64::from(config.alias_on_null));
    h.write_u64(config.oracle_step_budget);
    h.write_u64(config.query_step_budget);
    h.write_u64(u64::from(config.path_sensitive));
    h.write_u64(u64::from(config.interner_max_ids));
    h.finish()
}

/// Name tables under construction during encoding. Interning verifies the
/// name round-trips through the program's lookup maps — the property the
/// decode side relies on — and refuses the publish otherwise.
struct Names<'p> {
    program: &'p Program,
    vars: Vec<&'p str>,
    var_index: HashMap<VarId, u32>,
    funcs: Vec<&'p str>,
    func_index: HashMap<FuncId, u32>,
}

impl<'p> Names<'p> {
    fn new(program: &'p Program) -> Self {
        Names {
            program,
            vars: Vec::new(),
            var_index: HashMap::new(),
            funcs: Vec::new(),
            func_index: HashMap::new(),
        }
    }

    fn var(&mut self, v: VarId) -> Option<u32> {
        if let Some(&i) = self.var_index.get(&v) {
            return Some(i);
        }
        let name = self.program.var(v).name();
        if self.program.var_named(name) != Some(v) {
            return None;
        }
        let i = self.vars.len() as u32;
        self.vars.push(name);
        self.var_index.insert(v, i);
        Some(i)
    }

    fn func(&mut self, f: FuncId) -> Option<u32> {
        if let Some(&i) = self.func_index.get(&f) {
            return Some(i);
        }
        let name = self.program.func(f).name();
        if self.program.func_named(name) != Some(f) {
            return None;
        }
        let i = self.funcs.len() as u32;
        self.funcs.push(name);
        self.func_index.insert(f, i);
        Some(i)
    }

    fn loc(&mut self, w: &mut Writer, loc: Loc) -> Option<()> {
        let f = self.func(loc.func)?;
        w.u32(f);
        w.u32(loc.stmt);
        Some(())
    }

    fn cond(&mut self, w: &mut Writer, c: &Cond) -> Option<()> {
        w.u8(u8::from(c.is_widened()));
        w.u32(c.atoms().len() as u32);
        for &atom in c.atoms() {
            match atom {
                Atom::PointsTo { loc, ptr, obj } => {
                    w.u8(0);
                    self.loc(w, loc)?;
                    w.u32(self.var(ptr)?);
                    w.u32(self.var(obj)?);
                }
                Atom::NotPointsTo { loc, ptr, obj } => {
                    w.u8(1);
                    self.loc(w, loc)?;
                    w.u32(self.var(ptr)?);
                    w.u32(self.var(obj)?);
                }
                Atom::Eq { loc, a, b } => {
                    w.u8(2);
                    self.loc(w, loc)?;
                    w.u32(self.var(a)?);
                    w.u32(self.var(b)?);
                }
                Atom::NotEq { loc, a, b } => {
                    w.u8(3);
                    self.loc(w, loc)?;
                    w.u32(self.var(a)?);
                    w.u32(self.var(b)?);
                }
                Atom::BranchTrue { var } => {
                    w.u8(4);
                    w.u32(self.var(var)?);
                }
                Atom::BranchFalse { var } => {
                    w.u8(5);
                    w.u32(self.var(var)?);
                }
            }
        }
        Some(())
    }
}

/// Encodes a clean engine's artifacts. `None` when some referenced name
/// does not round-trip (the cluster is then simply not cached).
///
/// Layout — all integers little-endian, all sections count-prefixed:
///
/// ```text
/// var names | func names | summaries | queries | fsci
/// ```
///
/// The record sections are encoded into a scratch buffer first (interning
/// names on the fly, in record order, so the table is deterministic) and
/// appended after the finished tables, keeping decode single-pass.
fn encode_payload(session: &Session<'_>, engine: &ClusterEngine) -> Option<Vec<u8>> {
    let program = session.program();
    let mut names = Names::new(program);

    let summaries = engine.summary_snapshot();
    let members: HashSet<VarId> = engine.members().iter().copied().collect();
    let queries: Vec<QueryRecord> = session
        .pending_queries_snapshot()
        .into_iter()
        .filter(|((v, _), _)| members.contains(v))
        .collect();
    let slice_vars: HashSet<VarId> = engine.relevant().vars().collect();
    let fsci: Vec<FsciRecord> = session
        .fsci_cache()
        .snapshot()
        .into_iter()
        .filter(|((v, _), _)| slice_vars.contains(v))
        .collect();

    let mut body = Writer::new();
    body.u32(summaries.len() as u32);
    for ((f, target), tuples) in &summaries {
        body.u32(names.func(*f)?);
        body.u32(names.var(*target)?);
        body.u32(tuples.len() as u32);
        for (value, cond) in tuples {
            match value {
                Value::Ptr(q) => {
                    body.u8(0);
                    body.u32(names.var(*q)?);
                }
                Value::Addr(o) => {
                    body.u8(1);
                    body.u32(names.var(*o)?);
                }
                Value::Null => body.u8(2),
            }
            names.cond(&mut body, cond)?;
        }
    }
    body.u32(queries.len() as u32);
    for ((v, loc), sources) in &queries {
        body.u32(names.var(*v)?);
        names.loc(&mut body, *loc)?;
        body.u32(sources.len() as u32);
        for (source, cond) in sources {
            match source {
                Source::Addr(o) => {
                    body.u8(0);
                    body.u32(names.var(*o)?);
                }
                Source::Null => body.u8(1),
                Source::EntryVar(q) => {
                    body.u8(2);
                    body.u32(names.var(*q)?);
                }
            }
            names.cond(&mut body, cond)?;
        }
    }
    body.u32(fsci.len() as u32);
    for ((v, loc), pts) in &fsci {
        body.u32(names.var(*v)?);
        names.loc(&mut body, *loc)?;
        match pts {
            Some(pts) => {
                body.u8(1);
                body.u32(pts.len() as u32);
                for &o in pts.iter() {
                    body.u32(names.var(o)?);
                }
            }
            None => body.u8(0),
        }
    }

    let mut w = Writer::new();
    w.u32(names.vars.len() as u32);
    for n in &names.vars {
        w.str(n);
    }
    w.u32(names.funcs.len() as u32);
    for n in &names.funcs {
        w.str(n);
    }
    let mut out = w.finish();
    out.extend_from_slice(&body.finish());
    Some(out)
}

/// One FSCI fact as snapshotted from the live cache: `None` marks a
/// recorded oracle degradation (a negative answer worth persisting too).
type FsciRecord = ((VarId, Loc), Option<Arc<Vec<VarId>>>);
/// The same fact decoded from disk, before re-wrapping in `Arc`.
type DecodedFsciRecord = ((VarId, Loc), Option<Vec<VarId>>);

/// A fully decoded entry, staged before anything is installed: a payload
/// that fails to decode (or resolve) installs *nothing*.
pub(crate) struct DecodedEntry {
    pub(crate) summaries: Vec<(SummaryKey, Vec<(Value, Cond)>)>,
    pub(crate) queries: Vec<QueryRecord>,
    pub(crate) fsci: Vec<DecodedFsciRecord>,
}

/// Decodes a payload against the live program, resolving every name
/// through the program's lookup maps (the relocation). `None` on any
/// malformed byte or unresolvable name.
fn decode_payload(raw: &[u8], program: &Program) -> Option<DecodedEntry> {
    let mut r = Reader::new(raw);
    let n_vars = r.u32().ok()?;
    let mut vars: Vec<VarId> = Vec::with_capacity(n_vars.min(65_536) as usize);
    for _ in 0..n_vars {
        vars.push(program.var_named(r.str().ok()?)?);
    }
    let n_funcs = r.u32().ok()?;
    let mut funcs: Vec<FuncId> = Vec::with_capacity(n_funcs.min(65_536) as usize);
    for _ in 0..n_funcs {
        funcs.push(program.func_named(r.str().ok()?)?);
    }
    let var = |i: u32| vars.get(i as usize).copied();
    let func = |i: u32| funcs.get(i as usize).copied();
    let loc = |r: &mut Reader<'_>| -> Option<Loc> {
        let f = func(r.u32().ok()?)?;
        Some(Loc::new(f, r.u32().ok()?))
    };
    let cond = |r: &mut Reader<'_>| -> Option<Cond> {
        let widened = r.u8().ok()? != 0;
        let n = r.u32().ok()?;
        let mut atoms = Vec::with_capacity(n.min(65_536) as usize);
        for _ in 0..n {
            let atom = match r.u8().ok()? {
                0 => Atom::PointsTo {
                    loc: loc(r)?,
                    ptr: var(r.u32().ok()?)?,
                    obj: var(r.u32().ok()?)?,
                },
                1 => Atom::NotPointsTo {
                    loc: loc(r)?,
                    ptr: var(r.u32().ok()?)?,
                    obj: var(r.u32().ok()?)?,
                },
                2 => Atom::Eq {
                    loc: loc(r)?,
                    a: var(r.u32().ok()?)?,
                    b: var(r.u32().ok()?)?,
                },
                3 => Atom::NotEq {
                    loc: loc(r)?,
                    a: var(r.u32().ok()?)?,
                    b: var(r.u32().ok()?)?,
                },
                4 => Atom::BranchTrue {
                    var: var(r.u32().ok()?)?,
                },
                5 => Atom::BranchFalse {
                    var: var(r.u32().ok()?)?,
                },
                _ => return None,
            };
            atoms.push(atom);
        }
        Some(Cond::from_parts(atoms, widened))
    };

    let n_summaries = r.u32().ok()?;
    let mut summaries = Vec::with_capacity(n_summaries.min(65_536) as usize);
    for _ in 0..n_summaries {
        let f = func(r.u32().ok()?)?;
        let target = var(r.u32().ok()?)?;
        let n_tuples = r.u32().ok()?;
        let mut tuples = Vec::with_capacity(n_tuples.min(65_536) as usize);
        for _ in 0..n_tuples {
            let value = match r.u8().ok()? {
                0 => Value::Ptr(var(r.u32().ok()?)?),
                1 => Value::Addr(var(r.u32().ok()?)?),
                2 => Value::Null,
                _ => return None,
            };
            tuples.push((value, cond(&mut r)?));
        }
        summaries.push(((f, target), tuples));
    }
    let n_queries = r.u32().ok()?;
    let mut queries = Vec::with_capacity(n_queries.min(65_536) as usize);
    for _ in 0..n_queries {
        let v = var(r.u32().ok()?)?;
        let at = loc(&mut r)?;
        let n_sources = r.u32().ok()?;
        let mut sources = Vec::with_capacity(n_sources.min(65_536) as usize);
        for _ in 0..n_sources {
            let source = match r.u8().ok()? {
                0 => Source::Addr(var(r.u32().ok()?)?),
                1 => Source::Null,
                2 => Source::EntryVar(var(r.u32().ok()?)?),
                _ => return None,
            };
            sources.push((source, cond(&mut r)?));
        }
        queries.push(((v, at), sources));
    }
    let n_fsci = r.u32().ok()?;
    let mut fsci = Vec::with_capacity(n_fsci.min(65_536) as usize);
    for _ in 0..n_fsci {
        let v = var(r.u32().ok()?)?;
        let at = loc(&mut r)?;
        let pts = match r.u8().ok()? {
            0 => None,
            _ => {
                let n = r.u32().ok()?;
                let mut p = Vec::with_capacity(n.min(65_536) as usize);
                for _ in 0..n {
                    p.push(var(r.u32().ok()?)?);
                }
                Some(p)
            }
        };
        fsci.push(((v, at), pts));
    }
    if r.remaining() != 0 {
        return None;
    }
    Some(DecodedEntry {
        summaries,
        queries,
        fsci,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Config;
    use bootstrap_ir::parse_program;

    fn program() -> Program {
        parse_program(
            "int a; int b; int *x; int *y;
             int *id(int *q) { return q; }
             void main() { x = id(&a); y = id(&b); }",
        )
        .unwrap()
    }

    #[test]
    fn option_and_program_hashes_are_sensitive() {
        let p = program();
        let c1 = Config::default();
        let c2 = Config {
            cond_cap: 16,
            ..Config::default()
        };
        assert_ne!(options_hash(&c1), options_hash(&c2));
        assert_eq!(options_hash(&c1), options_hash(&c1.clone()));
        let p2 = parse_program("int a; int *x; void main() { x = &a; }").unwrap();
        assert_ne!(Digests::new(&p).program, Digests::new(&p2).program);
        assert_eq!(Digests::new(&p).program, Digests::new(&p).program);
    }

    /// `main`'s digest, the program hash and `main`'s statements.
    fn main_digest(src: &str) -> (u64, u64, Vec<bootstrap_ir::Stmt>) {
        let p = parse_program(src).unwrap();
        let d = Digests::new(&p);
        let main = p.func(p.func_named("main").unwrap());
        (d.funcs[main.id().index()], d.program, main.body().to_vec())
    }

    #[test]
    fn digests_cover_edges_and_branch_variables_but_not_lines() {
        let globals = "int a; int b; int *x; int y;\n";
        let base = main_digest(&format!(
            "{globals}void main() {{ int c; int d; if (c) {{ x = NULL; }} x = &b; y = *x; if (c) {{ x = &a; }} }}"
        ));
        // The same statements, with `x = &b` moved into an else arm.
        let edge = main_digest(&format!(
            "{globals}void main() {{ int c; int d; if (c) {{ x = NULL; }} else {{ x = &b; }} y = *x; if (c) {{ x = &a; }} }}"
        ));
        // The same statements and edges, the second test on `d`.
        let branch_var = main_digest(&format!(
            "{globals}void main() {{ int c; int d; if (c) {{ x = NULL; }} x = &b; y = *x; if (d) {{ x = &a; }} }}"
        ));
        // The base program spread over more lines, with a comment.
        let reformatted = main_digest(&format!(
            "{globals}\n/* moved down */\nvoid main() {{\n  int c;\n  int d;\n  if (c) {{\n    x = NULL;\n  }}\n  x = &b;\n  y = *x;\n  if (c) {{ x = &a; }}\n}}\n"
        ));
        assert_eq!((&edge.2, &branch_var.2), (&base.2, &base.2));
        assert_ne!(edge.0, base.0, "an edge-only edit must move the digest");
        assert_ne!(edge.1, base.1);
        assert_ne!(
            branch_var.0, base.0,
            "a branch-variable edit must move the digest"
        );
        assert_ne!(branch_var.1, base.1);
        assert_eq!(reformatted, base, "source lines are not content");
    }

    #[test]
    fn payload_roundtrips_through_names() {
        let p = program();
        let config = Config::default();
        let session = Session::new(&p, config);
        // Drive a query through the session so there is something to
        // record, then encode/decode against the same program.
        let az = session.analyzer();
        let x = p.var_named("x").unwrap();
        let exit = p.entry().unwrap().exit();
        let mut budget = crate::budget::AnalysisBudget::unlimited();
        let _ = az.sources(x, exit, &mut budget);
        let engine_rc = az.engine_for(session.steens().partition_key(x));
        let engine = engine_rc.borrow();
        let payload = encode_payload(&session, &engine).expect("relocatable");
        let decoded = decode_payload(&payload, &p).expect("decodes");
        let snap = engine.summary_snapshot();
        assert_eq!(decoded.summaries, snap);
        // Tampering with any single byte either fails decode or yields
        // a *different* structure — never a panic.
        for i in 0..payload.len() {
            let mut bad = payload.clone();
            bad[i] ^= 0x40;
            let _ = decode_payload(&bad, &p);
        }
    }

    #[test]
    fn decode_rejects_unknown_names() {
        let p = program();
        let mut w = Writer::new();
        w.u32(1);
        w.str("no_such::var");
        w.u32(0);
        w.u32(0);
        w.u32(0);
        w.u32(0);
        assert!(decode_payload(&w.finish(), &p).is_none());
    }
}
