//! The four-form pointer IR: programs, functions, statements and variables.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use crate::ids::{CallSiteId, FuncId, Loc, StmtIdx, VarId};

/// A statement in the four-form IR.
///
/// Besides the paper's four pointer-assignment forms, the IR has `NULL`
/// assignments (used to model `free` and explicit nulling), calls, returns
/// and skips. Conditionals never appear as statements: branches are encoded
/// purely as control-flow edges and are treated as nondeterministic,
/// matching the paper's path-insensitive core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `dst = src`
    Copy {
        /// The assigned pointer.
        dst: VarId,
        /// The source pointer.
        src: VarId,
    },
    /// `dst = &obj` — also models `dst = malloc(..)` with `obj` a heap var.
    AddrOf {
        /// The assigned pointer.
        dst: VarId,
        /// The object whose address is taken.
        obj: VarId,
    },
    /// `dst = *src`
    Load {
        /// The assigned pointer.
        dst: VarId,
        /// The dereferenced pointer.
        src: VarId,
    },
    /// `*dst = src`
    Store {
        /// The dereferenced destination pointer.
        dst: VarId,
        /// The source pointer.
        src: VarId,
    },
    /// `dst = NULL` — an explicit nulling assignment.
    Null {
        /// The assigned pointer.
        dst: VarId,
    },
    /// `free(dst)`: the object `dst` points to is deallocated and `dst`
    /// becomes NULL. Alias analyses treat this exactly like [`Stmt::Null`]
    /// (the paper's Remark 1 reduction), but the distinct form preserves
    /// the deallocation *event* for client checkers (use-after-free,
    /// double-free).
    Free {
        /// The freed (and nulled) pointer.
        dst: VarId,
    },
    /// A function call. Direct calls have their parameter/return binding
    /// lowered to explicit `Copy` statements around the call, so the call
    /// statement itself only transfers control. Indirect calls retain their
    /// argument and return variables until devirtualization.
    Call(CallStmt),
    /// `spawn f(args)`: start a new thread executing `f`. Parameter binding
    /// is lowered to explicit `Copy` statements before the spawn, exactly
    /// like a direct call, so the spawn statement itself only forks
    /// control. The target is always direct (the parser rejects indirect
    /// spawns). Sequential alias analyses treat the spawn as a call edge
    /// for reachability but step over it for value flow; the race detector
    /// interprets it as a thread boundary.
    Spawn(CallStmt),
    /// `lock(m)`: acquire the mutex object `m` points to. A no-op for
    /// value flow; the race detector's lockset computation interprets it.
    Lock {
        /// The pointer naming the acquired mutex.
        m: VarId,
    },
    /// `unlock(m)`: release the mutex object `m` points to.
    Unlock {
        /// The pointer naming the released mutex.
        m: VarId,
    },
    /// Transfer to the function's exit location.
    Return,
    /// No-op. Conditions, integer arithmetic and the entry/exit
    /// pseudo-statements lower to `Skip`.
    Skip,
}

impl Stmt {
    /// Returns the variable directly written by this statement, if any.
    ///
    /// For [`Stmt::Store`] this returns `None`: the written locations are
    /// the pointees of `dst`, which only a points-to analysis can name.
    pub fn direct_def(&self) -> Option<VarId> {
        match self {
            Stmt::Copy { dst, .. }
            | Stmt::AddrOf { dst, .. }
            | Stmt::Load { dst, .. }
            | Stmt::Null { dst }
            | Stmt::Free { dst } => Some(*dst),
            Stmt::Store { .. }
            | Stmt::Call(_)
            | Stmt::Spawn(_)
            | Stmt::Lock { .. }
            | Stmt::Unlock { .. }
            | Stmt::Return
            | Stmt::Skip => None,
        }
    }

    /// Returns `true` if this statement is one of the four pointer
    /// assignment forms, a `NULL` assignment or a `free`.
    pub fn is_pointer_assign(&self) -> bool {
        matches!(
            self,
            Stmt::Copy { .. }
                | Stmt::AddrOf { .. }
                | Stmt::Load { .. }
                | Stmt::Store { .. }
                | Stmt::Null { .. }
                | Stmt::Free { .. }
        )
    }
}

/// A call site in the IR.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallStmt {
    /// The callee: a known function or a function pointer.
    pub target: CallTarget,
    /// A program-wide unique identifier for this call site.
    pub site: CallSiteId,
    /// Argument variables, retained only for indirect calls awaiting
    /// devirtualization (empty for lowered direct calls).
    pub args: Vec<VarId>,
    /// Return destination, retained only for indirect calls awaiting
    /// devirtualization.
    pub ret: Option<VarId>,
}

/// The target of a call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallTarget {
    /// A direct call to a known function.
    Direct(FuncId),
    /// An indirect call through a function pointer.
    Indirect(VarId),
}

/// The kind of a variable in the program's variable table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VarKind {
    /// A global variable.
    Global,
    /// A local variable of the given function.
    Local(FuncId),
    /// A formal parameter of the given function (with its position).
    Param(FuncId, usize),
    /// The return-value variable of the given function.
    Ret(FuncId),
    /// A compiler temporary introduced by lowering.
    Temp(FuncId),
    /// An abstract heap object allocated at the given program location.
    AllocSite(Loc),
    /// The abstract object standing for function `FuncId` (used when the
    /// function's address is taken).
    FuncObj(FuncId),
    /// The distinguished `NULL` object.
    Null,
}

impl VarKind {
    /// Returns `true` if this variable names an abstract memory object that
    /// is not itself a storage location for pointers the program writes
    /// directly (heap objects are writable through pointers, but function
    /// objects and `NULL` are not).
    pub fn is_synthetic_object(&self) -> bool {
        matches!(self, VarKind::FuncObj(_) | VarKind::Null)
    }

    /// Returns the function owning this variable, if it is function-scoped.
    pub fn owner(&self) -> Option<FuncId> {
        match self {
            VarKind::Local(f) | VarKind::Param(f, _) | VarKind::Ret(f) | VarKind::Temp(f) => {
                Some(*f)
            }
            VarKind::FuncObj(_) | VarKind::Global | VarKind::AllocSite(_) | VarKind::Null => None,
        }
    }
}

/// One step of an abstract-location field path.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PathSeg {
    /// A named field of a struct with the given tag.
    Field {
        /// The struct tag the field belongs to.
        tag: String,
        /// The field name.
        name: String,
    },
    /// The summarized element of an array (all indices collapse to one
    /// abstract location).
    Elem,
}

/// A first-class abstract location: a root storage object plus the field
/// path carved out of it.
///
/// The lowering materializes one IR variable per abstract location, so
/// `VarId` remains the dense runtime handle; `AbsLoc` is the structured
/// identity behind it. Display names are derived deterministically from the
/// path (`base.f`, `base.buf[*]`), which keeps persistent-store keys
/// name-relocatable: two distinct fields can never collide on a key, and a
/// summary recorded for `s.f` rebinds to the same field in a warm session.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AbsLoc {
    /// Mangled name of the root variable (e.g. `g`, `main::s`).
    pub base: String,
    /// Field path from the root, outermost first.
    pub path: Vec<PathSeg>,
}

impl AbsLoc {
    /// An abstract location naming the whole root object.
    pub fn root(base: impl Into<String>) -> Self {
        Self {
            base: base.into(),
            path: Vec::new(),
        }
    }

    /// Extends the path with a struct field.
    pub fn field(mut self, tag: impl Into<String>, name: impl Into<String>) -> Self {
        self.path.push(PathSeg::Field {
            tag: tag.into(),
            name: name.into(),
        });
        self
    }

    /// Extends the path with the summarized array element.
    pub fn elem(mut self) -> Self {
        self.path.push(PathSeg::Elem);
        self
    }

    /// The canonical display name (`base.f[*].g`), used as the variable's
    /// mangled name and therefore as the persistent-store key component.
    pub fn display_name(&self) -> String {
        let mut out = self.base.clone();
        for seg in &self.path {
            match seg {
                PathSeg::Field { name, .. } => {
                    out.push('.');
                    out.push_str(name);
                }
                PathSeg::Elem => out.push_str("[*]"),
            }
        }
        out
    }

    /// The innermost `(struct tag, field name)` layer of the path, if any.
    ///
    /// This is the multi-layer type key MLTA indirect-call resolution
    /// matches on: a function pointer loaded from `s.tab[i].fn` shares its
    /// owner `(tag_of_tab_elem, "fn")` with every other location of that
    /// shape, regardless of the root object.
    pub fn field_owner(&self) -> Option<(&str, &str)> {
        self.path.iter().rev().find_map(|seg| match seg {
            PathSeg::Field { tag, name } => Some((tag.as_str(), name.as_str())),
            PathSeg::Elem => None,
        })
    }
}

impl fmt::Display for AbsLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_name())
    }
}

/// Metadata about a variable.
#[derive(Clone, Debug)]
pub struct VarInfo {
    name: String,
    kind: VarKind,
    is_pointer: bool,
    abs: Option<AbsLoc>,
}

impl VarInfo {
    /// The (possibly mangled) source-level name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The variable's kind.
    pub fn kind(&self) -> &VarKind {
        &self.kind
    }

    /// Whether the variable has pointer type (analyses may still treat all
    /// variables uniformly; this flag is advisory and used for reporting).
    pub fn is_pointer(&self) -> bool {
        self.is_pointer
    }

    /// The structured abstract location this variable materializes, if the
    /// lowering assigned one (field and array-element variables).
    pub fn abs_loc(&self) -> Option<&AbsLoc> {
        self.abs.as_ref()
    }
}

/// A function: its signature, body and statement-level control-flow graph.
///
/// The body is a vector of statements; `succs[i]` / `preds[i]` give the CFG
/// edges. Index `0` is always the entry pseudo-statement ([`Stmt::Skip`]) and
/// `exit()` the exit pseudo-statement.
#[derive(Clone, Debug)]
pub struct Function {
    id: FuncId,
    name: String,
    params: Vec<VarId>,
    ret_var: Option<VarId>,
    body: Vec<Stmt>,
    succs: Vec<Vec<StmtIdx>>,
    preds: Vec<Vec<StmtIdx>>,
    exit: StmtIdx,
    /// Branch statements whose condition is a plain variable test:
    /// `branch_conds[idx] = v` means the statement at `idx` branches on
    /// `v`, with successor 0 the true arm and successor 1 the false arm.
    /// Used by the optional path-sensitive mode (paper §3).
    branch_conds: HashMap<StmtIdx, VarId>,
    /// 1-based source line per statement, parallel to `body`. Empty for
    /// programs built programmatically; entries may be `0` (no line). The
    /// table may be shorter than `body` after devirtualization appends
    /// synthesized statements.
    stmt_lines: Vec<u32>,
}

impl Function {
    pub(crate) fn new(
        id: FuncId,
        name: String,
        params: Vec<VarId>,
        ret_var: Option<VarId>,
        body: Vec<Stmt>,
        succs: Vec<Vec<StmtIdx>>,
        exit: StmtIdx,
    ) -> Self {
        debug_assert_eq!(body.len(), succs.len());
        let mut preds = vec![Vec::new(); body.len()];
        for (i, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s as usize].push(i as StmtIdx);
            }
        }
        Self {
            id,
            name,
            params,
            ret_var,
            body,
            succs,
            preds,
            exit,
            branch_conds: HashMap::new(),
            stmt_lines: Vec::new(),
        }
    }

    /// The function's id.
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// The function's source-level name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The formal parameter variables, in declaration order.
    pub fn params(&self) -> &[VarId] {
        &self.params
    }

    /// The return-value variable, if the function returns a value.
    pub fn ret_var(&self) -> Option<VarId> {
        self.ret_var
    }

    /// The statements of the body, indexed by [`StmtIdx`].
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// The statement at `idx`.
    pub fn stmt(&self, idx: StmtIdx) -> &Stmt {
        &self.body[idx as usize]
    }

    /// CFG successors of statement `idx`.
    pub fn succs(&self, idx: StmtIdx) -> &[StmtIdx] {
        &self.succs[idx as usize]
    }

    /// CFG predecessors of statement `idx`.
    pub fn preds(&self, idx: StmtIdx) -> &[StmtIdx] {
        &self.preds[idx as usize]
    }

    /// The entry location (always statement `0`).
    pub fn entry(&self) -> Loc {
        Loc::new(self.id, 0)
    }

    /// The exit location.
    pub fn exit(&self) -> Loc {
        Loc::new(self.id, self.exit)
    }

    /// Iterates over `(Loc, &Stmt)` pairs of the body.
    pub fn locs(&self) -> impl Iterator<Item = (Loc, &Stmt)> + '_ {
        self.body
            .iter()
            .enumerate()
            .map(move |(i, s)| (Loc::new(self.id, i as StmtIdx), s))
    }

    /// Returns the call sites in this function as `(Loc, &CallStmt)` pairs.
    /// Spawn sites are included: a spawned function is reachable and its
    /// parameters are bound at the spawn site exactly like at a call.
    pub fn call_sites(&self) -> impl Iterator<Item = (Loc, &CallStmt)> + '_ {
        self.locs().filter_map(|(loc, s)| match s {
            Stmt::Call(c) | Stmt::Spawn(c) => Some((loc, c)),
            _ => None,
        })
    }

    /// Returns the spawn sites in this function as `(Loc, &CallStmt)` pairs.
    pub fn spawn_sites(&self) -> impl Iterator<Item = (Loc, &CallStmt)> + '_ {
        self.locs().filter_map(|(loc, s)| match s {
            Stmt::Spawn(c) => Some((loc, c)),
            _ => None,
        })
    }

    pub(crate) fn replace_stmt(&mut self, idx: StmtIdx, stmt: Stmt) {
        self.body[idx as usize] = stmt;
    }

    /// The variable the two-way branch at `idx` tests, if the source
    /// condition was a plain variable (successor 0 = true arm, successor 1
    /// = false arm).
    pub fn branch_cond(&self, idx: StmtIdx) -> Option<VarId> {
        self.branch_conds.get(&idx).copied()
    }

    pub(crate) fn set_branch_cond(&mut self, idx: StmtIdx, var: VarId) {
        self.branch_conds.insert(idx, var);
    }

    pub(crate) fn rebuild_edges(&mut self, succs: Vec<Vec<StmtIdx>>) {
        let mut preds = vec![Vec::new(); self.body.len()];
        for (i, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s as usize].push(i as StmtIdx);
            }
        }
        self.succs = succs;
        self.preds = preds;
    }

    pub(crate) fn body_mut(&mut self) -> &mut Vec<Stmt> {
        &mut self.body
    }

    pub(crate) fn set_stmt_lines(&mut self, lines: Vec<u32>) {
        self.stmt_lines = lines;
    }

    /// The 1-based source line of the statement at `idx`, if known.
    ///
    /// Returns `None` for programs without source information and for
    /// statements synthesized after lowering (e.g. by devirtualization).
    pub fn line_of(&self, idx: StmtIdx) -> Option<u32> {
        self.stmt_lines
            .get(idx as usize)
            .copied()
            .filter(|&l| l != 0)
    }

    pub(crate) fn succs_vec(&self) -> Vec<Vec<StmtIdx>> {
        self.succs.clone()
    }
}

/// A whole program: a variable table plus a set of functions.
///
/// Programs are immutable after construction (apart from
/// [`Program::devirtualize`]); analyses treat them as shared read-only data,
/// which is what makes per-cluster parallel analysis safe.
#[derive(Clone, Debug, Default)]
pub struct Program {
    vars: Vec<VarInfo>,
    /// Name → id index, built by the first [`Program::var_named`]: a
    /// `check` without a store never looks a variable up by name.
    var_names: OnceLock<HashMap<String, VarId>>,
    funcs: Vec<Function>,
    func_names: HashMap<String, FuncId>,
    entry: Option<FuncId>,
    source_lines: usize,
    next_call_site: u32,
}

impl Program {
    /// Creates an empty program. Use [`crate::ProgramBuilder`] or
    /// [`crate::parse_program`] to construct populated programs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves room for at least `additional` more variables.
    pub(crate) fn reserve_vars(&mut self, additional: usize) {
        self.vars.reserve(additional);
    }

    /// Adds a variable and returns its id. Names must be unique; callers
    /// (the lowering pass and the builder) mangle scoped names.
    pub(crate) fn add_var(&mut self, name: String, kind: VarKind, is_pointer: bool) -> VarId {
        debug_assert!(
            self.var_named(&name).is_none(),
            "duplicate variable name {name}"
        );
        let id = VarId::new(self.vars.len());
        if let Some(names) = self.var_names.get_mut() {
            names.insert(name.clone(), id);
        }
        self.vars.push(VarInfo {
            name,
            kind,
            is_pointer,
            abs: None,
        });
        id
    }

    /// Adds a variable materializing the abstract location `abs`; its name
    /// is the location's canonical display name.
    pub(crate) fn add_var_at(&mut self, abs: AbsLoc, kind: VarKind, is_pointer: bool) -> VarId {
        let id = self.add_var(abs.display_name(), kind, is_pointer);
        self.vars[id.index()].abs = Some(abs);
        id
    }

    /// The abstract location of `id`, if the lowering assigned one.
    pub fn abs_loc(&self, id: VarId) -> Option<&AbsLoc> {
        self.vars[id.index()].abs_loc()
    }

    pub(crate) fn add_function(&mut self, func: Function) {
        debug_assert_eq!(func.id().index(), self.funcs.len());
        self.func_names.insert(func.name().to_string(), func.id());
        if func.name() == "main" {
            self.entry = Some(func.id());
        }
        self.funcs.push(func);
    }

    pub(crate) fn set_entry(&mut self, entry: FuncId) {
        self.entry = Some(entry);
    }

    pub(crate) fn set_source_lines(&mut self, lines: usize) {
        self.source_lines = lines;
    }

    pub(crate) fn fresh_call_site(&mut self) -> CallSiteId {
        let id = CallSiteId::new(self.next_call_site as usize);
        self.next_call_site += 1;
        id
    }

    /// The number of variables (including synthetic objects).
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Metadata for a variable.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }

    /// Looks up a variable by its (mangled) name.
    ///
    /// Locals are mangled as `func::name`; heap objects as
    /// `heap@func:stmt`; function objects as `&func`.
    pub fn var_named(&self, name: &str) -> Option<VarId> {
        let names = self.var_names.get_or_init(|| {
            // A repeated name maps to its last variable.
            (self.vars.iter().enumerate())
                .map(|(i, v)| (v.name.clone(), VarId::new(i)))
                .collect()
        });
        names.get(name).copied()
    }

    /// Iterates over all variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len()).map(VarId::new)
    }

    /// The number of pointer-typed variables, as reported in the paper's
    /// "# pointers" column.
    pub fn pointer_count(&self) -> usize {
        self.vars.iter().filter(|v| v.is_pointer()).count()
    }

    /// The number of functions.
    pub fn func_count(&self) -> usize {
        self.funcs.len()
    }

    /// A function by id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Looks up a function by name.
    pub fn func_named(&self, name: &str) -> Option<FuncId> {
        self.func_names.get(name).copied()
    }

    /// Iterates over the functions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> + '_ {
        self.funcs.iter()
    }

    /// The program entry function (`main` if present).
    pub fn entry(&self) -> Option<&Function> {
        self.entry.map(|f| self.func(f))
    }

    /// The statement at `loc`.
    pub fn stmt_at(&self, loc: Loc) -> &Stmt {
        self.func(loc.func).stmt(loc.stmt)
    }

    /// The 1-based source line of the statement at `loc`, if known.
    pub fn line_of(&self, loc: Loc) -> Option<u32> {
        self.func(loc.func).line_of(loc.stmt)
    }

    /// Number of source lines this program was lowered from (0 for programs
    /// built programmatically); used for the paper's KLOC column.
    pub fn source_lines(&self) -> usize {
        self.source_lines
    }

    /// Total number of IR statements across all functions.
    pub fn stmt_count(&self) -> usize {
        self.funcs.iter().map(|f| f.body().len()).sum()
    }

    /// Iterates over every location/statement pair in the program.
    pub fn all_locs(&self) -> impl Iterator<Item = (Loc, &Stmt)> + '_ {
        self.funcs.iter().flat_map(|f| f.locs())
    }

    /// Rewrites every indirect call into a nondeterministic branch over
    /// direct calls to the targets supplied by `resolve`, inserting the
    /// parameter- and return-binding copies for each target.
    ///
    /// `resolve` maps a function-pointer variable and the call-site arity
    /// to the candidate callees (typically the function objects in the
    /// pointer's flow-insensitive points-to set, optionally filtered by
    /// signature). Targets whose arity does not match the call are bound
    /// positionally for the common prefix, matching the paper's naive
    /// treatment of ill-typed indirect calls.
    ///
    /// Returns the number of call sites rewritten.
    pub fn devirtualize<R>(&mut self, mut resolve: R) -> usize
    where
        R: FnMut(VarId, usize) -> Vec<FuncId>,
    {
        let mut rewritten = 0;
        let func_params: Vec<(Vec<VarId>, Option<VarId>)> = self
            .funcs
            .iter()
            .map(|f| (f.params().to_vec(), f.ret_var()))
            .collect();
        let mut fresh_sites = Vec::new();
        for fi in 0..self.funcs.len() {
            let indirect: Vec<(StmtIdx, VarId, Vec<VarId>, Option<VarId>)> = self.funcs[fi]
                .locs()
                .filter_map(|(loc, s)| match s {
                    Stmt::Call(c) => match c.target {
                        CallTarget::Indirect(fp) => Some((loc.stmt, fp, c.args.clone(), c.ret)),
                        CallTarget::Direct(_) => None,
                    },
                    _ => None,
                })
                .collect();
            if indirect.is_empty() {
                continue;
            }
            for (idx, fp, args, ret) in indirect {
                let targets = resolve(fp, args.len());
                rewritten += 1;
                let func = &mut self.funcs[fi];
                let mut succs = func.succs_vec();
                let after: Vec<StmtIdx> = succs[idx as usize].clone();
                // The indirect call statement becomes a skip that fans out to
                // one direct-call chain per target; every chain rejoins the
                // original successors.
                func.replace_stmt(idx, Stmt::Skip);
                let mut fan_out = Vec::new();
                for target in targets {
                    let (params, callee_ret) = &func_params[target.index()];
                    let mut chain = Vec::new();
                    for (a, p) in args.iter().zip(params.iter()) {
                        chain.push(Stmt::Copy { dst: *p, src: *a });
                    }
                    fresh_sites.push(());
                    chain.push(Stmt::Call(CallStmt {
                        target: CallTarget::Direct(target),
                        site: CallSiteId::new(self.next_call_site as usize + fresh_sites.len() - 1),
                        args: Vec::new(),
                        ret: None,
                    }));
                    if let (Some(dst), Some(rv)) = (ret, *callee_ret) {
                        chain.push(Stmt::Copy { dst, src: rv });
                    }
                    let base = func.body_mut().len() as StmtIdx;
                    for (i, st) in chain.iter().enumerate() {
                        func.body_mut().push(st.clone());
                        let this = base + i as StmtIdx;
                        if i + 1 < chain.len() {
                            succs.push(vec![this + 1]);
                        } else {
                            succs.push(after.clone());
                        }
                    }
                    fan_out.push(base);
                }
                if fan_out.is_empty() {
                    // Unresolvable call: behave as a skip.
                    succs[idx as usize] = after;
                } else {
                    succs[idx as usize] = fan_out;
                }
                func.rebuild_edges(succs);
            }
        }
        self.next_call_site += fresh_sites.len() as u32;
        rewritten
    }

    /// Returns `true` if any call site is still indirect.
    pub fn has_indirect_calls(&self) -> bool {
        self.all_locs().any(|(_, s)| {
            matches!(
                s,
                Stmt::Call(CallStmt {
                    target: CallTarget::Indirect(_),
                    ..
                })
            )
        })
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::display::write_program(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_def_of_store_is_none() {
        let s = Stmt::Store {
            dst: VarId::new(0),
            src: VarId::new(1),
        };
        assert_eq!(s.direct_def(), None);
        assert!(s.is_pointer_assign());
    }

    #[test]
    fn direct_def_of_copy() {
        let s = Stmt::Copy {
            dst: VarId::new(3),
            src: VarId::new(1),
        };
        assert_eq!(s.direct_def(), Some(VarId::new(3)));
    }

    #[test]
    fn var_kind_owner() {
        assert_eq!(VarKind::Local(FuncId::new(2)).owner(), Some(FuncId::new(2)));
        assert_eq!(VarKind::Global.owner(), None);
        assert!(VarKind::Null.is_synthetic_object());
        assert!(!VarKind::Global.is_synthetic_object());
    }

    #[test]
    fn abs_loc_display_and_owner() {
        let loc = AbsLoc::root("main::s")
            .field("state", "tab")
            .elem()
            .field("stage", "run");
        assert_eq!(loc.display_name(), "main::s.tab[*].run");
        assert_eq!(loc.field_owner(), Some(("stage", "run")));
        let arr = AbsLoc::root("buf").elem();
        assert_eq!(arr.display_name(), "buf[*]");
        assert_eq!(arr.field_owner(), None);
        // An array-of-structs field: the Elem after the Field does not mask
        // the innermost field layer.
        let tab = AbsLoc::root("g").field("state", "tab").elem();
        assert_eq!(tab.field_owner(), Some(("state", "tab")));
    }

    #[test]
    fn function_preds_are_derived_from_succs() {
        let body = vec![Stmt::Skip, Stmt::Skip, Stmt::Skip];
        let succs = vec![vec![1, 2], vec![2], vec![]];
        let f = Function::new(FuncId::new(0), "f".into(), vec![], None, body, succs, 2);
        assert_eq!(f.preds(2), &[0, 1]);
        assert_eq!(f.preds(0), &[] as &[StmtIdx]);
        assert_eq!(f.entry(), Loc::new(FuncId::new(0), 0));
        assert_eq!(f.exit(), Loc::new(FuncId::new(0), 2));
    }
}
