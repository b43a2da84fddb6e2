//! Lowering from the mini-C AST to the four-form IR.
//!
//! The pass implements Remark 1 of the paper:
//!
//! * every pointer assignment is reduced to `x = y`, `x = &y`, `x = *y` or
//!   `*x = y` by introducing compiler temporaries for nested dereferences;
//! * heap allocation at a site becomes `p = &heap@site`; `free(p)` becomes
//!   a [`Stmt::Free`], which the alias analyses treat as `p = NULL` while
//!   client checkers see the deallocation event;
//! * structs are flattened into one variable per field, each carrying a
//!   structured [`crate::prog::AbsLoc`] (base + field path), making the
//!   analysis field-sensitive; struct variables whose *whole* address is
//!   taken (`&s`), and struct-typed parameters, are collapsed to a single
//!   variable instead (a sound coarsening), while `&s.f` pins the field's
//!   own abstract location;
//! * arrays summarize all elements into a single abstract location per
//!   array (`a[*]`); the array name decays to the address of that summary,
//!   so `a[i]`, `*(a+i)` and `&a[i]` all resolve through it (multi-level
//!   arrays collapse onto one self-referential summary);
//! * whole-struct assignment expands fieldwise everywhere it can be typed —
//!   variable-to-variable, through pointers (`*ps = s` stores every field;
//!   `s = *ps` loads every field), into call arguments and out of returns
//!   (collapsed on the callee side);
//! * pointer arithmetic is handled naively by aliasing the result with each
//!   pointer operand (lowered as a nondeterministic CFG diamond);
//! * conditionals contribute only control-flow edges;
//! * direct-call parameter and return binding becomes explicit `Copy`
//!   statements in the caller, so interprocedural analysis can splice
//!   per-function summaries; indirect calls keep their arguments until
//!   [`crate::Program::devirtualize`] runs.

use std::collections::hash_map::Entry as Slot;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use crate::ast::{self, Ast, BinOp, Block, Expr, FuncDef, Type, VarDecl};
use crate::ids::{FuncId, Loc, StmtIdx, VarId};
use crate::prog::{AbsLoc, CallStmt, CallTarget, Function, Program, Stmt, VarKind};

/// Lowers a parsed [`Ast`] into a [`Program`].
///
/// Lowering cannot fail: semantically dubious constructs degrade to sound
/// over-approximations (e.g. unknown identifiers become fresh variables,
/// ill-typed assignments become skips) rather than errors, mirroring how
/// whole-program C analyses must cope with partial code.
pub fn lower(ast: &Ast) -> Program {
    lower_files([ast])
}

/// Lowers several translation units, in order, into one [`Program`]: the
/// program [`lower`] gives for their concatenation (structs, globals and
/// functions appended file by file, source lines summed), without building
/// that merged [`Ast`].
pub fn lower_files<'a>(asts: impl IntoIterator<Item = &'a Ast>) -> Program {
    let mut lw = Lowerer::new(asts);
    lw.run();
    lw.prog
}

/// How a declared variable is represented after lowering.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// An ordinary variable (scalars, pointers, collapsed structs).
    Var(VarId),
    /// A flattened struct: the index of its field table in
    /// [`Lowerer::layouts`].
    Struct(usize),
    /// An array: all elements summarize into the one variable (`a[*]`).
    /// The array name decays to the address of this summary.
    Array(VarId),
}

/// A name in the global scope.
#[derive(Clone, Copy, Debug)]
struct Global {
    entry: Entry,
    /// How many `#k` renamings of the name were handed out.
    renamings: u32,
}

/// What [`FnCx::field_of`] found for a field access: the field's entry,
/// or, when some layer is not a flattened struct field, the entry of the
/// longest prefix that resolved (`None` when the innermost base is not a
/// name). Such an access is field-insensitive: it is its base's place.
type FieldLookup = Result<Entry, Option<Entry>>;

/// An lvalue after normalization: either a variable or a single-level
/// dereference of a variable.
#[derive(Clone, Copy, Debug)]
enum Place {
    Var(VarId),
    Deref(VarId),
}

struct Lowerer<'a> {
    prog: Program,
    /// Global declarations of every file, in order.
    global_decls: Vec<&'a VarDecl>,
    /// Function definitions of every file, in order; `FuncId` indexes it.
    funcs: Vec<&'a FuncDef>,
    source_lines: usize,
    structs: HashMap<&'a str, &'a [(String, Type)]>,
    /// Field tables of the flattened struct variables, sorted by field
    /// name. [`Entry::Struct`] indexes this, which keeps `Entry` `Copy`.
    layouts: Vec<Vec<(&'a str, Entry)>>,
    /// Names that appear under a whole-variable `&name` anywhere in the
    /// program (conservative, name-based): struct variables with these
    /// names are collapsed. `&s.f` does *not* put `s` here — it pins the
    /// field's own abstract location instead.
    addr_taken_names: HashSet<&'a str>,
    /// The global scope. A repeated global name is renamed `name#k`, and
    /// the table counts the renamings handed out, so one probe claims a
    /// global's name and records its entry.
    globals: HashMap<&'a str, Global>,
    func_ids: HashMap<&'a str, FuncId>,
    func_objs: Vec<Option<VarId>>,
    /// Per function, the variables a direct call or spawn binds its
    /// arguments to and reads its result from.
    binds: Vec<(Vec<VarId>, Option<VarId>)>,
    /// Root names claimed in a function by a parameter or a local, as
    /// `(function, name)`, with how many `#k` renamings were handed out,
    /// so a shadowing local takes the next `f::name#k` in one probe.
    locals: HashMap<(&'a str, &'a str), u32>,
    /// Heap objects named so far, as `(function, statement)`, with their
    /// `#k` renamings (functions that share a name share these names).
    heap_sites: HashMap<(&'a str, StmtIdx), u32>,
    /// `(dst, obj)` pairs for multi-level array summaries: `dst = &obj`
    /// must execute before first use (at the declaration for locals, at
    /// program entry for globals).
    pending_links: Vec<(VarId, VarId)>,
    /// Deferred links for global declarations, emitted at `main` entry.
    global_links: Vec<(VarId, VarId)>,
}

impl<'a> Lowerer<'a> {
    fn new(asts: impl IntoIterator<Item = &'a Ast>) -> Self {
        let mut lw = Self {
            prog: Program::new(),
            global_decls: Vec::new(),
            funcs: Vec::new(),
            source_lines: 0,
            structs: HashMap::new(),
            layouts: Vec::new(),
            addr_taken_names: HashSet::new(),
            globals: HashMap::new(),
            func_ids: HashMap::new(),
            func_objs: Vec::new(),
            binds: Vec::new(),
            locals: HashMap::new(),
            heap_sites: HashMap::new(),
            pending_links: Vec::new(),
            global_links: Vec::new(),
        };
        for ast in asts {
            for s in &ast.structs {
                lw.structs.insert(&s.name, &s.fields);
            }
            lw.global_decls.extend(&ast.globals);
            lw.funcs.extend(&ast.funcs);
            lw.source_lines += ast.source_lines;
        }
        lw
    }

    fn run(&mut self) {
        self.collect_addr_taken();
        let funcs = self.funcs.clone();
        let params: usize = funcs.iter().map(|f| f.params.len()).sum();
        self.prog
            .reserve_vars(self.global_decls.len() + params + funcs.len());
        self.locals.reserve(params);
        self.globals.reserve(self.global_decls.len());

        // Declare function signatures first so call lowering can reference
        // parameter/return variables of not-yet-lowered callees.
        for (i, f) in funcs.iter().enumerate() {
            self.func_ids.insert(&f.name, FuncId::new(i));
        }
        self.func_objs = vec![None; funcs.len()];
        let mut params_of: Vec<Vec<VarId>> = Vec::with_capacity(funcs.len());
        let mut ret_of: Vec<Option<VarId>> = Vec::with_capacity(funcs.len());
        let mut param_entries: Vec<Vec<(&'a str, Entry)>> = Vec::with_capacity(funcs.len());
        // Calls bind by mangled name, so a repeated parameter or function
        // name binds its last variable.
        let mut named_params: HashMap<(&'a str, &'a str), VarId> = HashMap::with_capacity(params);
        let mut named_rets: HashMap<&'a str, VarId> = HashMap::with_capacity(funcs.len());
        for (i, f) in funcs.iter().enumerate() {
            let fid = FuncId::new(i);
            let mut pvars = Vec::with_capacity(f.params.len());
            let mut pentries = Vec::with_capacity(f.params.len());
            for (pi, (pname, pty)) in f.params.iter().enumerate() {
                // Array-typed parameters decay to pointers (C semantics);
                // struct-typed parameters collapse to a single variable.
                let is_ptr = matches!(pty, Type::Array(_)) || pty.is_pointer();
                let v = self.prog.add_var(
                    format!("{}::{}", f.name, pname),
                    VarKind::Param(fid, pi),
                    is_ptr,
                );
                // A local of the same name becomes `f::name#1`.
                self.locals.entry((&f.name, pname)).or_insert(0);
                named_params.insert((&f.name, pname), v);
                pvars.push(v);
                pentries.push((pname.as_str(), Entry::Var(v)));
            }
            let ret = if f.ret == Type::Void {
                None
            } else {
                Some(self.prog.add_var(
                    format!("{}::$ret", f.name),
                    VarKind::Ret(fid),
                    f.ret.is_pointer(),
                ))
            };
            if let Some(v) = ret {
                named_rets.insert(&f.name, v);
            }
            params_of.push(pvars);
            ret_of.push(ret);
            param_entries.push(pentries);
        }
        self.binds = funcs
            .iter()
            .map(|f| {
                let params = f
                    .params
                    .iter()
                    .map(|(p, _)| named_params[&(f.name.as_str(), p.as_str())])
                    .collect();
                (params, named_rets.get(f.name.as_str()).copied())
            })
            .collect();

        // Globals.
        let mut global_inits: Vec<&'a VarDecl> = Vec::new();
        for g in self.global_decls.clone() {
            self.declare_global(&g.name, &g.ty);
            if g.init.is_some() {
                global_inits.push(g);
            }
        }
        // Multi-level array summaries declared at global scope get their
        // `dst = &obj` links at program entry, like global initializers.
        self.global_links = std::mem::take(&mut self.pending_links);

        // Function bodies.
        for (i, f) in funcs.iter().enumerate() {
            let inits = if f.name == "main" {
                global_inits.as_slice()
            } else {
                &[]
            };
            let func = self.lower_func(
                FuncId::new(i),
                f,
                std::mem::take(&mut params_of[i]),
                ret_of[i],
                std::mem::take(&mut param_entries[i]),
                inits,
            );
            self.prog.add_function(func);
        }
        if self.prog.entry().is_none() && self.prog.func_count() > 0 {
            self.prog.set_entry(FuncId::new(0));
        }
        self.prog.set_source_lines(self.source_lines);
    }

    fn collect_addr_taken(&mut self) {
        fn walk<'a>(e: &'a Expr, out: &mut HashSet<&'a str>) {
            match e {
                Expr::AddrOf(inner) => {
                    if let Expr::Ident(n) = inner.as_ref() {
                        out.insert(n);
                    }
                    walk(inner, out);
                }
                Expr::Deref(i) | Expr::Unary(i) => walk(i, out),
                Expr::Field(i, _) | Expr::Arrow(i, _) => walk(i, out),
                Expr::Call { callee, args } => {
                    walk(callee, out);
                    for a in args {
                        walk(a, out);
                    }
                }
                Expr::Binary(_, a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Expr::Ident(_) | Expr::Num(_) | Expr::Null | Expr::Malloc => {}
            }
        }
        fn walk_block<'a>(b: &'a Block, out: &mut HashSet<&'a str>) {
            for s in &b.stmts {
                match s {
                    ast::Stmt::Decl(d) => {
                        if let Some(i) = &d.init {
                            walk(i, out);
                        }
                    }
                    ast::Stmt::Assign { lhs, rhs } => {
                        walk(lhs, out);
                        walk(rhs, out);
                    }
                    ast::Stmt::If {
                        cond,
                        then_blk,
                        else_blk,
                    } => {
                        walk(cond, out);
                        walk_block(then_blk, out);
                        if let Some(e) = else_blk {
                            walk_block(e, out);
                        }
                    }
                    ast::Stmt::While { cond, body } => {
                        walk(cond, out);
                        walk_block(body, out);
                    }
                    ast::Stmt::Return(Some(e))
                    | ast::Stmt::Expr(e)
                    | ast::Stmt::Free(e)
                    | ast::Stmt::Lock(e)
                    | ast::Stmt::Unlock(e) => walk(e, out),
                    ast::Stmt::Spawn { args, .. } => {
                        for a in args {
                            walk(a, out);
                        }
                    }
                    ast::Stmt::Return(None) => {}
                    ast::Stmt::Block(b) => walk_block(b, out),
                }
            }
        }
        let mut out = HashSet::new();
        for g in &self.global_decls {
            if let Some(i) = &g.init {
                walk(i, &mut out);
            }
        }
        for f in &self.funcs {
            walk_block(&f.body, &mut out);
        }
        self.addr_taken_names = out;
    }

    /// Declares the global `name` and enters it in the global scope: `name`,
    /// or `name#k` with the next `k` when an earlier global holds it.
    fn declare_global(&mut self, name: &'a str, ty: &'a Type) -> Entry {
        // The table is moved out while the variables are declared, so one
        // probe claims the name and records its entry.
        let mut globals = std::mem::take(&mut self.globals);
        let entry = match globals.entry(name) {
            Slot::Vacant(slot) => {
                let entry = self.declare_root(name.to_string(), name, ty, VarKind::Global);
                slot.insert(Global {
                    entry,
                    renamings: 0,
                })
                .entry
            }
            Slot::Occupied(mut slot) => {
                let global = slot.get_mut();
                global.renamings += 1;
                let base = format!("{name}#{}", global.renamings);
                global.entry = self.declare_root(base, name, ty, VarKind::Global);
                global.entry
            }
        };
        self.globals = globals;
        entry
    }

    /// Declares the local `name` of function `owner`: `owner::name`, or
    /// `owner::name#k` with the next `k` when a parameter or an earlier
    /// local holds it.
    fn declare_local(
        &mut self,
        owner: &'a str,
        name: &'a str,
        ty: &'a Type,
        kind: VarKind,
    ) -> Entry {
        let base = match claim(&mut self.locals, (owner, name)) {
            0 => format!("{owner}::{name}"),
            k => format!("{owner}::{name}#{k}"),
        };
        self.declare_root(base, name, ty, kind)
    }

    /// The name of the heap object allocated at statement `idx` of
    /// `owner`: `heap@owner:idx`, suffixed `#k` when a function of the
    /// same name already allocates there.
    fn heap_name(&mut self, owner: &'a str, idx: StmtIdx) -> String {
        match claim(&mut self.heap_sites, (owner, idx)) {
            0 => format!("heap@{owner}:{idx}"),
            k => format!("heap@{owner}:{idx}#{k}"),
        }
    }

    /// Declares the variables of a root named `base` for the source name
    /// `name`, flattening structs when safe. Field paths hang off the
    /// root, so unique roots keep every derived display name — and thus
    /// every persistent-store key — collision-free.
    fn declare_root(&mut self, base: String, name: &str, ty: &'a Type, kind: VarKind) -> Entry {
        // Collapse is decided on the *source* name: a whole-variable `&s`
        // anywhere forces the struct into a single variable.
        let collapse = matches!(ty, Type::Struct(_)) && self.addr_taken_names.contains(name);
        self.declare_entry(AbsLoc::root(base), ty, kind, collapse)
    }

    /// Recursively declares the abstract locations for `ty` rooted at `abs`,
    /// assigning each leaf variable its structured [`AbsLoc`].
    fn declare_entry(&mut self, abs: AbsLoc, ty: &'a Type, kind: VarKind, collapse: bool) -> Entry {
        let layout = match ty {
            Type::Struct(sname) if !collapse => self.structs.get(sname.as_str()).copied(),
            _ => None,
        };
        if let (Some(fields), Type::Struct(sname)) = (layout, ty) {
            let mut table: Vec<(&'a str, Entry)> = Vec::with_capacity(fields.len());
            for (fname, fty) in fields {
                let sub =
                    self.declare_entry(abs.clone().field(sname, fname), fty, kind.clone(), false);
                table.push((fname, sub));
            }
            // Sorted by name; a repeated field name keeps its last
            // declaration.
            table.sort_by_key(|&(name, _)| name);
            table.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 = later.1;
                }
                same
            });
            self.layouts.push(table);
            return Entry::Struct(self.layouts.len() - 1);
        }
        match ty {
            Type::Array(inner) => {
                // All elements summarize into one `a[*]` location. Nested
                // array dimensions collapse onto the same summary, which is
                // made self-referential (`a[*] = &a[*]`) so a load through
                // the summary — how `a[i][j]` lowers — reaches it again.
                let multi = matches!(inner.as_ref(), Type::Array(_));
                let is_ptr = multi || inner.array_elem().is_pointer();
                let v = self.prog.add_var_at(abs.elem(), kind, is_ptr);
                if multi {
                    self.pending_links.push((v, v));
                }
                Entry::Array(v)
            }
            _ => {
                let v = if abs.path.is_empty() {
                    // Root scalars keep the historical plain name and carry
                    // no AbsLoc (nothing structured to record).
                    self.prog.add_var(abs.base, kind, ty.is_pointer())
                } else {
                    self.prog.add_var_at(abs, kind, ty.is_pointer())
                };
                Entry::Var(v)
            }
        }
    }

    /// The entry of field `name` in the flattened struct `layout`.
    fn layout_field(&self, layout: usize, name: &str) -> Option<Entry> {
        let table = &self.layouts[layout];
        table
            .binary_search_by(|&(n, _)| n.cmp(name))
            .ok()
            .map(|i| table[i].1)
    }

    /// Leaf variables of a flattened struct in deterministic
    /// (field-name-sorted, depth-first) order.
    fn leaves(&self, layout: usize) -> Vec<VarId> {
        fn walk(layouts: &[Vec<(&str, Entry)>], layout: usize, out: &mut Vec<VarId>) {
            for &(_, e) in &layouts[layout] {
                match e {
                    Entry::Var(v) | Entry::Array(v) => out.push(v),
                    Entry::Struct(inner) => walk(layouts, inner, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.layouts, layout, &mut out);
        out
    }

    fn func_obj(&mut self, fid: FuncId) -> VarId {
        if let Some(v) = self.func_objs[fid.index()] {
            return v;
        }
        let name = format!("&{}", self.funcs[fid.index()].name);
        let v = self.prog.add_var(name, VarKind::FuncObj(fid), false);
        self.func_objs[fid.index()] = Some(v);
        v
    }

    fn lower_func(
        &mut self,
        fid: FuncId,
        f: &'a FuncDef,
        params: Vec<VarId>,
        ret_var: Option<VarId>,
        param_entries: Vec<(&'a str, Entry)>,
        global_inits: &[&'a VarDecl],
    ) -> Function {
        // Global multi-level array summaries get their self-links where
        // global initializers run: at `main` entry.
        let entry_links: Vec<(VarId, VarId)> = if f.name == "main" {
            self.global_links.clone()
        } else {
            Vec::new()
        };
        let mut fx = FnCx {
            lw: self,
            fid,
            fname: &f.name,
            stmts: vec![Stmt::Skip],
            succs: vec![Vec::new()],
            lines: vec![0],
            current_line: 0,
            frontier: vec![0],
            scopes: vec![param_entries.into_iter().collect()],
            returns: Vec::new(),
            temp_counter: 0,
            ret_var,
            branch_conds: Vec::new(),
            arg_stack: Vec::new(),
        };
        for (dst, obj) in entry_links {
            fx.emit(Stmt::AddrOf { dst, obj });
        }
        for g in global_inits {
            if let Some(init) = &g.init {
                fx.current_line = g.line;
                fx.assign_to_name(&g.name, init);
            }
        }
        fx.current_line = 0;
        fx.lower_block(&f.body);
        let exit = fx.finish();
        let (stmts, succs, lines, branch_conds) = (fx.stmts, fx.succs, fx.lines, fx.branch_conds);
        let mut func = Function::new(fid, f.name.clone(), params, ret_var, stmts, succs, exit);
        func.set_stmt_lines(lines);
        for (idx, v) in branch_conds {
            func.set_branch_cond(idx, v);
        }
        func
    }
}

/// Claims `key` in a table of names and returns how many claims it had
/// before: its `#k` suffix, 0 for none. One probe per claim.
fn claim<K: Hash + Eq>(table: &mut HashMap<K, u32>, key: K) -> u32 {
    match table.entry(key) {
        Slot::Vacant(slot) => *slot.insert(0),
        Slot::Occupied(mut slot) => {
            *slot.get_mut() += 1;
            *slot.get()
        }
    }
}

/// The innermost base of a field access chain (`x` of `x.f.g`).
fn field_root(mut e: &Expr) -> &Expr {
    while let Expr::Field(base, _) = e {
        e = base;
    }
    e
}

struct FnCx<'l, 'a> {
    lw: &'l mut Lowerer<'a>,
    fid: FuncId,
    fname: &'a str,
    stmts: Vec<Stmt>,
    succs: Vec<Vec<StmtIdx>>,
    /// 1-based source line per emitted statement, parallel to `stmts`
    /// (0 when unknown).
    lines: Vec<u32>,
    /// Source line of the statement currently being lowered.
    current_line: u32,
    /// Statement indices whose successor lists the next emitted statement
    /// joins. Empty after a `return` (following code is unreachable).
    frontier: Vec<StmtIdx>,
    scopes: Vec<HashMap<&'a str, Entry>>,
    returns: Vec<StmtIdx>,
    temp_counter: u32,
    ret_var: Option<VarId>,
    /// Two-way branches testing a plain variable (for path sensitivity).
    branch_conds: Vec<(StmtIdx, VarId)>,
    /// Lowered arguments of the calls being lowered, innermost last.
    arg_stack: Vec<VarId>,
}

impl<'a> FnCx<'_, 'a> {
    fn emit(&mut self, stmt: Stmt) -> StmtIdx {
        let idx = self.stmts.len() as StmtIdx;
        self.stmts.push(stmt);
        self.succs.push(Vec::new());
        self.lines.push(self.current_line);
        for &p in &self.frontier {
            self.succs[p as usize].push(idx);
        }
        self.frontier.clear();
        self.frontier.push(idx);
        idx
    }

    fn finish(&mut self) -> StmtIdx {
        let exit = self.stmts.len() as StmtIdx;
        self.stmts.push(Stmt::Skip);
        self.succs.push(Vec::new());
        self.lines.push(0);
        for &p in &self.frontier {
            self.succs[p as usize].push(exit);
        }
        for &r in &self.returns {
            self.succs[r as usize].push(exit);
        }
        self.frontier.clear();
        exit
    }

    fn fresh_temp(&mut self) -> VarId {
        self.temp_counter += 1;
        let name = format!("{}::$t{}", self.fname, self.temp_counter);
        self.lw.prog.add_var(name, VarKind::Temp(self.fid), true)
    }

    fn lookup(&self, name: &str) -> Option<Entry> {
        for scope in self.scopes.iter().rev() {
            if let Some(&e) = scope.get(name) {
                return Some(e);
            }
        }
        self.lw.globals.get(name).map(|g| g.entry)
    }

    /// Declares a fresh global for an undeclared identifier (partial code).
    fn create_global(&mut self, name: &'a str) -> Entry {
        self.lw.declare_global(name, &Type::Int)
    }

    /// Resolves an identifier, creating a fresh global for unknown names.
    fn lookup_or_create(&mut self, name: &'a str) -> Entry {
        match self.lookup(name) {
            Some(e) => e,
            None => self.create_global(name),
        }
    }

    fn lower_block(&mut self, b: &'a Block) {
        self.scopes.push(HashMap::new());
        for (i, s) in b.stmts.iter().enumerate() {
            if let Some(&l) = b.lines.get(i) {
                if l != 0 {
                    self.current_line = l;
                }
            }
            self.lower_stmt(s);
        }
        self.scopes.pop();
    }

    fn lower_stmt(&mut self, s: &'a ast::Stmt) {
        match s {
            ast::Stmt::Decl(d) => {
                let entry =
                    self.lw
                        .declare_local(self.fname, &d.name, &d.ty, VarKind::Local(self.fid));
                self.scopes
                    .last_mut()
                    .expect("scope stack is never empty")
                    .insert(&d.name, entry);
                // Local multi-level array summaries self-link at the
                // declaration, before any use.
                let links = std::mem::take(&mut self.lw.pending_links);
                for (dst, obj) in links {
                    self.emit(Stmt::AddrOf { dst, obj });
                }
                if let Some(init) = &d.init {
                    self.assign_to_name(&d.name, init);
                }
            }
            ast::Stmt::Assign { lhs, rhs } => self.lower_assign(lhs, rhs),
            ast::Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let branch = self.emit(Stmt::Skip);
                let before_then = self.stmts.len();
                self.lower_block(then_blk);
                // Record the condition variable when the then-arm really is
                // successor 0 (it emitted at least one statement).
                if self.stmts.len() > before_then {
                    if let Some(v) = self.plain_cond_var(cond) {
                        self.branch_conds.push((branch, v));
                    }
                }
                let then_frontier = std::mem::replace(&mut self.frontier, vec![branch]);
                if let Some(e) = else_blk {
                    self.lower_block(e);
                }
                self.frontier.extend(then_frontier);
            }
            ast::Stmt::While { cond, body } => {
                let head = self.emit(Stmt::Skip);
                let before_body = self.stmts.len();
                self.lower_block(body);
                if self.stmts.len() > before_body {
                    if let Some(v) = self.plain_cond_var(cond) {
                        self.branch_conds.push((head, v));
                    }
                }
                for &p in &self.frontier {
                    if !self.succs[p as usize].contains(&head) {
                        self.succs[p as usize].push(head);
                    }
                }
                self.frontier.clear();
                self.frontier.push(head);
            }
            ast::Stmt::Return(e) => {
                if let (Some(expr), Some(rv)) = (e, self.ret_var) {
                    self.lower_into_place(Place::Var(rv), expr);
                }
                let r = self.emit(Stmt::Return);
                self.succs[r as usize].clear();
                self.returns.push(r);
                self.frontier.clear();
            }
            ast::Stmt::Expr(e) => {
                if let Expr::Call { callee, args } = e {
                    self.lower_call(callee, args, None);
                } else {
                    // Effect-free expression statement.
                    self.emit(Stmt::Skip);
                }
            }
            ast::Stmt::Free(e) => {
                // free(p) nulls p (Remark 1) via a Free statement that
                // preserves the deallocation event for client checkers.
                match self.lower_place(e) {
                    Place::Var(v) => {
                        self.emit(Stmt::Free { dst: v });
                    }
                    Place::Deref(p) => {
                        // free(*p): load the freed pointer into a temp, free
                        // it (nulling the temp), and store the temp back —
                        // the net effect on memory is the old `*p = NULL`.
                        let t = self.fresh_temp();
                        self.emit(Stmt::Load { dst: t, src: p });
                        self.emit(Stmt::Free { dst: t });
                        self.emit(Stmt::Store { dst: p, src: t });
                    }
                }
            }
            ast::Stmt::Spawn { callee, args } => self.lower_spawn(callee, args),
            ast::Stmt::Lock(e) => {
                let m = self.lower_to_var(e);
                self.emit(Stmt::Lock { m });
            }
            ast::Stmt::Unlock(e) => {
                let m = self.lower_to_var(e);
                self.emit(Stmt::Unlock { m });
            }
            ast::Stmt::Block(b) => self.lower_block(b),
        }
    }

    /// Lowers call arguments onto the argument stack and returns where
    /// they start; a nested call's arguments stack above them.
    fn push_args(&mut self, args: &'a [Expr]) -> usize {
        let start = self.arg_stack.len();
        for a in args {
            let v = self.lower_to_var(a);
            self.arg_stack.push(v);
        }
        start
    }

    /// Emits the copies binding the arguments stacked from `start` to the
    /// parameters of `fid`, and pops them.
    fn bind_args(&mut self, fid: FuncId, start: usize) {
        let bound = (self.arg_stack.len() - start).min(self.lw.binds[fid.index()].0.len());
        for i in 0..bound {
            let (dst, src) = (self.lw.binds[fid.index()].0[i], self.arg_stack[start + i]);
            self.emit(Stmt::Copy { dst, src });
        }
        self.arg_stack.truncate(start);
    }

    /// Lowers `spawn f(args)`: argument binding copies exactly like a
    /// direct call, then a [`Stmt::Spawn`] carrying the callee. Spawning an
    /// unknown function degrades to a skip (partial-code tolerance).
    fn lower_spawn(&mut self, callee: &'a str, args: &'a [Expr]) {
        let Some(&fid) = self.lw.func_ids.get(callee).filter(|_| {
            // A local/global shadowing the name wins: then this is not a
            // direct spawn target we can resolve.
            self.lookup(callee).is_none()
        }) else {
            self.emit(Stmt::Skip);
            return;
        };
        let args = self.push_args(args);
        self.bind_args(fid, args);
        let site = self.lw.prog.fresh_call_site();
        self.emit(Stmt::Spawn(CallStmt {
            target: CallTarget::Direct(fid),
            site,
            args: Vec::new(),
            ret: None,
        }));
    }

    /// The variable a branch condition tests, when it is a plain variable
    /// reference (the only form the path-sensitive mode correlates).
    fn plain_cond_var(&mut self, cond: &Expr) -> Option<VarId> {
        match cond {
            Expr::Ident(name) => match self.lookup(name) {
                Some(Entry::Var(v)) => Some(v),
                _ => None,
            },
            _ => None,
        }
    }

    /// The place an entry stands for as an lvalue.
    fn place_of(&mut self, entry: Entry) -> Place {
        match entry {
            Entry::Var(v) => Place::Var(v),
            Entry::Struct(_) | Entry::Array(_) => {
                // Whole-struct places are handled fieldwise by
                // `lower_assign`; a whole array is not assignable in C. As
                // a raw place either degrades to a fresh temp (no aliasing
                // effect).
                Place::Var(self.fresh_temp())
            }
        }
    }

    /// Normalizes an lvalue expression to a [`Place`].
    fn lower_place(&mut self, e: &'a Expr) -> Place {
        match e {
            Expr::Ident(name) => {
                let entry = self.lookup_or_create(name);
                self.place_of(entry)
            }
            Expr::Deref(inner) => {
                let v = self.lower_to_var(inner);
                Place::Deref(v)
            }
            Expr::Field(base, fname) => {
                let found = self.field_of(base, fname);
                self.field_place(e, found)
            }
            Expr::Arrow(base, _) => {
                // p->f is (*p).f; pointed-to objects are field-insensitive,
                // so this is a plain dereference of p.
                let v = self.lower_to_var(base);
                Place::Deref(v)
            }
            // Writes through arithmetic (`*(p+i) = ..` arrives as
            // Deref(Binary)) are handled by the Deref arm; anything else is
            // not a real lvalue — degrade to a temp.
            _ => Place::Var(self.fresh_temp()),
        }
    }

    /// Resolves `base.fname` against flattened struct entries, looking the
    /// root name up once (and creating it when unknown).
    fn field_of(&mut self, base: &'a Expr, fname: &str) -> FieldLookup {
        let parent = match base {
            Expr::Ident(name) => self.lookup_or_create(name),
            Expr::Field(inner, f2) => self.field_of(inner, f2)?,
            _ => return Err(None),
        };
        match parent {
            Entry::Struct(layout) => self.lw.layout_field(layout, fname).ok_or(Some(parent)),
            Entry::Var(_) | Entry::Array(_) => Err(Some(parent)),
        }
    }

    /// The place of the field access `e`, given what [`Self::field_of`]
    /// found for it. A field of a collapsed or pointed-to struct is
    /// field-insensitive: the place of its base.
    fn field_place(&mut self, e: &'a Expr, found: FieldLookup) -> Place {
        match found {
            Ok(entry) | Err(Some(entry)) => self.place_of(entry),
            Err(None) => self.lower_place(field_root(e)),
        }
    }

    /// Lowers an expression to a variable holding its value, emitting
    /// whatever statements are needed.
    fn lower_to_var(&mut self, e: &'a Expr) -> VarId {
        match e {
            Expr::Ident(name) => match self.lookup(name) {
                Some(entry) => self.value_of(entry),
                None => match self.lw.func_ids.get(name.as_str()) {
                    Some(&fid) => {
                        // A function name used as a value.
                        let obj = self.lw.func_obj(fid);
                        self.temp_addr_of(obj)
                    }
                    None => {
                        let entry = self.create_global(name);
                        self.value_of(entry)
                    }
                },
            },
            Expr::Field(base, f) => match self.field_of(base, f) {
                // A flattened field used as a value is the field variable
                // itself — no temp. This matters for `s.fp(...)`: the
                // indirect call's function pointer must be the field var so
                // type- and points-to-based resolution see its targets.
                Ok(Entry::Var(v)) => v,
                Ok(Entry::Array(v)) => self.temp_addr_of(v),
                found => {
                    let t = self.fresh_temp();
                    self.field_into_place(Place::Var(t), e, found);
                    t
                }
            },
            _ => {
                let t = self.fresh_temp();
                self.lower_into_place(Place::Var(t), e);
                t
            }
        }
    }

    /// The value of a bound name.
    fn value_of(&mut self, entry: Entry) -> VarId {
        match entry {
            Entry::Var(v) => v,
            // The array name decays: its value is `&a[*]`.
            Entry::Array(v) => self.temp_addr_of(v),
            Entry::Struct(layout) => {
                // Whole struct as a value (e.g. a call argument): collapse
                // into a temp over-approximating all fields.
                let leaves = self.lw.leaves(layout);
                let t = self.fresh_temp();
                for s in leaves {
                    self.emit(Stmt::Copy { dst: t, src: s });
                }
                t
            }
        }
    }

    /// A fresh temp holding `&obj`.
    fn temp_addr_of(&mut self, obj: VarId) -> VarId {
        let t = self.fresh_temp();
        self.emit(Stmt::AddrOf { dst: t, obj });
        t
    }

    /// Lowers `name = rhs`.
    fn assign_to_name(&mut self, name: &'a str, rhs: &'a Expr) {
        match self.lookup_or_create(name) {
            // Whole-struct destinations expand fieldwise (struct-to-struct
            // copies, loads through pointers, collapsed sources).
            Entry::Struct(layout) => self.assign_struct(layout, rhs),
            entry => {
                let place = self.place_of(entry);
                self.lower_into_place(place, rhs);
            }
        }
    }

    fn lower_assign(&mut self, lhs: &'a Expr, rhs: &'a Expr) {
        let place = match lhs {
            Expr::Ident(name) => return self.assign_to_name(name, rhs),
            Expr::Field(base, fname) => match self.field_of(base, fname) {
                Ok(Entry::Struct(layout)) => return self.assign_struct(layout, rhs),
                found => self.field_place(lhs, found),
            },
            _ => self.lower_place(lhs),
        };
        self.lower_into_place(place, rhs);
    }

    /// Lowers `S = rhs` where `S` is a flattened struct.
    fn assign_struct(&mut self, lhs: usize, rhs: &'a Expr) {
        // A source that is not a flattened struct is collapsed: one
        // variable feeds every field.
        let collapsed = match rhs {
            Expr::Ident(name) => match self.lookup_or_create(name) {
                Entry::Struct(src) => return self.copy_struct(lhs, src),
                entry => self.place_of(entry),
            },
            Expr::Field(base, f) => match self.field_of(base, f) {
                Ok(Entry::Struct(src)) => return self.copy_struct(lhs, src),
                found => self.field_place(rhs, found),
            },
            Expr::Deref(ptr) | Expr::Arrow(ptr, _) => {
                // s = *ps, s = p->f: every field loads from the pointed-to
                // object (which is collapsed, so one object feeds all
                // fields; pointed-to structs are field-insensitive).
                let src = self.lower_to_var(ptr);
                for d in self.lw.leaves(lhs) {
                    self.emit(Stmt::Load { dst: d, src });
                }
                return;
            }
            Expr::Call { callee, args } => {
                // Struct-returning call: the callee's return is collapsed;
                // every field copies from it.
                let t = self.fresh_temp();
                self.lower_call(callee, args, Some(Place::Var(t)));
                Place::Var(t)
            }
            _ => {
                // Not a struct-shaped source: no aliasing effect.
                self.emit(Stmt::Skip);
                return;
            }
        };
        let src = self.read_place(collapsed);
        for d in self.lw.leaves(lhs) {
            self.emit(Stmt::Copy { dst: d, src });
        }
    }

    fn copy_struct(&mut self, lhs: usize, rhs: usize) {
        for i in 0..self.lw.layouts[lhs].len() {
            let (name, dst) = self.lw.layouts[lhs][i];
            match (dst, self.lw.layout_field(rhs, name)) {
                (Entry::Var(d), Some(Entry::Var(s))) | (Entry::Array(d), Some(Entry::Array(s))) => {
                    self.emit(Stmt::Copy { dst: d, src: s });
                }
                (Entry::Struct(dl), Some(Entry::Struct(sl))) => self.copy_struct(dl, sl),
                _ => {}
            }
        }
    }

    /// A variable holding the value at `place`, loading through a
    /// dereference.
    fn read_place(&mut self, place: Place) -> VarId {
        match place {
            Place::Var(v) => v,
            Place::Deref(p) => {
                let t = self.fresh_temp();
                self.emit(Stmt::Load { dst: t, src: p });
                t
            }
        }
    }

    /// Lowers `place = src`.
    fn assign_place(&mut self, place: Place, src: Place) {
        let src = self.read_place(src);
        match place {
            Place::Var(d) => {
                if d != src {
                    self.emit(Stmt::Copy { dst: d, src });
                }
            }
            Place::Deref(p) => {
                self.emit(Stmt::Store { dst: p, src });
            }
        }
    }

    /// Lowers `place = &obj`.
    fn assign_addr(&mut self, place: Place, obj: VarId) {
        match place {
            Place::Var(d) => {
                self.emit(Stmt::AddrOf { dst: d, obj });
            }
            Place::Deref(p) => {
                let t = self.temp_addr_of(obj);
                self.emit(Stmt::Store { dst: p, src: t });
            }
        }
    }

    /// Lowers `place = x` for a bound name or a flattened field `x`.
    fn assign_entry(&mut self, place: Place, entry: Entry) {
        match entry {
            Entry::Struct(layout) => {
                // Whole-struct sources expand fieldwise: every field copies
                // into a (collapsed) variable place, and `*ps = s` stores
                // every field through the pointer.
                for s in self.lw.leaves(layout) {
                    match place {
                        Place::Var(d) => self.emit(Stmt::Copy { dst: d, src: s }),
                        Place::Deref(p) => self.emit(Stmt::Store { dst: p, src: s }),
                    };
                }
            }
            // Array names decay to the address of the element summary.
            Entry::Array(v) => self.assign_addr(place, v),
            Entry::Var(v) => self.assign_place(place, Place::Var(v)),
        }
    }

    /// Lowers `place = e` for a field access `e`, given what
    /// [`Self::field_of`] found for it.
    fn field_into_place(&mut self, place: Place, e: &'a Expr, found: FieldLookup) {
        match found {
            Ok(entry) => self.assign_entry(place, entry),
            Err(_) => {
                let src = self.field_place(e, found);
                self.assign_place(place, src);
            }
        }
    }

    /// Lowers `place = rhs`, the workhorse of normalization.
    fn lower_into_place(&mut self, place: Place, rhs: &'a Expr) {
        match rhs {
            // `p = 0` is C's null pointer constant: treat exactly like NULL
            // so the flow-sensitive analysis sees the kill.
            Expr::Num(0) | Expr::Null => match place {
                Place::Var(d) => {
                    self.emit(Stmt::Null { dst: d });
                }
                Place::Deref(p) => {
                    let t = self.fresh_temp();
                    self.emit(Stmt::Null { dst: t });
                    self.emit(Stmt::Store { dst: p, src: t });
                }
            },
            Expr::Num(_) => {
                // Other integer values are irrelevant to aliasing.
                self.emit(Stmt::Skip);
            }
            Expr::Malloc => {
                let site = Loc::new(self.fid, self.stmts.len() as StmtIdx);
                let name = self.lw.heap_name(self.fname, site.stmt);
                let obj = self.lw.prog.add_var(name, VarKind::AllocSite(site), true);
                self.assign_addr(place, obj);
            }
            Expr::AddrOf(inner) => match (place, self.lower_addr_operand(inner)) {
                (_, AddrOperand::Obj(o)) => self.assign_addr(place, o),
                (Place::Var(d), AddrOperand::Value(v)) => {
                    self.emit(Stmt::Copy { dst: d, src: v });
                }
                (Place::Deref(p), AddrOperand::Value(v)) => {
                    self.emit(Stmt::Store { dst: p, src: v });
                }
            },
            Expr::Deref(inner) => {
                let src = self.lower_to_var(inner);
                match place {
                    Place::Var(d) => {
                        self.emit(Stmt::Load { dst: d, src });
                    }
                    Place::Deref(p) => {
                        let t = self.fresh_temp();
                        self.emit(Stmt::Load { dst: t, src });
                        self.emit(Stmt::Store { dst: p, src: t });
                    }
                }
            }
            Expr::Ident(name) => match self.lookup(name) {
                Some(entry) => self.assign_entry(place, entry),
                None => match self.lw.func_ids.get(name.as_str()) {
                    // A bare function name decays to its address:
                    // `c.run = worker;` means `c.run = &worker;`.
                    Some(&fid) => {
                        let obj = self.lw.func_obj(fid);
                        self.assign_addr(place, obj);
                    }
                    None => {
                        let entry = self.create_global(name);
                        self.assign_entry(place, entry);
                    }
                },
            },
            Expr::Field(base, f) => {
                let found = self.field_of(base, f);
                self.field_into_place(place, rhs, found);
            }
            Expr::Arrow(base, _) => {
                let src = Place::Deref(self.lower_to_var(base));
                self.assign_place(place, src);
            }
            Expr::Call { callee, args } => {
                self.lower_call(callee, args, Some(place));
            }
            Expr::Binary(op, a, b) => {
                if *op == BinOp::Cmp {
                    // Comparison results are never addresses.
                    self.emit(Stmt::Skip);
                    return;
                }
                // Naive pointer arithmetic: the result may alias any
                // non-constant operand; encode the choice as a
                // nondeterministic diamond.
                match (a.as_ref(), b.as_ref()) {
                    (Expr::Num(_), Expr::Num(_)) => {
                        self.emit(Stmt::Skip);
                    }
                    (Expr::Num(_), oper) | (oper, Expr::Num(_)) => {
                        self.lower_into_place(place, oper)
                    }
                    (a, b) => {
                        let branch = self.emit(Stmt::Skip);
                        let mut join = Vec::new();
                        for oper in [a, b] {
                            self.frontier.clear();
                            self.frontier.push(branch);
                            self.lower_into_place(place, oper);
                            join.extend_from_slice(&self.frontier);
                        }
                        self.frontier = join;
                    }
                }
            }
            Expr::Unary(inner) => self.lower_into_place(place, inner),
        }
    }

    /// Lowers the operand of `&e`.
    fn lower_addr_operand(&mut self, e: &'a Expr) -> AddrOperand {
        match e {
            Expr::Ident(name) => {
                let entry = match self.lookup(name) {
                    Some(entry) => entry,
                    None => match self.lw.func_ids.get(name.as_str()) {
                        Some(&fid) => return AddrOperand::Obj(self.lw.func_obj(fid)),
                        None => self.create_global(name),
                    },
                };
                match entry {
                    Entry::Var(v) => AddrOperand::Obj(v),
                    // &a on an array is the address of the element summary.
                    Entry::Array(v) => AddrOperand::Obj(v),
                    Entry::Struct(_) => {
                        // Unreachable in practice: address-taken structs are
                        // collapsed by the prepass. Degrade to a fresh object.
                        AddrOperand::Obj(self.fresh_temp())
                    }
                }
            }
            // &s.f pins the field's own abstract location (and &s.buf the
            // array summary) instead of collapsing the whole struct.
            Expr::Field(base, fname) => match self.field_of(base, fname) {
                Ok(Entry::Var(v) | Entry::Array(v)) => AddrOperand::Obj(v),
                found => match self.field_place(e, found) {
                    Place::Var(v) => AddrOperand::Obj(v),
                    Place::Deref(v) => AddrOperand::Value(v),
                },
            },
            // &*e == e
            Expr::Deref(inner) => AddrOperand::Value(self.lower_to_var(inner)),
            Expr::Arrow(base, _) => AddrOperand::Value(self.lower_to_var(base)),
            _ => AddrOperand::Value(self.lower_to_var(e)),
        }
    }

    fn lower_call(&mut self, callee: &'a Expr, args: &'a [Expr], ret_into: Option<Place>) {
        // (*fp)() and fp() both call through fp.
        let callee = match callee {
            Expr::Deref(inner) => inner.as_ref(),
            other => other,
        };
        // A named callee is looked up once: bound to a variable it is an
        // indirect call through it, unbound it may name a function.
        let (direct, bound) = match callee {
            Expr::Ident(name) => match self.lookup(name) {
                Some(entry) => (None, Some(entry)),
                None => (self.lw.func_ids.get(name.as_str()).copied(), None),
            },
            _ => (None, None),
        };
        let args = self.push_args(args);
        match direct {
            Some(fid) => {
                self.bind_args(fid, args);
                let site = self.lw.prog.fresh_call_site();
                self.emit(Stmt::Call(CallStmt {
                    target: CallTarget::Direct(fid),
                    site,
                    args: Vec::new(),
                    ret: None,
                }));
                if let (Some(place), Some(rv)) = (ret_into, self.lw.binds[fid.index()].1) {
                    match place {
                        Place::Var(d) => {
                            self.emit(Stmt::Copy { dst: d, src: rv });
                        }
                        Place::Deref(p) => {
                            let t = self.fresh_temp();
                            self.emit(Stmt::Copy { dst: t, src: rv });
                            self.emit(Stmt::Store { dst: p, src: t });
                        }
                    }
                }
            }
            None => {
                // A declaration cannot occur inside the arguments, so a
                // bound callee is still bound to the same entry.
                let fp = match bound {
                    Some(entry) => self.value_of(entry),
                    None => self.lower_to_var(callee),
                };
                let (ret, store_back) = match ret_into {
                    Some(Place::Var(d)) => (Some(d), None),
                    Some(Place::Deref(p)) => {
                        let t = self.fresh_temp();
                        (Some(t), Some((p, t)))
                    }
                    None => (None, None),
                };
                let args = self.arg_stack.split_off(args);
                let site = self.lw.prog.fresh_call_site();
                self.emit(Stmt::Call(CallStmt {
                    target: CallTarget::Indirect(fp),
                    site,
                    args,
                    ret,
                }));
                if let Some((p, t)) = store_back {
                    self.emit(Stmt::Store { dst: p, src: t });
                }
            }
        }
    }
}

enum AddrOperand {
    /// `&x` where `x` names an object: an `AddrOf` of that object.
    Obj(VarId),
    /// `&*e`: the value of `e` itself.
    Value(VarId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn stmt_kinds(prog: &Program, func: &str) -> Vec<String> {
        let f = prog.func(prog.func_named(func).unwrap());
        f.body()
            .iter()
            .map(|s| match s {
                Stmt::Copy { .. } => "copy",
                Stmt::AddrOf { .. } => "addrof",
                Stmt::Load { .. } => "load",
                Stmt::Store { .. } => "store",
                Stmt::Null { .. } => "null",
                Stmt::Free { .. } => "free",
                Stmt::Call(_) => "call",
                Stmt::Spawn(_) => "spawn",
                Stmt::Lock { .. } => "lock",
                Stmt::Unlock { .. } => "unlock",
                Stmt::Return => "return",
                Stmt::Skip => "skip",
            })
            .map(String::from)
            .collect()
    }

    #[test]
    fn lowers_four_forms() {
        let p = parse_program(
            "void main() { int a; int *x; int *y; int **z; x = &a; y = x; z = &x; *z = y; y = *z; }",
        )
        .unwrap();
        let kinds = stmt_kinds(&p, "main");
        assert!(kinds.contains(&"addrof".to_string()));
        assert!(kinds.contains(&"copy".to_string()));
        assert!(kinds.contains(&"store".to_string()));
        assert!(kinds.contains(&"load".to_string()));
    }

    #[test]
    fn nested_deref_introduces_temp() {
        let p = parse_program("void main() { int *x; int ***z; x = **z; }").unwrap();
        // x = **z lowers to t = *z; x = *t.
        let kinds = stmt_kinds(&p, "main");
        assert_eq!(kinds.iter().filter(|k| *k == "load").count(), 2);
        assert!(p.var_named("main::$t1").is_some());
    }

    #[test]
    fn malloc_becomes_addrof_heap() {
        let p = parse_program("void main() { int *x; x = malloc(4); }").unwrap();
        let f = p.func(p.func_named("main").unwrap());
        let heap = f.body().iter().find_map(|s| match s {
            Stmt::AddrOf { obj, .. } => Some(*obj),
            _ => None,
        });
        let heap = heap.expect("malloc lowered to AddrOf");
        assert!(matches!(p.var(heap).kind(), VarKind::AllocSite(_)));
    }

    #[test]
    fn free_preserves_site_with_null_semantics() {
        let p = parse_program("void main() { int *x; free(x); }").unwrap();
        let kinds = stmt_kinds(&p, "main");
        assert!(kinds.contains(&"free".to_string()));
        assert!(!kinds.contains(&"null".to_string()));
        let f = p.func(p.func_named("main").unwrap());
        let x = p.var_named("main::x").unwrap();
        assert!(f
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::Free { dst } if *dst == x)));
    }

    #[test]
    fn free_of_deref_loads_frees_and_stores_back() {
        // free(*z) must expose the freed values of *z while keeping the
        // old `*z = NULL` net effect.
        let p = parse_program("void main() { int **z; free(*z); }").unwrap();
        let kinds = stmt_kinds(&p, "main");
        let load = kinds.iter().position(|k| k == "load").unwrap();
        let free = kinds.iter().position(|k| k == "free").unwrap();
        let store = kinds.iter().position(|k| k == "store").unwrap();
        assert!(load < free && free < store);
    }

    #[test]
    fn statements_carry_source_lines() {
        let p = parse_program("void main() {\n int a;\n int *x;\n x = &a;\n free(x);\n}").unwrap();
        let f = p.func(p.func_named("main").unwrap());
        let addr = f
            .body()
            .iter()
            .position(|s| matches!(s, Stmt::AddrOf { .. }))
            .unwrap();
        let free = f
            .body()
            .iter()
            .position(|s| matches!(s, Stmt::Free { .. }))
            .unwrap();
        assert_eq!(f.line_of(addr as StmtIdx), Some(4));
        assert_eq!(f.line_of(free as StmtIdx), Some(5));
        // Entry/exit pseudo-statements have no line.
        assert_eq!(f.line_of(0), None);
    }

    #[test]
    fn direct_call_binds_params_and_return() {
        let p = parse_program(
            r#"
            int *id(int *p) { return p; }
            void main() { int a; int *x; x = id(&a); }
            "#,
        )
        .unwrap();
        let main = p.func(p.func_named("main").unwrap());
        let param = p.var_named("id::p").unwrap();
        let ret = p.var_named("id::$ret").unwrap();
        let x = p.var_named("main::x").unwrap();
        assert!(main
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::Copy { dst, .. } if *dst == param)));
        assert!(main
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::Copy { dst, src } if *dst == x && *src == ret)));
    }

    #[test]
    fn if_builds_diamond() {
        let p = parse_program(
            "void main() { int *x; int a; int b; if (a) { x = &a; } else { x = &b; } x = x; }",
        )
        .unwrap();
        let f = p.func(p.func_named("main").unwrap());
        // Find the branch skip with two successors.
        let has_diamond = (0..f.body().len() as u32).any(|i| f.succs(i).len() == 2);
        assert!(has_diamond, "if should produce a two-way branch");
    }

    #[test]
    fn while_builds_back_edge() {
        let p = parse_program("void main() { int *x; int a; while (a) { x = &a; } }").unwrap();
        let f = p.func(p.func_named("main").unwrap());
        let mut has_back_edge = false;
        for i in 0..f.body().len() as u32 {
            for &s in f.succs(i) {
                if s < i {
                    has_back_edge = true;
                }
            }
        }
        assert!(has_back_edge);
    }

    #[test]
    fn struct_fields_flatten() {
        let p = parse_program(
            r#"
            struct pair { int *fst; int *snd; };
            struct pair g;
            void main() { int a; g.fst = &a; g.snd = g.fst; }
            "#,
        )
        .unwrap();
        assert!(p.var_named("g.fst").is_some());
        assert!(p.var_named("g.snd").is_some());
    }

    #[test]
    fn address_taken_struct_collapses() {
        let p = parse_program(
            r#"
            struct pair { int *fst; int *snd; };
            void main() { struct pair s; struct pair *p; p = &s; p->fst = NULL; }
            "#,
        )
        .unwrap();
        // s is collapsed: no flattened field vars exist.
        assert!(p.var_named("main::s.fst").is_none());
        assert!(p.var_named("main::s").is_some());
    }

    #[test]
    fn whole_struct_copy_is_fieldwise() {
        let p = parse_program(
            r#"
            struct pair { int *fst; int *snd; };
            struct pair a; struct pair b;
            void main() { a = b; }
            "#,
        )
        .unwrap();
        let kinds = stmt_kinds(&p, "main");
        assert_eq!(kinds.iter().filter(|k| *k == "copy").count(), 2);
    }

    #[test]
    fn pointer_arith_aliases_operands() {
        let p = parse_program("int *a; int *b; void main() { int *x; x = a + b; }").unwrap();
        let f = p.func(p.func_named("main").unwrap());
        let x = p.var_named("main::x").unwrap();
        let copies: Vec<_> = f
            .body()
            .iter()
            .filter(|s| matches!(s, Stmt::Copy { dst, .. } if *dst == x))
            .collect();
        assert_eq!(copies.len(), 2, "x must alias both operands");
    }

    #[test]
    fn indirect_call_retains_args_until_devirt() {
        let mut p = parse_program(
            r#"
            int *id(int *q) { return q; }
            void (*fp)();
            void main() { int a; int *x; fp = &id; x = fp(&a); }
            "#,
        )
        .unwrap();
        assert!(p.has_indirect_calls());
        let id = p.func_named("id").unwrap();
        let n = p.devirtualize(|_, _| vec![id]);
        assert_eq!(n, 1);
        assert!(!p.has_indirect_calls());
        // After devirt, the param copy exists.
        let main = p.func(p.func_named("main").unwrap());
        let param = p.var_named("id::q").unwrap();
        assert!(main
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::Copy { dst, .. } if *dst == param)));
    }

    #[test]
    fn global_initializers_run_at_main_entry() {
        let p = parse_program("int a; int *p = &a; void main() { }").unwrap();
        let kinds = stmt_kinds(&p, "main");
        assert!(kinds.contains(&"addrof".to_string()));
    }

    #[test]
    fn return_jumps_to_exit() {
        let p = parse_program("void main() { int a; if (a) { return; } a = 1; }").unwrap();
        let f = p.func(p.func_named("main").unwrap());
        let ret_idx = f
            .body()
            .iter()
            .position(|s| matches!(s, Stmt::Return))
            .unwrap() as StmtIdx;
        assert_eq!(f.succs(ret_idx), &[f.exit().stmt]);
    }

    #[test]
    fn spawn_binds_params_like_a_call() {
        let p = parse_program(
            r#"
            int *g;
            void worker(int *p) { *p = NULL; }
            void main() { spawn worker(g); }
            "#,
        )
        .unwrap();
        let kinds = stmt_kinds(&p, "main");
        assert!(kinds.contains(&"spawn".to_string()));
        let main = p.func(p.func_named("main").unwrap());
        let param = p.var_named("worker::p").unwrap();
        let g = p.var_named("g").unwrap();
        assert!(main
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::Copy { dst, src } if *dst == param && *src == g)));
        // Spawn sites are call sites: the callgraph sees the edge.
        assert_eq!(main.call_sites().count(), 1);
        assert_eq!(main.spawn_sites().count(), 1);
    }

    #[test]
    fn spawn_of_unknown_function_degrades_to_skip() {
        let p = parse_program("void main() { spawn mystery(); }").unwrap();
        let kinds = stmt_kinds(&p, "main");
        assert!(!kinds.contains(&"spawn".to_string()));
    }

    #[test]
    fn lock_of_address_resolves_to_addr_of() {
        let p = parse_program("int m; void main() { lock(&m); unlock(&m); }").unwrap();
        let kinds = stmt_kinds(&p, "main");
        // lock(&m) lowers to `t = &m; lock(t)`.
        let addrof = kinds.iter().position(|k| k == "addrof").unwrap();
        let lock = kinds.iter().position(|k| k == "lock").unwrap();
        let unlock = kinds.iter().position(|k| k == "unlock").unwrap();
        assert!(addrof < lock && lock < unlock);
    }

    #[test]
    fn lock_through_pointer_uses_the_pointer() {
        let p = parse_program("int *mp; void main() { lock(mp); unlock(mp); }").unwrap();
        let f = p.func(p.func_named("main").unwrap());
        let mp = p.var_named("mp").unwrap();
        assert!(f
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::Lock { m } if *m == mp)));
    }

    #[test]
    fn unknown_identifiers_become_globals() {
        let p = parse_program("void main() { mystery = &mystery2; }").unwrap();
        assert!(p.var_named("mystery").is_some());
        assert!(p.var_named("mystery2").is_some());
    }

    #[test]
    fn whole_struct_store_through_pointer_is_fieldwise() {
        // *ps = b must store every field of b, not degrade to a temp.
        let p = parse_program(
            r#"
            struct pair { int *fst; int *snd; };
            struct pair b; struct pair *ps;
            void main() { *ps = b; }
            "#,
        )
        .unwrap();
        let f = p.func(p.func_named("main").unwrap());
        let fst = p.var_named("b.fst").unwrap();
        let snd = p.var_named("b.snd").unwrap();
        let stored: Vec<VarId> = f
            .body()
            .iter()
            .filter_map(|s| match s {
                Stmt::Store { src, .. } => Some(*src),
                _ => None,
            })
            .collect();
        assert!(stored.contains(&fst) && stored.contains(&snd));
    }

    #[test]
    fn whole_struct_load_through_pointer_is_fieldwise() {
        // a = *ps loads into every field of a.
        let p = parse_program(
            r#"
            struct pair { int *fst; int *snd; };
            struct pair a; struct pair *ps;
            void main() { a = *ps; }
            "#,
        )
        .unwrap();
        let f = p.func(p.func_named("main").unwrap());
        let fst = p.var_named("a.fst").unwrap();
        let snd = p.var_named("a.snd").unwrap();
        let loaded: Vec<VarId> = f
            .body()
            .iter()
            .filter_map(|s| match s {
                Stmt::Load { dst, .. } => Some(*dst),
                _ => None,
            })
            .collect();
        assert!(loaded.contains(&fst) && loaded.contains(&snd));
    }

    #[test]
    fn struct_return_assigns_every_field() {
        let p = parse_program(
            r#"
            struct pair { int *fst; int *snd; };
            struct pair mk() { struct pair t; return t; }
            void main() { struct pair a; a = mk(); }
            "#,
        )
        .unwrap();
        let f = p.func(p.func_named("main").unwrap());
        let fst = p.var_named("main::a.fst").unwrap();
        let snd = p.var_named("main::a.snd").unwrap();
        let copied: Vec<VarId> = f
            .body()
            .iter()
            .filter_map(|s| match s {
                Stmt::Copy { dst, .. } => Some(*dst),
                _ => None,
            })
            .collect();
        assert!(copied.contains(&fst) && copied.contains(&snd));
    }

    #[test]
    fn addr_of_field_pins_field_location() {
        // &s.f must take the address of the field variable itself, and the
        // struct must stay flattened (sibling fields remain separate).
        let p = parse_program(
            r#"
            struct pair { int *fst; int *snd; };
            int *q;
            void main() { struct pair s; int **pp; pp = &s.fst; q = *pp; }
            "#,
        )
        .unwrap();
        let fst = p.var_named("main::s.fst").expect("struct stays flattened");
        assert!(p.var_named("main::s.snd").is_some());
        let f = p.func(p.func_named("main").unwrap());
        assert!(f
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::AddrOf { obj, .. } if *obj == fst)));
    }

    #[test]
    fn array_name_decays_to_element_summary() {
        let p = parse_program("int a[8]; void main() { int *x; x = a; }").unwrap();
        let summary = p.var_named("a[*]").expect("array declares a[*] summary");
        let f = p.func(p.func_named("main").unwrap());
        let x = p.var_named("main::x").unwrap();
        assert!(f
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::AddrOf { dst, obj } if *dst == x && *obj == summary)));
    }

    #[test]
    fn array_index_stores_and_loads_through_summary() {
        let p = parse_program("int *a[8]; int b; void main() { int *x; a[2] = &b; x = a[3]; }")
            .unwrap();
        let kinds = stmt_kinds(&p, "main");
        // a[2] = &b: t = &a[*]; u = &b; *t = u. x = a[3]: t2 = &a[*]; x = *t2.
        assert!(kinds.contains(&"store".to_string()));
        assert!(kinds.contains(&"load".to_string()));
        let summary = p.var_named("a[*]").unwrap();
        let f = p.func(p.func_named("main").unwrap());
        assert!(f
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::AddrOf { obj, .. } if *obj == summary)));
    }

    #[test]
    fn addr_of_array_element_is_summary_address() {
        let p = parse_program("int a[8]; void main() { int *x; x = &a[1]; }").unwrap();
        let summary = p.var_named("a[*]").unwrap();
        let f = p.func(p.func_named("main").unwrap());
        let x = p.var_named("main::x").unwrap();
        // &a[1] == &*(a+1): x ends up holding &a[*] (possibly via a temp).
        let holds_summary = f
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::AddrOf { obj, .. } if *obj == summary));
        assert!(holds_summary);
        assert!(p.var(x).is_pointer());
    }

    #[test]
    fn multi_dim_array_summary_is_self_referential() {
        let p = parse_program("int *m[2][3]; void main() { }").unwrap();
        let summary = p.var_named("m[*]").expect("one summary for all dims");
        assert!(p.var(summary).is_pointer());
        // The self-link m[*] = &m[*] runs at main entry like a global init.
        let f = p.func(p.func_named("main").unwrap());
        assert!(f
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::AddrOf { dst, obj } if *dst == summary && *obj == summary)));
    }

    #[test]
    fn struct_with_array_field_copies_summary() {
        let p = parse_program(
            r#"
            struct buf { int *p; int data[4]; };
            struct buf a; struct buf b;
            void main() { a = b; }
            "#,
        )
        .unwrap();
        let ad = p.var_named("a.data[*]").expect("field array summary");
        let bd = p.var_named("b.data[*]").unwrap();
        let f = p.func(p.func_named("main").unwrap());
        assert!(f
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::Copy { dst, src } if *dst == ad && *src == bd)));
    }

    #[test]
    fn field_fp_call_uses_field_variable() {
        // s.run(x) must carry the *field variable* as the indirect target,
        // so devirtualization by points-to/type keeps the call edge.
        let p = parse_program(
            r#"
            struct ops { void (*run)(); };
            void handler(int *p) { }
            void main() { struct ops s; int a; s.run = &handler; s.run(&a); }
            "#,
        )
        .unwrap();
        let run = p.var_named("main::s.run").unwrap();
        let f = p.func(p.func_named("main").unwrap());
        let indirect_on_field = f.body().iter().any(|s| {
            matches!(s, Stmt::Call(c) if matches!(c.target, CallTarget::Indirect(fp) if fp == run))
        });
        assert!(indirect_on_field, "indirect call must go through s.run");
    }

    #[test]
    fn bare_function_name_rvalue_decays_to_addrof() {
        // `o.go = w;` (no explicit `&`) must bind the function object,
        // exactly like `o.go = &w;` — not invent a fresh variable `w`.
        let p = parse_program(
            r#"
            struct ops { void (*go)(int *a); };
            void w(int *a) { }
            struct ops o;
            int *gp;
            void main() { o.go = w; gp = null; *gp = 1; }
            "#,
        )
        .unwrap();
        let go = p.var_named("o.go").unwrap();
        let obj = p.var_named("&w").unwrap();
        assert!(matches!(p.var(obj).kind(), VarKind::FuncObj(_)));
        let f = p.func(p.func_named("main").unwrap());
        let bound = f
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::AddrOf { dst, obj: o2 } if *dst == go && *o2 == obj));
        assert!(
            bound,
            "o.go = w must lower to AddrOf of the function object"
        );
        // And no spurious scalar named `w` was created.
        assert!(p.var_named("w").is_none());
    }

    #[test]
    fn shadowed_struct_roots_get_distinct_bases() {
        // Two declarations of `s` in nested scopes must not share field
        // variables (the second root is renamed `...#1`).
        let p = parse_program(
            r#"
            struct pair { int *fst; int *snd; };
            void main() {
                struct pair s;
                int a;
                s.fst = &a;
                { struct pair s; s.fst = NULL; }
            }
            "#,
        )
        .unwrap();
        assert!(p.var_named("main::s.fst").is_some());
        assert!(p.var_named("main::s#1.fst").is_some());
    }

    #[test]
    fn sibling_shadowing_blocks_take_suffixes_in_order() {
        // Each block's `p` takes the next free suffix without retrying
        // the ones before it, so thousands of siblings lower quickly.
        let mut src = String::from("int a; void main() {");
        for _ in 0..4000 {
            src.push_str(" { int *p; p = &a; }");
        }
        src.push_str(" }");
        let p = parse_program(&src).unwrap();
        assert!(p.var_named("main::p").is_some());
        assert!(p.var_named("main::p#1").is_some());
        assert!(p.var_named("main::p#3999").is_some());
        assert!(p.var_named("main::p#4000").is_none());
    }

    #[test]
    fn locals_shadowing_parameters_are_renamed() {
        let p = parse_program("int a; void f(int *p) { int *p; p = &a; } void main() { }").unwrap();
        let param = p.var_named("f::p").unwrap();
        assert!(matches!(p.var(param).kind(), VarKind::Param(..)));
        assert!(matches!(
            p.var(p.var_named("f::p#1").unwrap()).kind(),
            VarKind::Local(_)
        ));
    }

    /// Everything lowering decides, in a form two programs can be compared
    /// by.
    fn render(p: &Program) -> String {
        let vars: Vec<String> = p
            .var_ids()
            .map(|v| {
                let info = p.var(v);
                format!(
                    "{} {:?} {} {:?}",
                    info.name(),
                    info.kind(),
                    info.is_pointer(),
                    info.abs_loc()
                )
            })
            .collect();
        format!("{}\n{p}\nlines {}", vars.join("\n"), p.source_lines())
    }

    #[test]
    fn lowering_files_in_order_equals_lowering_their_merged_ast() {
        let files = [
            "struct pair { int *fst; int *snd; };\nint g; int *shared; int m[2][2];",
            "int *id(int *r) { int *t; t = r; return t; }\nstruct pair gp; int *init = &g;",
            "void main() {\n int *p; int a; p = id(&a); shared = p; gp.fst = &g;\n { int *p; p = shared; if (p) { p = malloc(4); } }\n}",
        ];
        let asts: Vec<Ast> = files
            .iter()
            .map(|s| crate::parse::parse(s).unwrap())
            .collect();
        let mut merged = Ast::default();
        for a in &asts {
            merged.structs.extend(a.structs.iter().cloned());
            merged.globals.extend(a.globals.iter().cloned());
            merged.funcs.extend(a.funcs.iter().cloned());
            merged.source_lines += a.source_lines;
        }
        assert_eq!(render(&lower_files(&asts)), render(&lower(&merged)));
    }
}

#[cfg(test)]
mod null_literal_tests {
    use crate::parse_program;
    use crate::prog::Stmt;

    #[test]
    fn zero_literal_lowers_to_null_kill() {
        let p = parse_program("int a; int *x; void main() { x = &a; x = 0; }").unwrap();
        let f = p.func(p.func_named("main").unwrap());
        let x = p.var_named("x").unwrap();
        assert!(f
            .body()
            .iter()
            .any(|s| matches!(s, Stmt::Null { dst } if *dst == x)));
    }

    #[test]
    fn nonzero_literal_still_skips() {
        let p = parse_program("int a; void main() { a = 5; }").unwrap();
        let f = p.func(p.func_named("main").unwrap());
        assert!(!f.body().iter().any(|s| matches!(s, Stmt::Null { .. })));
    }
}
