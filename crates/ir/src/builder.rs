//! Programmatic IR construction.
//!
//! The synthetic workload generator builds programs directly in IR form
//! (bypassing the parser) for speed and precise control over the points-to
//! structure. The builder mirrors the lowering pass's CFG discipline:
//! statement 0 is the entry skip, `if`/loop constructs manage the frontier,
//! and direct calls emit explicit parameter/return binding copies.
//!
//! # Examples
//!
//! ```
//! use bootstrap_ir::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! let a = b.global("a", false);
//! let x = b.global("x", true);
//! let main = b.declare_func("main", 0, false);
//! let mut fb = b.build_func(main);
//! fb.addr_of(x, a);
//! fb.finish();
//! let program = b.finish();
//! assert_eq!(program.entry().unwrap().name(), "main");
//! ```

use crate::ids::{FuncId, Loc, StmtIdx, VarId};
use crate::prog::{CallStmt, CallTarget, Function, Program, Stmt, VarKind};

/// Builds a [`Program`] statement by statement.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    prog: Program,
    funcs: Vec<PendingFunc>,
    func_objs: Vec<Option<VarId>>,
}

#[derive(Debug)]
struct PendingFunc {
    name: String,
    params: Vec<VarId>,
    ret: Option<VarId>,
    built: Option<BuiltBody>,
}

#[derive(Debug)]
struct BuiltBody {
    stmts: Vec<Stmt>,
    succs: Vec<Vec<StmtIdx>>,
    exit: StmtIdx,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a global variable.
    pub fn global(&mut self, name: &str, is_pointer: bool) -> VarId {
        self.prog
            .add_var(name.to_string(), VarKind::Global, is_pointer)
    }

    /// Declares a function signature; bodies are added with
    /// [`ProgramBuilder::build_func`]. Parameters are pointer-typed.
    pub fn declare_func(&mut self, name: &str, n_params: usize, has_ret: bool) -> FuncId {
        let fid = FuncId::new(self.funcs.len());
        let mut params = Vec::new();
        for i in 0..n_params {
            params.push(
                self.prog
                    .add_var(format!("{name}::p{i}"), VarKind::Param(fid, i), true),
            );
        }
        let ret = has_ret.then(|| {
            self.prog
                .add_var(format!("{name}::$ret"), VarKind::Ret(fid), true)
        });
        self.funcs.push(PendingFunc {
            name: name.to_string(),
            params,
            ret,
            built: None,
        });
        self.func_objs.push(None);
        fid
    }

    /// The declared parameters of `f`.
    pub fn params(&self, f: FuncId) -> &[VarId] {
        &self.funcs[f.index()].params
    }

    /// The declared return variable of `f`, if any.
    pub fn ret_var(&self, f: FuncId) -> Option<VarId> {
        self.funcs[f.index()].ret
    }

    /// The abstract object standing for function `f` (for `fp = &f`).
    pub fn func_obj(&mut self, f: FuncId) -> VarId {
        if let Some(v) = self.func_objs[f.index()] {
            return v;
        }
        let name = format!("&{}", self.funcs[f.index()].name);
        let v = self.prog.add_var(name, VarKind::FuncObj(f), false);
        self.func_objs[f.index()] = Some(v);
        v
    }

    /// Starts building the body of `f`. Call [`FuncBodyBuilder::finish`]
    /// when done; building the same function twice replaces the body.
    pub fn build_func(&mut self, f: FuncId) -> FuncBodyBuilder<'_> {
        FuncBodyBuilder {
            pb: self,
            fid: f,
            stmts: vec![Stmt::Skip],
            succs: vec![Vec::new()],
            frontier: vec![0],
            returns: Vec::new(),
            temp_counter: 0,
            local_counter: 0,
            if_stack: Vec::new(),
            loop_stack: Vec::new(),
        }
    }

    /// Assembles the program. Functions never built get empty bodies; the
    /// entry is the function named `main` if present, otherwise the first.
    pub fn finish(mut self) -> Program {
        for (i, pf) in self.funcs.into_iter().enumerate() {
            let fid = FuncId::new(i);
            let built = pf.built.unwrap_or_else(|| BuiltBody {
                stmts: vec![Stmt::Skip, Stmt::Skip],
                succs: vec![vec![1], vec![]],
                exit: 1,
            });
            self.prog.add_function(Function::new(
                fid,
                pf.name,
                pf.params,
                pf.ret,
                built.stmts,
                built.succs,
                built.exit,
            ));
        }
        if self.prog.entry().is_none() && self.prog.func_count() > 0 {
            self.prog.set_entry(FuncId::new(0));
        }
        self.prog
    }
}

/// Builds a single function body. Obtained from
/// [`ProgramBuilder::build_func`].
#[derive(Debug)]
pub struct FuncBodyBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    fid: FuncId,
    stmts: Vec<Stmt>,
    succs: Vec<Vec<StmtIdx>>,
    frontier: Vec<StmtIdx>,
    returns: Vec<StmtIdx>,
    temp_counter: u32,
    local_counter: u32,
    if_stack: Vec<(StmtIdx, Vec<StmtIdx>)>,
    loop_stack: Vec<StmtIdx>,
}

impl FuncBodyBuilder<'_> {
    fn emit(&mut self, stmt: Stmt) -> StmtIdx {
        let idx = self.stmts.len() as StmtIdx;
        self.stmts.push(stmt);
        self.succs.push(Vec::new());
        for &p in &self.frontier {
            self.succs[p as usize].push(idx);
        }
        self.frontier = vec![idx];
        idx
    }

    /// A fresh pointer-typed local variable.
    pub fn local(&mut self, hint: &str) -> VarId {
        self.local_counter += 1;
        let name = format!(
            "{}::{}_{}",
            self.pb.funcs[self.fid.index()].name,
            hint,
            self.local_counter
        );
        self.pb.prog.add_var(name, VarKind::Local(self.fid), true)
    }

    /// A fresh non-pointer local (an addressable object).
    pub fn object(&mut self, hint: &str) -> VarId {
        self.local_counter += 1;
        let name = format!(
            "{}::{}_{}",
            self.pb.funcs[self.fid.index()].name,
            hint,
            self.local_counter
        );
        self.pb.prog.add_var(name, VarKind::Local(self.fid), false)
    }

    /// A fresh compiler temporary.
    pub fn temp(&mut self) -> VarId {
        self.temp_counter += 1;
        let name = format!(
            "{}::$t{}",
            self.pb.funcs[self.fid.index()].name,
            self.temp_counter
        );
        self.pb.prog.add_var(name, VarKind::Temp(self.fid), true)
    }

    /// Parameter `i` of the function being built.
    pub fn param(&self, i: usize) -> VarId {
        self.pb.funcs[self.fid.index()].params[i]
    }

    /// The return variable of the function being built.
    pub fn ret_var(&self) -> Option<VarId> {
        self.pb.funcs[self.fid.index()].ret
    }

    /// Emits `dst = src`.
    pub fn copy(&mut self, dst: VarId, src: VarId) -> StmtIdx {
        self.emit(Stmt::Copy { dst, src })
    }

    /// Emits `dst = &obj`.
    pub fn addr_of(&mut self, dst: VarId, obj: VarId) -> StmtIdx {
        self.emit(Stmt::AddrOf { dst, obj })
    }

    /// Emits `dst = *src`.
    pub fn load(&mut self, dst: VarId, src: VarId) -> StmtIdx {
        self.emit(Stmt::Load { dst, src })
    }

    /// Emits `*dst = src`.
    pub fn store(&mut self, dst: VarId, src: VarId) -> StmtIdx {
        self.emit(Stmt::Store { dst, src })
    }

    /// Emits `dst = NULL`.
    pub fn null(&mut self, dst: VarId) -> StmtIdx {
        self.emit(Stmt::Null { dst })
    }

    /// Emits `free(dst)`: nulls `dst` like [`FuncBodyBuilder::null`] while
    /// recording the deallocation event for client checkers.
    pub fn free(&mut self, dst: VarId) -> StmtIdx {
        self.emit(Stmt::Free { dst })
    }

    /// Emits a no-op.
    pub fn skip(&mut self) -> StmtIdx {
        self.emit(Stmt::Skip)
    }

    /// Emits `dst = malloc(..)`: a fresh heap object plus an address-of.
    pub fn alloc(&mut self, dst: VarId) -> StmtIdx {
        let site = Loc::new(self.fid, self.stmts.len() as StmtIdx);
        let name = format!(
            "heap@{}:{}",
            self.pb.funcs[self.fid.index()].name,
            site.stmt
        );
        let obj = self.pb.prog.add_var(name, VarKind::AllocSite(site), true);
        self.emit(Stmt::AddrOf { dst, obj })
    }

    /// Emits a direct call with parameter/return binding copies.
    pub fn call(&mut self, callee: FuncId, args: &[VarId], ret_into: Option<VarId>) {
        let params = self.pb.funcs[callee.index()].params.clone();
        let ret = self.pb.funcs[callee.index()].ret;
        for (a, p) in args.iter().zip(params.iter()) {
            self.copy(*p, *a);
        }
        let site = self.pb.prog.fresh_call_site();
        self.emit(Stmt::Call(CallStmt {
            target: CallTarget::Direct(callee),
            site,
            args: Vec::new(),
            ret: None,
        }));
        if let (Some(dst), Some(rv)) = (ret_into, ret) {
            self.copy(dst, rv);
        }
    }

    /// Emits `spawn callee(args)`: parameter binding copies exactly like a
    /// direct call, then a [`Stmt::Spawn`]. Spawned functions never return
    /// a value to the spawner.
    pub fn spawn(&mut self, callee: FuncId, args: &[VarId]) {
        let params = self.pb.funcs[callee.index()].params.clone();
        for (a, p) in args.iter().zip(params.iter()) {
            self.copy(*p, *a);
        }
        let site = self.pb.prog.fresh_call_site();
        self.emit(Stmt::Spawn(CallStmt {
            target: CallTarget::Direct(callee),
            site,
            args: Vec::new(),
            ret: None,
        }));
    }

    /// Emits `lock(m)`.
    pub fn lock(&mut self, m: VarId) -> StmtIdx {
        self.emit(Stmt::Lock { m })
    }

    /// Emits `unlock(m)`.
    pub fn unlock(&mut self, m: VarId) -> StmtIdx {
        self.emit(Stmt::Unlock { m })
    }

    /// Emits `return` (after copying `value` into the return variable, if
    /// given).
    pub fn ret(&mut self, value: Option<VarId>) {
        if let (Some(v), Some(rv)) = (value, self.ret_var()) {
            self.copy(rv, v);
        }
        let r = self.emit(Stmt::Return);
        self.returns.push(r);
        self.frontier.clear();
    }

    /// Opens a nondeterministic two-way branch. Statements emitted next form
    /// the first arm; call [`FuncBodyBuilder::else_arm`] to switch arms and
    /// [`FuncBodyBuilder::end_if`] to join.
    pub fn begin_if(&mut self) {
        let branch = self.emit(Stmt::Skip);
        self.if_stack.push((branch, Vec::new()));
    }

    /// Switches to the else arm of the innermost open branch.
    ///
    /// # Panics
    ///
    /// Panics if no branch is open.
    pub fn else_arm(&mut self) {
        let (branch, join) = self.if_stack.last_mut().expect("no open if");
        join.extend(std::mem::replace(&mut self.frontier, vec![*branch]));
    }

    /// Closes the innermost open branch, joining both arms.
    ///
    /// # Panics
    ///
    /// Panics if no branch is open.
    pub fn end_if(&mut self) {
        let (_, join) = self.if_stack.pop().expect("no open if");
        self.frontier.extend(join);
    }

    /// Opens a nondeterministic loop: the loop head both enters the body
    /// and falls through to whatever follows [`FuncBodyBuilder::end_loop`].
    pub fn begin_loop(&mut self) {
        let head = self.emit(Stmt::Skip);
        self.loop_stack.push(head);
    }

    /// Closes the innermost loop, adding the back edge.
    ///
    /// # Panics
    ///
    /// Panics if no loop is open.
    pub fn end_loop(&mut self) {
        let head = self.loop_stack.pop().expect("no open loop");
        for &p in &self.frontier {
            if !self.succs[p as usize].contains(&head) {
                self.succs[p as usize].push(head);
            }
        }
        self.frontier = vec![head];
    }

    /// Finalizes the body: creates the exit pseudo-statement and records the
    /// body in the program builder.
    ///
    /// # Panics
    ///
    /// Panics if a branch or loop is still open.
    pub fn finish(mut self) {
        assert!(self.if_stack.is_empty(), "unclosed if");
        assert!(self.loop_stack.is_empty(), "unclosed loop");
        let exit = self.stmts.len() as StmtIdx;
        self.stmts.push(Stmt::Skip);
        self.succs.push(Vec::new());
        for &p in &self.frontier {
            self.succs[p as usize].push(exit);
        }
        for &r in &self.returns {
            self.succs[r as usize].push(exit);
        }
        self.pb.funcs[self.fid.index()].built = Some(BuiltBody {
            stmts: self.stmts,
            succs: self.succs,
            exit,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_branching_function() {
        let mut b = ProgramBuilder::new();
        let a = b.global("a", false);
        let c = b.global("c", false);
        let x = b.global("x", true);
        let main = b.declare_func("main", 0, false);
        let mut fb = b.build_func(main);
        fb.begin_if();
        fb.addr_of(x, a);
        fb.else_arm();
        fb.addr_of(x, c);
        fb.end_if();
        fb.skip();
        fb.finish();
        let p = b.finish();
        let f = p.func(p.func_named("main").unwrap());
        let branch = 1; // entry is 0, branch skip is 1
        assert_eq!(f.succs(branch).len(), 2);
        // Both arms join at the trailing skip.
        let join = f.body().len() as u32 - 2;
        assert_eq!(f.preds(join).len(), 2);
    }

    #[test]
    fn builds_loop_with_back_edge() {
        let mut b = ProgramBuilder::new();
        let x = b.global("x", true);
        let y = b.global("y", true);
        let main = b.declare_func("main", 0, false);
        let mut fb = b.build_func(main);
        fb.begin_loop();
        fb.copy(x, y);
        fb.end_loop();
        fb.finish();
        let p = b.finish();
        let f = p.func(p.func_named("main").unwrap());
        let head = 1;
        // Loop head reaches the copy and the exit.
        assert_eq!(f.succs(head).len(), 2);
        // The copy loops back to the head.
        assert!(f.succs(2).contains(&head));
    }

    #[test]
    fn call_binds_params_and_ret() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", true);
        let callee = b.declare_func("callee", 1, true);
        let main = b.declare_func("main", 0, false);
        let mut fb = b.build_func(callee);
        let p0 = fb.param(0);
        fb.ret(Some(p0));
        fb.finish();
        let mut fb = b.build_func(main);
        fb.call(callee, &[g], Some(g));
        fb.finish();
        let p = b.finish();
        let main_f = p.func(p.func_named("main").unwrap());
        let param = p.var_named("callee::p0").unwrap();
        let ret = p.var_named("callee::$ret").unwrap();
        let stmts = main_f.body();
        assert!(stmts
            .iter()
            .any(|s| matches!(s, Stmt::Copy { dst, src } if *dst == param && *src == g)));
        assert!(stmts
            .iter()
            .any(|s| matches!(s, Stmt::Copy { dst, src } if *dst == g && *src == ret)));
    }

    #[test]
    fn unbuilt_function_gets_empty_body() {
        let mut b = ProgramBuilder::new();
        b.declare_func("main", 0, false);
        let never = b.declare_func("never_built", 0, false);
        let p = b.finish();
        assert_eq!(p.func(never).body().len(), 2);
    }

    #[test]
    fn alloc_creates_heap_object() {
        let mut b = ProgramBuilder::new();
        let x = b.global("x", true);
        let main = b.declare_func("main", 0, false);
        let mut fb = b.build_func(main);
        fb.alloc(x);
        fb.finish();
        let p = b.finish();
        let heap = p.var_named("heap@main:1").unwrap();
        assert!(matches!(p.var(heap).kind(), VarKind::AllocSite(_)));
    }

    #[test]
    #[should_panic(expected = "unclosed if")]
    fn unclosed_if_panics() {
        let mut b = ProgramBuilder::new();
        let main = b.declare_func("main", 0, false);
        let mut fb = b.build_func(main);
        fb.begin_if();
        fb.finish();
    }
}
