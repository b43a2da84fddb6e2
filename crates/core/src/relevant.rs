//! Algorithm 1: computing the relevant statements `St_P` of a cluster.
//!
//! Given a cluster `P`, a fixpoint first computes `V_P` — the variables
//! whose values can affect aliases of pointers in `P` — and then returns
//! the statements that modify a variable of `V_P`. Restricting any later
//! analysis to `St_P` is lossless (Theorem 6) and is where the divide and
//! conquer bites: for a small cluster, most of the program is sliced away.
//!
//! The fixpoint works at variable granularity (the Steensgaard hierarchy is
//! consulted only to resolve what a store may write), which reproduces the
//! paper's Figure 3 example exactly: `3a: p = x` is *not* relevant to the
//! partition `{a, b}` even though `p` shares a Steensgaard partition with
//! `x`.

use std::collections::{HashMap, HashSet};

use bootstrap_analyses::SteensgaardResult;
use bootstrap_ir::{CallGraph, FuncId, Loc, Program, Stmt, VarId};
use bootstrap_store::FxBuildHasher;

/// The result of Algorithm 1 for one cluster.
#[derive(Clone, Debug)]
pub struct RelevantSet {
    /// `V_P`: variables whose values may affect aliases of the cluster.
    vars: HashSet<VarId, FxBuildHasher>,
    /// `St_P`: locations of statements that modify a variable of `V_P`.
    stmts: HashSet<Loc, FxBuildHasher>,
    /// Functions containing at least one statement of `St_P`.
    funcs: HashSet<FuncId, FxBuildHasher>,
}

impl RelevantSet {
    /// Returns `true` if `v` is in `V_P`.
    pub fn contains_var(&self, v: VarId) -> bool {
        self.vars.contains(&v)
    }

    /// Returns `true` if the statement at `loc` is in `St_P`.
    pub fn contains_stmt(&self, loc: Loc) -> bool {
        self.stmts.contains(&loc)
    }

    /// The variables of `V_P`.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.vars.iter().copied()
    }

    /// The locations of `St_P`.
    pub fn stmts(&self) -> impl Iterator<Item = Loc> + '_ {
        self.stmts.iter().copied()
    }

    /// Number of statements in `St_P`.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// Number of variables in `V_P`.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Functions that directly contain a relevant statement.
    pub fn funcs(&self) -> impl Iterator<Item = FuncId> + '_ {
        self.funcs.iter().copied()
    }

    /// Returns `true` if function `f` directly contains a relevant
    /// statement.
    pub fn touches_func(&self, f: FuncId) -> bool {
        self.funcs.contains(&f)
    }
}

/// Per-program index that makes Algorithm 1 demand-driven: O(|V_P| +
/// |St_P|) per cluster instead of O(program) per fixpoint round. Build it
/// once per program (the [`crate::Session`] does) and share it across
/// clusters.
#[derive(Clone, Debug)]
pub struct RelevantIndex {
    /// Statements directly defining a variable (`Copy`/`AddrOf`/`Load`/
    /// `Null` keyed by their destination).
    defs_of: HashMap<VarId, Vec<Loc>, FxBuildHasher>,
    /// Store statements keyed by the Steensgaard class they may write
    /// (the pointee class of the store base).
    stores_writing: HashMap<u32, Vec<Loc>, FxBuildHasher>,
    /// Variables whose address is taken somewhere (`&v` or a heap object);
    /// the path-sensitive mode refuses to track branch literals on these.
    addr_taken: HashSet<VarId>,
}

impl RelevantIndex {
    /// Builds the index for `program`.
    pub fn build(program: &Program, st: &SteensgaardResult) -> Self {
        let mut defs_of: HashMap<VarId, Vec<Loc>, FxBuildHasher> = HashMap::default();
        let mut stores_writing: HashMap<u32, Vec<Loc>, FxBuildHasher> = HashMap::default();
        let mut addr_taken: HashSet<VarId> = HashSet::new();
        for (loc, stmt) in program.all_locs() {
            match *stmt {
                Stmt::AddrOf { dst, obj } => {
                    defs_of.entry(dst).or_default().push(loc);
                    addr_taken.insert(obj);
                }
                Stmt::Copy { dst, .. }
                | Stmt::Load { dst, .. }
                | Stmt::Null { dst }
                | Stmt::Free { dst } => defs_of.entry(dst).or_default().push(loc),
                Stmt::Store { dst, .. } => {
                    if let Some(c) = st.pointee(st.class_of(dst)) {
                        stores_writing.entry(c.0).or_default().push(loc);
                    }
                }
                Stmt::Call(_)
                | Stmt::Spawn(_)
                | Stmt::Lock { .. }
                | Stmt::Unlock { .. }
                | Stmt::Return
                | Stmt::Skip => {}
            }
        }
        Self {
            defs_of,
            stores_writing,
            addr_taken,
        }
    }

    /// Returns `true` if `v`'s address is taken anywhere in the program.
    pub fn is_addr_taken(&self, v: VarId) -> bool {
        self.addr_taken.contains(&v)
    }

    /// The statements that directly define `v`.
    pub(crate) fn defs_of(&self, v: VarId) -> &[Loc] {
        self.defs_of.get(&v).map_or(&[], Vec::as_slice)
    }

    /// The store statements that may write Steensgaard class `class`.
    pub(crate) fn stores_writing(&self, class: u32) -> &[Loc] {
        self.stores_writing.get(&class).map_or(&[], Vec::as_slice)
    }
}

/// Runs Algorithm 1 for the cluster with the given `members`, building a
/// throwaway index. Prefer [`relevant_statements_indexed`] when analyzing
/// many clusters of the same program.
pub fn relevant_statements(
    program: &Program,
    st: &SteensgaardResult,
    members: &[VarId],
) -> RelevantSet {
    let index = RelevantIndex::build(program, st);
    relevant_statements_indexed(program, st, &index, members)
}

/// Runs Algorithm 1 for the cluster with the given `members` using a
/// prebuilt [`RelevantIndex`].
pub fn relevant_statements_indexed(
    program: &Program,
    st: &SteensgaardResult,
    index: &RelevantIndex,
    members: &[VarId],
) -> RelevantSet {
    let mut vars: HashSet<VarId, FxBuildHasher> = members.iter().copied().collect();
    let mut worklist: Vec<VarId> = members.to_vec();
    // Steensgaard classes whose store statements have been pulled in.
    let mut classes_done: HashSet<u32> = HashSet::new();

    let add = |v: VarId, vars: &mut HashSet<VarId, FxBuildHasher>, wl: &mut Vec<VarId>| {
        if vars.insert(v) {
            wl.push(v);
        }
    };

    while let Some(v) = worklist.pop() {
        // Statements directly defining v.
        if let Some(defs) = index.defs_of.get(&v) {
            for &loc in defs {
                match *program.stmt_at(loc) {
                    // p = q with p in V_P: q's value flows into the cluster.
                    Stmt::Copy { src, .. } => add(src, &mut vars, &mut worklist),
                    // p = *q: q selects the carrier; any member of q's
                    // pointee class carries the value.
                    Stmt::Load { src, .. } => {
                        add(src, &mut vars, &mut worklist);
                        if let Some(c) = st.pointee(st.class_of(src)) {
                            for &m in st.members(c) {
                                add(m, &mut vars, &mut worklist);
                            }
                        }
                    }
                    Stmt::AddrOf { .. } | Stmt::Null { .. } | Stmt::Free { .. } => {}
                    _ => {}
                }
            }
        }
        // Stores `*q = r` that may write v's class (the `q > p` and cyclic
        // cases of Algorithm 1, lines 8-9): add q and r.
        let class = st.class_of(v).0;
        if classes_done.insert(class) {
            if let Some(stores) = index.stores_writing.get(&class) {
                for &loc in stores {
                    if let Stmt::Store { dst, src } = *program.stmt_at(loc) {
                        add(dst, &mut vars, &mut worklist);
                        add(src, &mut vars, &mut worklist);
                    }
                }
            }
        }
    }

    // St_P: statements that modify a variable of V_P.
    let mut stmts = HashSet::default();
    let mut funcs = HashSet::default();
    for &v in &vars {
        if let Some(defs) = index.defs_of.get(&v) {
            for &loc in defs {
                if stmts.insert(loc) {
                    funcs.insert(loc.func);
                }
            }
        }
    }
    for class in &classes_done {
        if let Some(stores) = index.stores_writing.get(class) {
            for &loc in stores {
                if stmts.insert(loc) {
                    funcs.insert(loc.func);
                }
            }
        }
    }

    RelevantSet { vars, stmts, funcs }
}

/// Functions whose execution may modify aliases of the cluster: the
/// transitive callers^-1 closure — a function is *modifying* if it directly
/// contains a relevant statement or (transitively) calls one that does.
/// Summaries only need to be computed for modifying functions; the engine
/// skips over calls to every other function (§3: "obviates the need for
/// computing summaries for functions that don't modify any pointers in the
/// given cluster").
pub fn modifying_functions(
    program: &Program,
    cg: &CallGraph,
    relevant: &RelevantSet,
) -> HashSet<FuncId> {
    let _ = program;
    let mut modifying: HashSet<FuncId> = relevant.funcs().collect();
    // BFS up the caller edges: every (transitive) caller of a modifying
    // function is modifying.
    let mut worklist: Vec<FuncId> = modifying.iter().copied().collect();
    while let Some(f) = worklist.pop() {
        for &caller in cg.callers(f) {
            if modifying.insert(caller) {
                worklist.push(caller);
            }
        }
    }
    modifying
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootstrap_analyses::steensgaard;
    use bootstrap_ir::parse_program;

    /// The paper's Figure 3 program.
    const FIG3: &str = "
        int a; int b; int *x; int *y; int *p;
        void main() {
            x = &a;     // 1a
            y = &b;     // 2a
            p = x;      // 3a
            *x = *y;    // 4a
        }
    ";

    #[test]
    fn figure3_excludes_irrelevant_copy() {
        let prog = parse_program(FIG3).unwrap();
        let st = steensgaard::analyze(&prog);
        let v = |n: &str| prog.var_named(n).unwrap();
        let rel = relevant_statements(&prog, &st, &[v("a"), v("b")]);
        // V_P contains a, b, x, y (and the lowering temp) but NOT p.
        assert!(rel.contains_var(v("a")));
        assert!(rel.contains_var(v("x")));
        assert!(rel.contains_var(v("y")));
        assert!(!rel.contains_var(v("p")), "3a: p = x must be sliced away");
        // St_P contains 1a, 2a, 4a but not 3a.
        let main = prog.func(prog.func_named("main").unwrap());
        let p_var = v("p");
        for (loc, stmt) in main.locs() {
            match stmt {
                Stmt::Copy { dst, .. } if *dst == p_var => {
                    assert!(!rel.contains_stmt(loc), "3a must not be relevant")
                }
                Stmt::AddrOf { .. } | Stmt::Load { .. } | Stmt::Store { .. } => {
                    assert!(rel.contains_stmt(loc), "{stmt:?} at {loc} must be relevant")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn cluster_of_p_x_only_needs_its_own_defs() {
        let prog = parse_program(FIG3).unwrap();
        let st = steensgaard::analyze(&prog);
        let v = |n: &str| prog.var_named(n).unwrap();
        let rel = relevant_statements(&prog, &st, &[v("p"), v("x")]);
        assert!(rel.contains_var(v("p")));
        assert!(rel.contains_var(v("x")));
        // Aliases of {p, x} are unaffected by y or the store *x = *y.
        assert!(!rel.contains_var(v("y")));
        let main = prog.func(prog.func_named("main").unwrap());
        let store_loc = main
            .locs()
            .find(|(_, s)| matches!(s, Stmt::Store { .. }))
            .unwrap()
            .0;
        assert!(!rel.contains_stmt(store_loc));
    }

    #[test]
    fn stores_through_higher_pointer_are_relevant() {
        let prog = parse_program(
            "int a; int b; int *x; int **z;
             void main() { x = &a; z = &x; *z = &b; }",
        )
        .unwrap();
        let st = steensgaard::analyze(&prog);
        let v = |n: &str| prog.var_named(n).unwrap();
        // For cluster {x}: the store *z = &b modifies x, so z enters V_P.
        let rel = relevant_statements(&prog, &st, &[v("x")]);
        assert!(rel.contains_var(v("z")));
        let main = prog.func(prog.func_named("main").unwrap());
        let store_loc = main
            .locs()
            .find(|(_, s)| matches!(s, Stmt::Store { .. }))
            .unwrap()
            .0;
        assert!(rel.contains_stmt(store_loc));
    }

    #[test]
    fn unrelated_partitions_have_disjoint_relevant_sets() {
        let prog = parse_program(
            "int a; int b; int *x; int *y;
             void main() { x = &a; y = &b; }",
        )
        .unwrap();
        let st = steensgaard::analyze(&prog);
        let v = |n: &str| prog.var_named(n).unwrap();
        let rx = relevant_statements(&prog, &st, &[v("x")]);
        let ry = relevant_statements(&prog, &st, &[v("y")]);
        assert!(rx.contains_var(v("x")) && !rx.contains_var(v("y")));
        assert!(ry.contains_var(v("y")) && !ry.contains_var(v("x")));
        let rx_stmts: Vec<Loc> = rx.stmts().collect();
        assert!(rx_stmts.iter().all(|l| !ry.contains_stmt(*l)));
    }

    #[test]
    fn figure5_bar_does_not_touch_p1() {
        // Figure 5: partition P1 = {x, u, w, z}; function bar contains no
        // statement of St_P1.
        let prog = parse_program(
            "int **x; int **u; int **w; int **z;
             int *a; int *b; int *c; int *d;
             void foo() {
                *x = d;    // 1b
                a = b;     // 2b
                x = w;     // 3b
             }
             void bar() {
                *x = d;    // 1c
                a = b;     // 2c
             }
             void main() {
                x = &c;    // 1a (paper uses &c with c one level down)
                w = u;     // 2a
                foo();     // 3a
                z = x;     // 4a
                *z = b;    // 5a
                bar();     // 6a
             }",
        )
        .unwrap();
        let st = steensgaard::analyze(&prog);
        let v = |n: &str| prog.var_named(n).unwrap();
        let rel = relevant_statements(&prog, &st, &[v("x"), v("u"), v("w"), v("z")]);
        let bar = prog.func_named("bar").unwrap();
        assert!(
            !rel.touches_func(bar),
            "no statement of bar modifies aliases of P1"
        );
        let foo = prog.func_named("foo").unwrap();
        assert!(rel.touches_func(foo), "3b: x = w modifies P1");
    }

    #[test]
    fn modifying_functions_close_over_callers() {
        let prog = parse_program(
            "int a; int *x;
             void leaf() { x = &a; }
             void mid() { leaf(); }
             void other() { }
             void main() { mid(); other(); }",
        )
        .unwrap();
        let st = steensgaard::analyze(&prog);
        let cg = CallGraph::build(&prog);
        let v = |n: &str| prog.var_named(n).unwrap();
        let rel = relevant_statements(&prog, &st, &[v("x")]);
        let modifying = modifying_functions(&prog, &cg, &rel);
        assert!(modifying.contains(&prog.func_named("leaf").unwrap()));
        assert!(modifying.contains(&prog.func_named("mid").unwrap()));
        assert!(modifying.contains(&prog.func_named("main").unwrap()));
        assert!(!modifying.contains(&prog.func_named("other").unwrap()));
    }
}
