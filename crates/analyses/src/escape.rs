//! Thread-escape analysis for the spawn-extended mini-C IR.
//!
//! `spawn f(args)` starts a new abstract thread rooted at `f`. This module
//! answers two questions the data-race detector needs:
//!
//! 1. **Which abstract locations escape their creating thread?** A location
//!    escapes when more than one thread can reach it: globals (shared by
//!    every thread), variables of functions that run in several threads,
//!    and everything reachable from those through the points-to relation.
//!    Only escaped locations can be involved in a race.
//! 2. **Which accesses can run concurrently?** Each spawn site is one
//!    abstract thread; the program entry is the main thread. Two accesses
//!    may run concurrently when their functions' thread sets contain two
//!    distinct threads, or share a thread that may have multiple dynamic
//!    instances (a spawn inside a loop, a spawned spawner, a doubly-invoked
//!    spawner).
//!
//! The analysis is flow-insensitive and ordering-oblivious (no
//! may-happen-in-parallel pruning): everything after `spawn` in the spawner
//! is assumed concurrent with the spawned thread. That is the conservative
//! direction for a race detector. Reachability runs over whichever
//! points-to relation the caller supplies — Steensgaard partitions give a
//! sound whole-program closure in near-linear time; Andersen sets tighten
//! it when available.

use bootstrap_ir::callgraph::tarjan;
use bootstrap_ir::{CallTarget, FuncId, Function, Loc, Program, Stmt, StmtIdx, VarId, VarKind};

/// Identifies one abstract thread; `0` is always the main thread.
pub type ThreadId = u32;

/// The main thread's id.
pub const MAIN_THREAD: ThreadId = 0;

/// One abstract thread: the main thread or one spawn site.
#[derive(Clone, Debug)]
pub struct Thread {
    /// The function the thread starts executing.
    pub entry: FuncId,
    /// The spawn statement creating the thread (`None` for main).
    pub spawn_site: Option<Loc>,
    /// Whether more than one dynamic instance of this thread may exist
    /// (spawn in a CFG cycle, or a spawner that itself executes more than
    /// once). Two accesses from the same multi-instance thread may race
    /// with each other.
    pub multi: bool,
}

/// The result of [`analyze`].
#[derive(Clone, Debug)]
pub struct EscapeResult {
    threads: Vec<Thread>,
    /// Sorted thread ids per function, indexed by `FuncId`.
    func_threads: Vec<Vec<ThreadId>>,
    /// Escape flag per variable, indexed by `VarId`.
    escaped: Vec<bool>,
}

impl EscapeResult {
    /// Returns `true` when `v` is reachable from more than one thread.
    pub fn escapes(&self, v: VarId) -> bool {
        self.escaped.get(v.index()).copied().unwrap_or(false)
    }

    /// All abstract threads, main first, then spawn sites in `(func, stmt)`
    /// order.
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// Number of abstract threads (1 = sequential program).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The sorted set of threads that may execute `f`.
    pub fn threads_of(&self, f: FuncId) -> &[ThreadId] {
        static EMPTY: [ThreadId; 0] = [];
        self.func_threads
            .get(f.index())
            .map(Vec::as_slice)
            .unwrap_or(&EMPTY)
    }

    /// Returns `true` when code in `f` and code in `g` may execute
    /// concurrently: their thread sets contain two distinct threads, or a
    /// common thread with multiple dynamic instances.
    pub fn may_run_concurrently(&self, f: FuncId, g: FuncId) -> bool {
        let (a, b) = (self.threads_of(f), self.threads_of(g));
        for &ta in a {
            for &tb in b {
                if ta != tb || self.threads[ta as usize].multi {
                    return true;
                }
            }
        }
        false
    }
}

/// Runs the escape analysis. `pts` maps a pointer variable to the abstract
/// objects it may point to (any sound may-points-to relation works; coarser
/// relations only widen the escape set).
///
/// The cost is linear in statements, invocation edges and the points-to
/// closure the escape set walks.
pub fn analyze(program: &Program, pts: impl Fn(VarId) -> Vec<VarId>) -> EscapeResult {
    let n_funcs = program.func_count();
    let n_vars = program.var_count();
    let inv = Invocations::collect(program, &pts);

    // Threads: main first, then one per (spawn site, target).
    let main_entry = program.entry().map(|f| f.id());
    let mut threads: Vec<Thread> = Vec::new();
    if let Some(e) = main_entry {
        threads.push(Thread {
            entry: e,
            spawn_site: None,
            multi: false,
        });
    }
    for &(loc, g) in &inv.spawns {
        threads.push(Thread {
            entry: g,
            spawn_site: Some(loc),
            multi: false,
        });
    }

    // Thread sets per function: the thread's entry seeds it, call edges
    // propagate it (spawn edges start a *different* thread, so they do not
    // propagate the spawner's ids).
    let mut func_threads: Vec<Vec<ThreadId>> = vec![Vec::new(); n_funcs];
    let mut work: Vec<(FuncId, ThreadId)> = threads
        .iter()
        .enumerate()
        .map(|(tid, t)| (t.entry, tid as ThreadId))
        .collect();
    while let Some((f, tid)) = work.pop() {
        let set = &mut func_threads[f.index()];
        if set.contains(&tid) {
            continue;
        }
        set.push(tid);
        for &g in &inv.call_edges[f.index()] {
            work.push((g, tid));
        }
    }
    for set in &mut func_threads {
        set.sort_unstable();
    }

    // A spawn makes a multi-instance thread when it sits on a CFG cycle
    // or its spawner may run more than once. One SCC pass per invoking
    // function marks the statements on a cycle.
    let cyclic: Vec<Vec<bool>> = program
        .functions()
        .map(|func| {
            if inv.invoke_edges[func.id().index()].is_empty() {
                Vec::new()
            } else {
                cfg_cycle_flags(func)
            }
        })
        .collect();
    let on_cycle = |loc: Loc| cyclic[loc.func.index()][loc.stmt as usize];
    let exec_multi = exec_multi(&inv, on_cycle);
    for t in threads.iter_mut() {
        if let Some(site) = t.spawn_site {
            t.multi = on_cycle(site) || exec_multi[site.func.index()];
        }
    }

    // Escape set: propagate per-variable thread access sets through the
    // points-to relation. A variable is seeded with the threads of its
    // owning function (globals with every thread — any thread can name
    // them); if thread t can access pointer v, t can access everything v
    // points to. An object escapes when at least two distinct threads
    // reach it. Sequential programs share nothing.
    let mut escaped = vec![false; n_vars];
    if threads.len() > 1 {
        let all_tids: Vec<ThreadId> = (0..threads.len() as ThreadId).collect();
        let mut access: Vec<Vec<ThreadId>> = vec![Vec::new(); n_vars];
        let mut work: Vec<(VarId, ThreadId)> = Vec::new();
        for i in 0..n_vars {
            let v = VarId::new(i);
            let kind = program.var(v).kind();
            if kind.is_synthetic_object() {
                continue;
            }
            match kind.owner() {
                None if matches!(kind, VarKind::Global) => {
                    work.extend(all_tids.iter().map(|&t| (v, t)));
                }
                Some(f) => {
                    work.extend(func_threads[f.index()].iter().map(|&t| (v, t)));
                }
                // Heap objects and other unowned abstractions are reached
                // only through pointers (the closure below).
                None => {}
            }
        }
        while let Some((v, t)) = work.pop() {
            let set = &mut access[v.index()];
            if set.contains(&t) {
                continue;
            }
            set.push(t);
            for o in pts(v) {
                if o.index() < n_vars && !program.var(o).kind().is_synthetic_object() {
                    work.push((o, t));
                }
            }
        }
        for i in 0..n_vars {
            escaped[i] = access[i].len() >= 2;
        }
    }

    EscapeResult {
        threads,
        func_threads,
        escaped,
    }
}

/// Who calls or spawns whom, and from where.
struct Invocations {
    /// Call targets per function, indexed by `FuncId` (spawns excluded).
    call_edges: Vec<Vec<FuncId>>,
    /// Call and spawn targets per function, indexed by `FuncId`.
    invoke_edges: Vec<Vec<FuncId>>,
    /// The call and spawn sites invoking each function, indexed by
    /// `FuncId`.
    invoking_sites: Vec<Vec<Loc>>,
    /// `(spawn site, target)` pairs in `(func, stmt, target)` order.
    spawns: Vec<(Loc, FuncId)>,
}

impl Invocations {
    /// Collects every call and spawn edge of `program` in one pass.
    fn collect(program: &Program, pts: &impl Fn(VarId) -> Vec<VarId>) -> Self {
        // Resolve an invocation target set: direct targets verbatim,
        // indirect ones through the points-to relation (function objects
        // only). The session pipeline devirtualizes before analysis, so
        // the indirect arm is a safety net for raw programs.
        let targets_of = |target: &CallTarget| -> Vec<FuncId> {
            match *target {
                CallTarget::Direct(g) => vec![g],
                CallTarget::Indirect(fp) => {
                    let mut out: Vec<FuncId> = pts(fp)
                        .into_iter()
                        .filter_map(|o| match program.var(o).kind() {
                            VarKind::FuncObj(g) => Some(*g),
                            _ => None,
                        })
                        .collect();
                    out.sort_unstable();
                    out.dedup();
                    out
                }
            }
        };

        let n_funcs = program.func_count();
        let mut inv = Invocations {
            call_edges: vec![Vec::new(); n_funcs],
            invoke_edges: vec![Vec::new(); n_funcs],
            invoking_sites: vec![Vec::new(); n_funcs],
            spawns: Vec::new(),
        };
        for func in program.functions() {
            let f = func.id().index();
            for (loc, stmt) in func.locs() {
                match stmt {
                    Stmt::Call(c) => {
                        for g in targets_of(&c.target) {
                            inv.call_edges[f].push(g);
                            inv.invoke_edges[f].push(g);
                            inv.invoking_sites[g.index()].push(loc);
                        }
                    }
                    Stmt::Spawn(c) => {
                        for g in targets_of(&c.target) {
                            inv.spawns.push((loc, g));
                            inv.invoke_edges[f].push(g);
                            inv.invoking_sites[g.index()].push(loc);
                        }
                    }
                    _ => {}
                }
            }
        }
        inv.spawns
            .sort_unstable_by_key(|(loc, g)| (loc.func, loc.stmt, *g));
        inv
    }
}

/// Marks the statements of `func` that lie on a CFG cycle: members of a
/// strongly connected component of two or more statements, and
/// statements that are their own successor.
fn cfg_cycle_flags(func: &Function) -> Vec<bool> {
    let n = func.body().len();
    let succs = |s: usize| func.succs(s as StmtIdx).iter().map(|&t| t as usize);
    let (sccs, scc_of) = tarjan(n, succs);
    (0..n)
        .map(|s| sccs[scc_of[s]].len() > 1 || succs(s).any(|t| t == s))
        .collect()
}

/// `exec_multi[f]`: f's body may execute more than once per program run.
/// That holds when f is recursive (its SCC of the call-and-spawn
/// invocation graph has two or more members, or f invokes itself), has
/// two or more invoking sites, or has an invoking site that lies on a CFG
/// cycle or belongs to a function that itself may run more than once.
/// Tarjan emits SCCs targets first, so walking them in reverse settles
/// every invoker outside an SCC before its targets, in one sweep.
fn exec_multi(inv: &Invocations, on_cycle: impl Fn(Loc) -> bool) -> Vec<bool> {
    let n_funcs = inv.invoke_edges.len();
    let (sccs, _) = tarjan(n_funcs, |f| inv.invoke_edges[f].iter().map(|g| g.index()));
    let mut exec_multi = vec![false; n_funcs];
    for comp in sccs.iter().rev() {
        for &f in comp {
            let sites = &inv.invoking_sites[f];
            exec_multi[f] = comp.len() > 1
                || sites.len() >= 2
                || sites.iter().any(|&s| {
                    let invoker = s.func.index();
                    invoker == f || on_cycle(s) || exec_multi[invoker]
                });
        }
    }
    exec_multi
}

#[cfg(test)]
mod reference {
    //! The routines [`super::analyze`] used before its SCC passes, kept
    //! verbatim as the oracle for them: a DFS per invoking site for CFG
    //! cycle membership, a DFS per function for recursion, and an
    //! `exec_multi` sweep repeated until nothing changes.

    use std::collections::HashSet;

    use bootstrap_ir::{FuncId, Loc, Program};

    use super::Invocations;

    /// Per-statement CFG cycle membership for invoking sites: a site inside
    /// a loop may execute its invocation repeatedly.
    pub(super) fn in_cycle(program: &Program, loc: Loc) -> bool {
        let func = program.func(loc.func);
        let mut seen = HashSet::new();
        let mut stack: Vec<u32> = func.succs(loc.stmt).to_vec();
        while let Some(s) = stack.pop() {
            if s == loc.stmt {
                return true;
            }
            if seen.insert(s) {
                stack.extend_from_slice(func.succs(s));
            }
        }
        false
    }

    /// `exec_multi[f]`: f's body may execute more than once per program run.
    /// Seeds: recursion (f reaches itself over invocation edges) and two or
    /// more static invoking sites. Propagation: an invoking site that is in
    /// a CFG cycle, or belongs to a function that itself executes more than
    /// once, makes the target multi.
    pub(super) fn exec_multi(program: &Program, inv: &Invocations) -> Vec<bool> {
        let n_funcs = program.func_count();
        let in_cycle = |loc: Loc| in_cycle(program, loc);
        let (call_edges, invoking_sites, spawns) =
            (&inv.call_edges, &inv.invoking_sites, &inv.spawns);
        let mut exec_multi = vec![false; n_funcs];
        for f in 0..n_funcs {
            if invoking_sites[f].len() >= 2 {
                exec_multi[f] = true;
            }
        }
        // Recursion over invocation edges (calls and spawns alike).
        let mut invoke_edges: Vec<Vec<FuncId>> = call_edges.clone();
        for &(loc, g) in spawns {
            invoke_edges[loc.func.index()].push(g);
        }
        for f in 0..n_funcs {
            let mut seen = HashSet::new();
            let mut stack = invoke_edges[f].clone();
            while let Some(g) = stack.pop() {
                if g.index() == f {
                    exec_multi[f] = true;
                    break;
                }
                if seen.insert(g) {
                    stack.extend_from_slice(&invoke_edges[g.index()]);
                }
            }
        }
        let site_cycles: Vec<Vec<bool>> = invoking_sites
            .iter()
            .map(|sites| sites.iter().map(|&s| in_cycle(s)).collect())
            .collect();
        loop {
            let mut changed = false;
            for f in 0..n_funcs {
                if exec_multi[f] {
                    continue;
                }
                let multi = invoking_sites[f]
                    .iter()
                    .enumerate()
                    .any(|(i, s)| site_cycles[f][i] || exec_multi[s.func.index()]);
                if multi {
                    exec_multi[f] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        exec_multi
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::steensgaard;
    use bootstrap_ir::parse_program;
    use bootstrap_workloads::minic::{self, MiniCConfig};

    fn run(src: &str) -> (bootstrap_ir::Program, EscapeResult) {
        let p = parse_program(src).unwrap();
        let st = steensgaard::analyze(&p);
        let r = analyze(&p, |v| st.points_to_vars(v).to_vec());
        (p, r)
    }

    #[test]
    fn sequential_program_has_one_thread_and_no_escapes() {
        let (p, r) = run("int g; void main() { g = 1; }");
        assert_eq!(r.thread_count(), 1);
        assert!(!r.escapes(p.var_named("g").unwrap()));
        let main = p.func_named("main").unwrap();
        assert!(!r.may_run_concurrently(main, main));
    }

    #[test]
    fn spawn_makes_globals_escape() {
        let (p, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void main() { spawn worker(); g = 2; }
            "#);
        assert_eq!(r.thread_count(), 2);
        assert!(r.escapes(p.var_named("g").unwrap()));
        let main = p.func_named("main").unwrap();
        let worker = p.func_named("worker").unwrap();
        assert!(r.may_run_concurrently(main, worker));
        assert!(!r.may_run_concurrently(main, main));
        assert!(!r.may_run_concurrently(worker, worker));
    }

    #[test]
    fn local_passed_to_spawn_escapes_but_private_local_does_not() {
        let (p, r) = run(r#"
            void worker(int *q) { *q = 1; }
            void main() { int shared; int private; spawn worker(&shared); private = 2; }
            "#);
        assert!(r.escapes(p.var_named("main::shared").unwrap()));
        assert!(!r.escapes(p.var_named("main::private").unwrap()));
    }

    #[test]
    fn heap_reachable_from_global_escapes() {
        let (p, r) = run(r#"
            int *g;
            void worker() { *g = 1; }
            void main() { g = malloc(4); spawn worker(); }
            "#);
        let heap = p
            .var_named("heap@main:1")
            .or_else(|| p.var_named("heap@main:2"))
            .expect("heap object");
        assert!(r.escapes(heap));
    }

    #[test]
    fn spawn_in_loop_is_multi_instance() {
        let (p, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void main() { int i; while (i) { spawn worker(); } }
            "#);
        let worker_thread = r.threads().iter().find(|t| t.spawn_site.is_some()).unwrap();
        assert!(worker_thread.multi);
        let worker = p.func_named("worker").unwrap();
        assert!(r.may_run_concurrently(worker, worker));
    }

    #[test]
    fn two_spawns_of_same_function_race_with_each_other() {
        let (p, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void main() { spawn worker(); spawn worker(); }
            "#);
        assert_eq!(r.thread_count(), 3);
        let worker = p.func_named("worker").unwrap();
        assert_eq!(r.threads_of(worker).len(), 2);
        assert!(r.may_run_concurrently(worker, worker));
    }

    #[test]
    fn function_called_from_both_threads_is_in_both_sets() {
        let (p, r) = run(r#"
            int g;
            void shared_fn() { g = 1; }
            void worker() { shared_fn(); }
            void main() { spawn worker(); shared_fn(); }
            "#);
        let f = p.func_named("shared_fn").unwrap();
        assert_eq!(r.threads_of(f).len(), 2);
        assert!(r.may_run_concurrently(f, f));
        // Locals of a multi-thread function escape.
        let (p2, r2) = run(r#"
            int g;
            void shared_fn() { int l; int *x; x = &l; g = 1; }
            void worker() { shared_fn(); }
            void main() { spawn worker(); shared_fn(); }
            "#);
        assert!(r2.escapes(p2.var_named("shared_fn::l").unwrap()));
    }

    /// The thread spawned at the only spawn site.
    fn spawned(r: &EscapeResult) -> &Thread {
        let mut spawned = r.threads().iter().filter(|t| t.spawn_site.is_some());
        let t = spawned.next().expect("one spawn site");
        assert!(spawned.next().is_none(), "more than one spawn site");
        t
    }

    #[test]
    fn spawn_after_a_loop_is_single_instance() {
        let (p, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void main() { int i; while (i) { i = i - 1; } spawn worker(); }
            "#);
        assert!(!spawned(&r).multi);
        let worker = p.func_named("worker").unwrap();
        assert!(!r.may_run_concurrently(worker, worker));
    }

    #[test]
    fn spawn_in_a_loop_nested_in_an_if_is_multi_instance() {
        let (p, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void main() { int i; if (i) { while (i) { spawn worker(); } } }
            "#);
        assert!(spawned(&r).multi);
        let worker = p.func_named("worker").unwrap();
        assert!(r.may_run_concurrently(worker, worker));
    }

    #[test]
    fn spawner_called_in_its_callers_loop_is_multi_instance() {
        let (_, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void spawner() { spawn worker(); }
            void main() { int i; while (i) { spawner(); } }
            "#);
        assert!(spawned(&r).multi);
        // The same spawner called once, outside any loop, spawns once.
        let (_, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void spawner() { spawn worker(); }
            void main() { int i; while (i) { i = i - 1; } spawner(); }
            "#);
        assert!(!spawned(&r).multi);
    }

    #[test]
    fn spawn_in_a_self_recursive_function_is_multi_instance() {
        let (_, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void rec() { int i; spawn worker(); if (i) { rec(); } }
            void main() { rec(); }
            "#);
        assert!(spawned(&r).multi);
        // Recursion alone: `main` has no invoking site but its own.
        let (_, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void main() { int i; spawn worker(); if (i) { main(); } }
            "#);
        assert!(spawned(&r).multi);
    }

    #[test]
    fn spawn_reached_through_a_doubly_called_function_is_multi_instance() {
        let (p, r) = run(r#"
            int g;
            void worker() { g = 1; }
            void spawner() { spawn worker(); }
            void twice() { spawner(); }
            void main() { twice(); twice(); }
            "#);
        assert!(spawned(&r).multi);
        let worker = p.func_named("worker").unwrap();
        assert!(r.may_run_concurrently(worker, worker));
    }

    /// Asserts that the SCC passes give every statement's cycle flag,
    /// every function's `exec_multi` flag and every spawn thread's `multi`
    /// flag the value the reference routines give. Returns the number of
    /// spawn threads and how many of them are multi-instance.
    fn assert_matches_reference(p: &Program, label: &str) -> (usize, usize) {
        let st = steensgaard::analyze(p);
        let pts = |v: VarId| st.points_to_vars(v).to_vec();
        let cyclic: Vec<Vec<bool>> = p.functions().map(cfg_cycle_flags).collect();
        for func in p.functions() {
            for (s, &flag) in cyclic[func.id().index()].iter().enumerate() {
                let loc = Loc::new(func.id(), s as StmtIdx);
                assert_eq!(
                    flag,
                    reference::in_cycle(p, loc),
                    "{label}: cycle flag of {}@{s}",
                    func.name()
                );
            }
        }
        let inv = Invocations::collect(p, &pts);
        let want = reference::exec_multi(p, &inv);
        let got = exec_multi(&inv, |loc| cyclic[loc.func.index()][loc.stmt as usize]);
        assert_eq!(got, want, "{label}: exec_multi");
        let r = analyze(p, pts);
        let (mut threads, mut multi) = (0, 0);
        for t in r.threads() {
            if let Some(site) = t.spawn_site {
                let want = reference::in_cycle(p, site) || want[site.func.index()];
                assert_eq!(t.multi, want, "{label}: multi of the spawn at {site:?}");
                threads += 1;
                multi += usize::from(t.multi);
            }
        }
        (threads, multi)
    }

    /// Checks `source` as parsed and after devirtualization.
    fn assert_source_matches_reference(source: &str, label: &str) -> (usize, usize) {
        let mut p = parse_program(source).unwrap_or_else(|e| panic!("{label}: {e}"));
        let raw = assert_matches_reference(&p, label);
        steensgaard::resolve_and_devirtualize(&mut p);
        let devirtualized = assert_matches_reference(&p, &format!("{label} (devirtualized)"));
        (raw.0 + devirtualized.0, raw.1 + devirtualized.1)
    }

    #[test]
    fn scc_flags_match_the_reference_on_generated_programs() {
        let (mut threads, mut multi) = (0, 0);
        for seed in 0..320u64 {
            let i = seed as usize;
            let mut prog = minic::generate(&MiniCConfig {
                seed,
                n_funcs: 1 + i % 6,
                stmts_per_func: 4 + (i * 7) % 14,
                fn_ptrs: i.is_multiple_of(3),
                structs: i % 4 == 1,
                concurrency: true,
                control_flow: true,
                recursion: true,
                ..MiniCConfig::default()
            });
            // The generator emits calls and spawns only at the top level
            // of a body; wrap some lines in loops and branches so invoking
            // sites land on (and next to) CFG cycles too.
            if seed % 2 == 1 {
                for func in &mut prog.funcs {
                    for (k, line) in func.body.iter_mut().enumerate() {
                        if line.starts_with("int ") {
                            continue;
                        }
                        *line = match (i + k) % 5 {
                            0 => format!("while (c0) {{ {line} }}"),
                            1 => format!("if (c1) {{ while (c0) {{ {line} }} }}"),
                            2 => format!("if (c0) {{ {line} }}"),
                            _ => continue,
                        };
                    }
                }
            }
            let (t, m) = assert_source_matches_reference(&prog.render(), &format!("seed {seed}"));
            threads += t;
            multi += m;
        }
        assert!(multi > 100, "only {multi} multi-instance threads");
        assert!(
            threads - multi > 100,
            "only {} single-instance threads",
            threads - multi
        );
    }

    #[test]
    fn scc_flags_match_the_reference_on_committed_programs() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = vec![root.join("examples/real/bzlite.c")];
        for dir in ["examples/c", "tests/fixtures", "crates/fuzz/corpus"] {
            for entry in std::fs::read_dir(root.join(dir)).expect("committed directory") {
                let path = entry.expect("directory entry").path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                if name.ends_with(".c") && !name.starts_with("invalid_") {
                    files.push(path);
                }
            }
        }
        files.sort();
        assert!(files.len() >= 15, "found only {} files", files.len());
        for path in &files {
            let source = std::fs::read_to_string(path).expect("committed file reads");
            assert_source_matches_reference(&source, &path.display().to_string());
        }
    }
}
