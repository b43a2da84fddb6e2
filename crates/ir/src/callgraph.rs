//! Call-graph construction and strongly connected components.
//!
//! The summarization engine (paper §3, Algorithm 5) processes the strongly
//! connected components of the call graph in reverse topological order; each
//! SCC is analyzed to a fixpoint to handle recursion.

use std::collections::HashSet;

use crate::ids::{FuncId, Loc};
use crate::prog::{CallTarget, Program};

/// The program call graph.
///
/// Indirect calls contribute edges only after
/// [`Program::devirtualize`] has rewritten them into direct calls; build the
/// graph after devirtualization for a complete picture.
///
/// # Examples
///
/// ```
/// let p = bootstrap_ir::parse_program(
///     "void g() { } void f() { g(); } void main() { f(); }",
/// )
/// .unwrap();
/// let cg = bootstrap_ir::CallGraph::build(&p);
/// let f = p.func_named("f").unwrap();
/// let g = p.func_named("g").unwrap();
/// assert_eq!(cg.callees(f), &[g]);
/// ```
#[derive(Clone, Debug)]
pub struct CallGraph {
    callees: Vec<Vec<FuncId>>,
    callers: Vec<Vec<FuncId>>,
    call_sites: Vec<Vec<(Loc, FuncId)>>,
    sccs: Vec<Vec<FuncId>>,
    scc_of: Vec<usize>,
}

impl CallGraph {
    /// Builds the call graph of `program` from its direct call sites.
    pub fn build(program: &Program) -> Self {
        let n = program.func_count();
        let mut callees: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        let mut callers: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        let mut call_sites: Vec<Vec<(Loc, FuncId)>> = vec![Vec::new(); n];
        for func in program.functions() {
            for (loc, call) in func.call_sites() {
                if let CallTarget::Direct(target) = call.target {
                    if !callees[func.id().index()].contains(&target) {
                        callees[func.id().index()].push(target);
                    }
                    if !callers[target.index()].contains(&func.id()) {
                        callers[target.index()].push(func.id());
                    }
                    call_sites[func.id().index()].push((loc, target));
                }
            }
        }
        let (sccs, scc_of) = tarjan(n, |f| callees[f].iter().map(|g| g.index()));
        let sccs = sccs
            .into_iter()
            .map(|comp| comp.into_iter().map(FuncId::new).collect())
            .collect();
        Self {
            callees,
            callers,
            call_sites,
            sccs,
            scc_of,
        }
    }

    /// Functions directly called by `f` (deduplicated).
    pub fn callees(&self, f: FuncId) -> &[FuncId] {
        &self.callees[f.index()]
    }

    /// Functions that directly call `f` (deduplicated).
    pub fn callers(&self, f: FuncId) -> &[FuncId] {
        &self.callers[f.index()]
    }

    /// Direct call sites in `f`, as `(location, callee)` pairs.
    pub fn call_sites_in(&self, f: FuncId) -> &[(Loc, FuncId)] {
        &self.call_sites[f.index()]
    }

    /// Strongly connected components, in *reverse topological order* of the
    /// condensation (callees before callers) — the order Algorithm 5
    /// processes them in.
    pub fn sccs(&self) -> &[Vec<FuncId>] {
        &self.sccs
    }

    /// Index (into [`CallGraph::sccs`]) of the SCC containing `f`.
    pub fn scc_of(&self, f: FuncId) -> usize {
        self.scc_of[f.index()]
    }

    /// Returns `true` if `f` participates in recursion (its SCC has more
    /// than one member, or it calls itself).
    pub fn is_recursive(&self, f: FuncId) -> bool {
        self.sccs[self.scc_of(f)].len() > 1 || self.callees(f).contains(&f)
    }

    /// The set of functions reachable from `entry` (including `entry`).
    pub fn reachable_from(&self, entry: FuncId) -> HashSet<FuncId> {
        let mut seen = HashSet::new();
        let mut stack = vec![entry];
        while let Some(f) = stack.pop() {
            if seen.insert(f) {
                for &c in self.callees(f) {
                    stack.push(c);
                }
            }
        }
        seen
    }
}

/// Strongly connected components of the directed graph over nodes `0..n`
/// whose edges out of `v` are `succs(v)`, by iterative Tarjan in time
/// linear in nodes plus edges.
///
/// Returns the components in *reverse topological order* of the
/// condensation (every component after all the components it reaches),
/// each sorted ascending, and the component index of every node. The call
/// graph's SCCs and the thread-escape analysis's CFG-cycle and recursion
/// passes all come from here.
///
/// # Examples
///
/// ```
/// // 0 -> 1 -> 2 -> 1, 2 -> 3
/// let edges: [&[usize]; 4] = [&[1], &[2], &[1, 3], &[]];
/// let (sccs, scc_of) = bootstrap_ir::callgraph::tarjan(4, |v| edges[v].iter().copied());
/// assert_eq!(sccs, vec![vec![3], vec![1, 2], vec![0]]);
/// assert_eq!(scc_of[2], 1);
/// ```
pub fn tarjan<I>(n: usize, succs: impl Fn(usize) -> I) -> (Vec<Vec<usize>>, Vec<usize>)
where
    I: IntoIterator<Item = usize>,
{
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut scc_of = vec![0usize; n];
    let mut counter = 0usize;

    // Explicit DFS stack: (node, its unexplored successors).
    let mut call_stack: Vec<(usize, I::IntoIter)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        call_stack.push((root, succs(root).into_iter()));
        index[root] = counter;
        lowlink[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some((v, children)) = call_stack.last_mut() {
            let v = *v;
            if let Some(w) = children.next() {
                if index[w] == UNVISITED {
                    index[w] = counter;
                    lowlink[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, succs(w).into_iter()));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some((parent, _)) = call_stack.last() {
                    lowlink[*parent] = lowlink[*parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc_of[w] = sccs.len();
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    (sccs, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn linear_chain_sccs_are_reverse_topological() {
        let p = parse_program("void g() { } void f() { g(); } void main() { f(); }").unwrap();
        let cg = CallGraph::build(&p);
        let g = p.func_named("g").unwrap();
        let f = p.func_named("f").unwrap();
        let m = p.func_named("main").unwrap();
        assert!(cg.scc_of(g) < cg.scc_of(f));
        assert!(cg.scc_of(f) < cg.scc_of(m));
        assert!(!cg.is_recursive(f));
    }

    #[test]
    fn mutual_recursion_forms_one_scc() {
        let p = parse_program(
            r#"
            void a() { b(); }
            void b() { a(); }
            void main() { a(); }
            "#,
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let a = p.func_named("a").unwrap();
        let b = p.func_named("b").unwrap();
        assert_eq!(cg.scc_of(a), cg.scc_of(b));
        assert!(cg.is_recursive(a));
        assert_eq!(cg.sccs()[cg.scc_of(a)].len(), 2);
    }

    #[test]
    fn self_recursion_is_recursive() {
        let p = parse_program("void r() { r(); } void main() { r(); }").unwrap();
        let cg = CallGraph::build(&p);
        let r = p.func_named("r").unwrap();
        assert!(cg.is_recursive(r));
        assert_eq!(cg.sccs()[cg.scc_of(r)], vec![r]);
    }

    #[test]
    fn reachability() {
        let p = parse_program("void isolated() { } void g() { } void main() { g(); }").unwrap();
        let cg = CallGraph::build(&p);
        let m = p.func_named("main").unwrap();
        let reach = cg.reachable_from(m);
        assert!(reach.contains(&p.func_named("g").unwrap()));
        assert!(!reach.contains(&p.func_named("isolated").unwrap()));
    }

    #[test]
    fn callers_are_inverse_of_callees() {
        let p = parse_program(
            "void g() { } void f1() { g(); } void f2() { g(); } void main() { f1(); f2(); }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let g = p.func_named("g").unwrap();
        assert_eq!(cg.callers(g).len(), 2);
        for &c in cg.callers(g) {
            assert!(cg.callees(c).contains(&g));
        }
    }
}
