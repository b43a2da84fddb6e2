//! Property-based tests for the core framework: constraint normal form,
//! budgets, covers, and end-to-end consistency of the bootstrapped
//! analysis on random programs.

use bootstrap_core::constraint::{Atom, Cond};
use bootstrap_core::relevant::RelevantIndex;
use bootstrap_core::{
    AnalysisBudget, ClusterEngine, Config, EngineCx, EngineOptions, NoOracle, Session,
};
use bootstrap_ir::{CallGraph, FuncId, Loc, ProgramBuilder, VarId};
use proptest::prelude::*;

fn atom_strategy() -> impl Strategy<Value = Atom> {
    (0u32..4, 0u32..6, 0usize..6, 0usize..6).prop_map(|(kind, l, a, b)| {
        let loc = Loc::new(FuncId::new(0), l);
        let (va, vb) = (VarId::new(a), VarId::new(b));
        match kind {
            0 => Atom::PointsTo {
                loc,
                ptr: va,
                obj: vb,
            },
            1 => Atom::NotPointsTo {
                loc,
                ptr: va,
                obj: vb,
            },
            2 => Atom::Eq { loc, a: va, b: vb },
            _ => Atom::NotEq { loc, a: va, b: vb },
        }
    })
}

proptest! {
    /// Conjunction is idempotent, order-insensitive and sorted; a
    /// contradiction is detected regardless of insertion order.
    #[test]
    fn cond_conjunction_normal_form(atoms in prop::collection::vec(atom_strategy(), 0..10)) {
        let cap = 32;
        let mut fwd = Some(Cond::top());
        for &a in &atoms {
            fwd = fwd.and_then(|c| c.and(a, cap));
        }
        let mut rev = Some(Cond::top());
        for &a in atoms.iter().rev() {
            rev = rev.and_then(|c| c.and(a, cap));
        }
        prop_assert_eq!(fwd.is_none(), rev.is_none(), "contradiction detection is order-insensitive");
        if let (Some(f), Some(r)) = (fwd, rev) {
            prop_assert_eq!(f.atoms(), r.atoms());
            prop_assert!(f.atoms().windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
            // Idempotence.
            let again = atoms.iter().try_fold(f.clone(), |c, &a| c.and(a, cap));
            prop_assert_eq!(again.map(|c| c.atoms().to_vec()), Some(f.atoms().to_vec()));
        }
    }

    /// Widening keeps the conjunction under the cap and never invents a
    /// contradiction.
    #[test]
    fn cond_widening_respects_cap(atoms in prop::collection::vec(atom_strategy(), 0..20), cap in 1usize..6) {
        let mut c = Cond::top();
        for &a in &atoms {
            match c.and(a, cap) {
                Some(next) => c = next,
                None => return Ok(()), // genuine contradiction, fine
            }
        }
        prop_assert!(c.atoms().len() <= cap);
        // A widened condition is still satisfiable under the unknown oracle.
        prop_assert!(c.satisfiable(|_, _| None));
    }

    /// Budgets: a budget of n allows exactly n ticks.
    #[test]
    fn budget_allows_exactly_n(n in 0u64..5000) {
        let mut b = AnalysisBudget::steps(n);
        let allowed = (0..n + 100).filter(|_| b.tick()).count() as u64;
        prop_assert_eq!(allowed, n);
        prop_assert!(b.exhausted() || n >= 100 + n);
    }
}

/// Random-program end-to-end properties.
fn build_program(ops: &[(u8, u8, u8)]) -> bootstrap_ir::Program {
    let n_ptrs = 6;
    let n_objs = 3;
    let mut b = ProgramBuilder::new();
    let ptrs: Vec<VarId> = (0..n_ptrs)
        .map(|i| b.global(&format!("p{i}"), true))
        .collect();
    let objs: Vec<VarId> = (0..n_objs)
        .map(|i| b.global(&format!("o{i}"), false))
        .collect();
    let helper = b.declare_func("helper", 1, true);
    let main = b.declare_func("main", 0, false);
    let mut fb = b.build_func(helper);
    let p0 = fb.param(0);
    fb.ret(Some(p0));
    fb.finish();
    let mut fb = b.build_func(main);
    for (i, &(kind, x, y)) in ops.iter().enumerate() {
        let p = ptrs[x as usize % n_ptrs];
        let q = ptrs[y as usize % n_ptrs];
        let o = objs[y as usize % n_objs];
        if i % 4 == 3 {
            fb.begin_if();
        }
        match kind % 6 {
            0 => {
                fb.addr_of(p, o);
            }
            1 => {
                fb.copy(p, q);
            }
            2 => {
                fb.load(p, q);
            }
            3 => {
                fb.store(p, q);
            }
            4 => {
                fb.null(p);
            }
            _ => {
                fb.call(helper, &[q], Some(p));
            }
        }
        if i % 4 == 3 {
            fb.else_arm();
            fb.skip();
            fb.end_if();
        }
    }
    fb.finish();
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The session cover always covers every pointer, and cluster-based
    /// alias sets agree with direct pairwise queries.
    #[test]
    fn cover_and_alias_set_consistency(ops in prop::collection::vec((0u8..6, 0u8..6, 0u8..6), 1..30)) {
        let program = build_program(&ops);
        let session = Session::new(&program, Config::default());
        prop_assert!(session.cover().covers(session.pointers()));

        let az = session.analyzer();
        let exit = program.entry().unwrap().exit();
        // alias_set must contain exactly the co-clustered pointers that
        // pairwise may-alias.
        for &p in session.pointers().iter().take(3) {
            let set = az.alias_set(p, exit).unwrap();
            for &q in session.pointers() {
                if q == p { continue; }
                let expected = az.may_alias(p, q, exit).unwrap()
                    && session.cover().clusters_containing(p).any(|c| c.contains(q));
                prop_assert_eq!(
                    set.contains(&q),
                    expected,
                    "alias_set disagrees for {} / {}",
                    program.var(p).name(), program.var(q).name()
                );
            }
        }
    }

    /// may_alias is symmetric and reflexive; must_alias implies may_alias.
    #[test]
    fn alias_relation_properties(ops in prop::collection::vec((0u8..6, 0u8..6, 0u8..6), 1..30)) {
        let program = build_program(&ops);
        let session = Session::new(&program, Config::default());
        let az = session.analyzer();
        let exit = program.entry().unwrap().exit();
        let ptrs: Vec<VarId> = session.pointers().iter().copied().take(5).collect();
        for &p in &ptrs {
            prop_assert!(az.may_alias(p, p, exit).unwrap());
            for &q in &ptrs {
                let pq = az.may_alias(p, q, exit).unwrap();
                let qp = az.may_alias(q, p, exit).unwrap();
                prop_assert_eq!(pq, qp, "symmetry");
                if az.must_alias(p, q, exit).unwrap() {
                    prop_assert!(pq, "must implies may");
                }
            }
        }
    }

    /// Analysis results are deterministic across analyzer instances.
    #[test]
    fn analysis_is_deterministic(ops in prop::collection::vec((0u8..6, 0u8..6, 0u8..6), 1..25)) {
        let program = build_program(&ops);
        let session = Session::new(&program, Config::default());
        let exit = program.entry().unwrap().exit();
        let az1 = session.analyzer();
        let az2 = session.analyzer();
        for &p in session.pointers().iter().take(4) {
            let mut b1 = AnalysisBudget::unlimited();
            let mut b2 = AnalysisBudget::unlimited();
            let s1 = az1.sources(p, exit, &mut b1).unwrap();
            let s2 = az2.sources(p, exit, &mut b2).unwrap();
            prop_assert_eq!(s1, s2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The sparse walk is exact: over random programs, it and the dense
    /// oracle walk (`EngineOptions::dense`, mirroring
    /// `SolverOptions::naive`) compute equal summaries for every key both
    /// hold and every key a complete run must compute, and identical
    /// local sources, in both path-insensitive and path-sensitive modes.
    #[test]
    fn sparse_engine_matches_dense_oracle(
        ops in prop::collection::vec((0u8..6, 0u8..6, 0u8..6), 1..25),
        ps in 0u8..2,
    ) {
        let path_sensitive = ps == 1;
        let program = build_program(&ops);
        let steens = bootstrap_analyses::steensgaard::analyze(&program);
        let cg = CallGraph::build(&program);
        let index = RelevantIndex::build(&program, &steens);
        let cx = EngineCx { program: &program, steens: &steens, cg: &cg, index: &index };
        let members: Vec<VarId> = program
            .var_ids()
            .filter(|v| program.var(*v).is_pointer())
            .collect();
        let run = |dense: bool| {
            let mut engine = ClusterEngine::with_engine_options(
                cx,
                members.clone(),
                EngineOptions { path_sensitive, dense, ..EngineOptions::default() },
            );
            engine
                .compute_all_summaries(cx, &NoOracle, &mut AnalysisBudget::unlimited())
                .unwrap();
            let exit = program.entry().unwrap().exit();
            let sources: Vec<_> = members
                .iter()
                .map(|&p| {
                    engine
                        .local_sources(cx, p, exit, &NoOracle, &mut AnalysisBudget::unlimited())
                        .unwrap()
                })
                .collect();
            (engine, sources)
        };
        let (sparse, sparse_sources) = run(false);
        let (dense, dense_sources) = run(true);
        prop_assert_eq!(sparse.summary_disagreements(&dense), vec![], "summaries diverge");
        prop_assert_eq!(sparse_sources, dense_sources, "local sources diverge");
    }
}
