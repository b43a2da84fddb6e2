//! Property-based tests for the analysis substrates and the precision
//! ordering of the cascade stages.

use std::collections::BTreeSet;

use bootstrap_analyses::bitset::VarSet;
use bootstrap_analyses::unionfind::UnionFind;
use bootstrap_analyses::{andersen, steensgaard};
use bootstrap_ir::{Program, ProgramBuilder, VarId};
use proptest::prelude::*;

proptest! {
    /// VarSet behaves exactly like a BTreeSet<u32> under a random op
    /// sequence (inserts, removes, queries), across the sparse/dense
    /// promotion boundary.
    #[test]
    fn varset_matches_model(ops in prop::collection::vec((0u8..3, 0u32..512), 1..400)) {
        let mut set = VarSet::new();
        let mut model = BTreeSet::new();
        for (op, key) in ops {
            match op {
                0 => prop_assert_eq!(set.insert(key), model.insert(key)),
                1 => prop_assert_eq!(set.remove(key), model.remove(&key)),
                _ => prop_assert_eq!(set.contains(key), model.contains(&key)),
            }
            prop_assert_eq!(set.len(), model.len());
        }
        let got: Vec<u32> = set.iter().collect();
        let want: Vec<u32> = model.into_iter().collect();
        prop_assert_eq!(got, want, "iteration must be sorted and complete");
    }

    /// Union of two VarSets equals the union of the models.
    #[test]
    fn varset_union_matches_model(
        a in prop::collection::btree_set(0u32..600, 0..200),
        b in prop::collection::btree_set(0u32..600, 0..200),
    ) {
        let mut sa: VarSet = a.iter().copied().collect();
        let sb: VarSet = b.iter().copied().collect();
        let changed = sa.union_with(&sb);
        let want: Vec<u32> = a.union(&b).copied().collect();
        let got: Vec<u32> = sa.iter().collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(changed, !b.is_subset(&a));
        prop_assert_eq!(sa.intersects(&sb), !b.is_empty() && b.iter().any(|k| want.contains(k)));
    }

    /// Union-find maintains the same partition as a naive model.
    #[test]
    fn unionfind_matches_model(unions in prop::collection::vec((0u32..64, 0u32..64), 0..120)) {
        let mut uf = UnionFind::new(64);
        // Model: representative = smallest member, recomputed transitively.
        let mut model: Vec<u32> = (0..64).collect();
        fn root(model: &[u32], mut x: u32) -> u32 {
            while model[x as usize] != x { x = model[x as usize]; }
            x
        }
        for (a, b) in unions {
            uf.union(a, b);
            let (ra, rb) = (root(&model, a), root(&model, b));
            let m = ra.min(rb);
            model[ra as usize] = m;
            model[rb as usize] = m;
        }
        for x in 0..64u32 {
            for y in 0..64u32 {
                prop_assert_eq!(
                    uf.same(x, y),
                    root(&model, x) == root(&model, y),
                    "disagreement on {} ~ {}", x, y
                );
            }
        }
    }
}

/// Builds a random straight-line-with-branches program over `n` pointers
/// and a pool of objects, from a compact op encoding.
fn build_program(ops: &[(u8, u8, u8)], n_ptrs: usize, n_objs: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let ptrs: Vec<VarId> = (0..n_ptrs)
        .map(|i| b.global(&format!("p{i}"), true))
        .collect();
    let objs: Vec<VarId> = (0..n_objs)
        .map(|i| b.global(&format!("o{i}"), false))
        .collect();
    let main = b.declare_func("main", 0, false);
    let mut fb = b.build_func(main);
    for (i, &(kind, x, y)) in ops.iter().enumerate() {
        let p = ptrs[x as usize % n_ptrs];
        let q = ptrs[y as usize % n_ptrs];
        let o = objs[y as usize % n_objs];
        // Branch occasionally for path diversity.
        let branch = i % 5 == 4;
        if branch {
            fb.begin_if();
        }
        match kind % 5 {
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
            _ => {
                fb.addr_of(p, q);
            } // pointer-to-pointer for multi-level chains
        }
        if branch {
            fb.else_arm();
            fb.skip();
            fb.end_if();
        }
    }
    fb.finish();
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Precision ordering of the cascade: Andersen refines Steensgaard
    /// (any Andersen points-to fact lands in the Steensgaard pointee
    /// class).
    #[test]
    fn cascade_precision_ordering(ops in prop::collection::vec((0u8..5, 0u8..8, 0u8..8), 1..60)) {
        let program = build_program(&ops, 8, 4);
        let an = andersen::analyze(&program);
        let st = steensgaard::analyze(&program);
        for v in program.var_ids() {
            for o in an.points_to(v).iter() {
                let obj = VarId::new(o as usize);
                let pointee = st.pointee(st.class_of(v));
                prop_assert_eq!(
                    pointee,
                    Some(st.class_of(obj)),
                    "Steensgaard lost {} -> {}",
                    program.var(v).name(), program.var(obj).name()
                );
            }
        }
    }

    /// The solver, adaptive and with its cycle machinery engaged from the
    /// first pop, computes exactly the same points-to sets as the naive
    /// full-set oracle.
    #[test]
    fn all_solver_options_match_naive(ops in prop::collection::vec((0u8..5, 0u8..8, 0u8..8), 1..80)) {
        let program = build_program(&ops, 8, 4);
        let naive = andersen::analyze_with(&program, andersen::SolverOptions::naive_oracle());
        for eager_cycles in [false, true] {
            let options = andersen::SolverOptions {
                eager_cycles,
                ..Default::default()
            };
            let fast = andersen::analyze_with(&program, options);
            for v in program.var_ids() {
                prop_assert_eq!(
                    naive.points_to_vars(v),
                    fast.points_to_vars(v),
                    "mismatch for {} ({:?})",
                    program.var(v).name(),
                    options
                );
            }
        }
    }

    /// Oversharing guard (cf. "Unification-based Pointer Analysis without
    /// Oversharing"): whenever the hybrid solver merges variables into one
    /// class, the members must be *provably* equal — their naive-oracle
    /// points-to sets are identical. A merge that widened any member's set
    /// would show up here as a mismatch.
    #[test]
    fn merged_cycle_members_are_provably_equal(
        ops in prop::collection::vec((0u8..5, 0u8..8, 0u8..8), 1..80),
    ) {
        let program = build_program(&ops, 8, 4);
        let naive = andersen::analyze_with(&program, andersen::SolverOptions::naive_oracle());
        // Eager engagement: these programs are small enough that the
        // adaptive drain usually converges before the thrash detector would
        // bring the merge machinery in at all.
        let options = andersen::SolverOptions {
            eager_cycles: true,
            ..Default::default()
        };
        let fast = andersen::analyze_with(&program, options);
        for group in fast.merged_groups() {
            let first = &group[0];
            for member in &group[1..] {
                prop_assert_eq!(
                    naive.points_to_vars(*first),
                    naive.points_to_vars(*member),
                    "overshared merge {} ~ {}",
                    program.var(*first).name(),
                    program.var(*member).name()
                );
            }
        }
    }

    /// Andersen clusters form a disjunctive alias cover: every pair with
    /// intersecting points-to sets shares a cluster; every pointer is
    /// covered.
    #[test]
    fn andersen_clusters_cover(ops in prop::collection::vec((0u8..5, 0u8..8, 0u8..8), 1..60)) {
        let program = build_program(&ops, 8, 4);
        let an = andersen::analyze(&program);
        let pointers: Vec<VarId> = program
            .var_ids()
            .filter(|v| program.var(*v).is_pointer())
            .collect();
        let clusters = an.clusters(&pointers);
        for &p in &pointers {
            prop_assert!(clusters.iter().any(|c| c.members.contains(&p)), "uncovered pointer");
            for &q in &pointers {
                if p < q && an.may_alias(p, q) {
                    prop_assert!(
                        clusters.iter().any(|c| c.members.contains(&p) && c.members.contains(&q)),
                        "aliasing pair not co-clustered"
                    );
                }
            }
        }
    }

    /// Steensgaard alias partitions are disjoint and respect aliasing
    /// (per Andersen ground truth).
    #[test]
    fn steensgaard_partitions_respect_aliasing(ops in prop::collection::vec((0u8..5, 0u8..8, 0u8..8), 1..60)) {
        let program = build_program(&ops, 8, 4);
        let an = andersen::analyze(&program);
        let st = steensgaard::analyze(&program);
        let partitions = st.alias_partitions(&program);
        // Disjoint.
        let mut seen = std::collections::HashSet::new();
        for (_, members) in &partitions {
            for m in members {
                prop_assert!(seen.insert(*m), "partitions overlap");
            }
        }
        // Respect aliasing.
        for v in program.var_ids() {
            for w in program.var_ids() {
                if v < w && an.may_alias(v, w) {
                    prop_assert_eq!(
                        st.partition_key(v),
                        st.partition_key(w),
                        "aliasing pair in different partitions: {} {}",
                        program.var(v).name(), program.var(w).name()
                    );
                }
            }
        }
    }
}
