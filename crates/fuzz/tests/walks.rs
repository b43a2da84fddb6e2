//! The sparse FSCS walk against the dense oracle walk on every parseable
//! committed `.c` file: the examples, the test fixtures and the fuzz
//! corpus (entries named `invalid_*` are malformed on purpose). For every
//! cluster of the bootstrapped cover, in both path modes, under a step
//! budget and with the session's analyzer as points-to oracle, the two
//! engines must compute equal summaries for every key a complete run
//! computes and every key both hold, and equal local sources at every
//! dereference and free site of the cluster's members. A cluster (or a
//! site) is skipped only when the dense run exhausts the budget.

use std::fs;
use std::path::{Path, PathBuf};

use bootstrap_core::{
    AnalysisBudget, ClusterEngine, Config, EngineCx, EngineOptions, Outcome, Session,
};
use bootstrap_ir::{Loc, Program, Stmt, VarId};

/// Step budget of each summary fixpoint and each site query: above what
/// every cluster the dense walk can finish needs (93k steps at most).
const STEPS: u64 = 100_000;

fn committed_sources() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = vec![root.join("examples/real/bzlite.c")];
    for dir in [
        "examples/c",
        "tests/fixtures",
        "tests/fixtures/edit/before",
        "tests/fixtures/edit/after",
        "crates/fuzz/corpus",
    ] {
        for entry in fs::read_dir(root.join(dir)).expect("committed directory") {
            let path = entry.expect("readable entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            if path.extension().is_some_and(|e| e == "c") && !name.starts_with("invalid_") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The pointers dereferenced or freed, with where.
fn sites(program: &Program) -> Vec<(VarId, Loc)> {
    let mut sites = Vec::new();
    for func in program.functions() {
        for (loc, stmt) in func.locs() {
            match *stmt {
                Stmt::Load { src, .. } => sites.push((src, loc)),
                Stmt::Store { dst, .. } | Stmt::Free { dst } => sites.push((dst, loc)),
                _ => {}
            }
        }
    }
    sites
}

#[test]
fn sparse_walk_matches_dense_on_committed_sources() {
    let (mut compared, mut skipped, mut queries) = (0usize, 0usize, 0usize);
    let files = committed_sources();
    assert!(files.len() >= 17, "the committed sources are found");
    for path in files {
        let name = path.display();
        let src = fs::read_to_string(&path).expect("readable source");
        let program =
            bootstrap_ir::parse_program(&src).unwrap_or_else(|e| panic!("{name} parses: {e}"));
        let session = Session::new(&program, Config::default());
        let cx = EngineCx {
            program: &program,
            steens: session.steens(),
            cg: session.callgraph(),
            index: session.relevant_index(),
        };
        let sites = sites(&program);
        let oracle = session.analyzer();
        for cluster in session.cover().clusters() {
            for path_sensitive in [false, true] {
                let run = |dense: bool| {
                    let mut engine = ClusterEngine::with_engine_options(
                        cx,
                        cluster.members.clone(),
                        EngineOptions {
                            path_sensitive,
                            dense,
                            ..EngineOptions::default()
                        },
                    );
                    let mut budget = AnalysisBudget::steps(STEPS);
                    let done = engine.compute_all_summaries(cx, &oracle, &mut budget);
                    (engine, done.is_done())
                };
                let (mut dense, dense_done) = run(true);
                if !dense_done {
                    skipped += 1;
                    continue;
                }
                let (mut sparse, sparse_done) = run(false);
                let context = format!(
                    "{name}, cluster {}, path_sensitive={path_sensitive}",
                    cluster.id
                );
                assert!(
                    sparse_done,
                    "{context}: the sparse walk degrades where the dense one finishes"
                );
                assert_eq!(
                    sparse.summary_disagreements(&dense),
                    vec![],
                    "{context}: summaries"
                );
                compared += 1;
                for &(p, loc) in sites.iter().filter(|(p, _)| cluster.members.contains(p)) {
                    let sources = |engine: &mut ClusterEngine| {
                        let mut budget = AnalysisBudget::steps(STEPS);
                        engine.local_sources(cx, p, loc, &oracle, &mut budget)
                    };
                    let Outcome::Done(expected) = sources(&mut dense) else {
                        continue;
                    };
                    assert_eq!(
                        sources(&mut sparse),
                        Outcome::Done(expected),
                        "{context}: sources at {loc}"
                    );
                    queries += 1;
                }
            }
        }
    }
    println!("{compared} cluster runs compared ({queries} site queries), {skipped} skipped because the dense walk ran out of budget");
    assert!(compared > 0);
}
