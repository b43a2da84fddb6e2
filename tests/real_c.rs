//! End-to-end coverage of the committed real-C workload
//! (`examples/real/bzlite.c`): it must parse, build a bootstrapped
//! session, resolve its indirect calls at every rung of the
//! FLTA → MLTA → points-to ladder with strictly shrinking call graphs,
//! and run the checker suite without an analysis failure (findings are
//! tolerated — the program is analyzed, not certified).

use bootstrap_alias::analyses::fpresolve::{self, FpResolver};
use bootstrap_alias::core::{Config, Session};
use bootstrap_alias::ir::{parse_program, Program};
use bootstrap_checks::{run_checks, CheckerKind};

fn source() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/real/bzlite.c");
    std::fs::read_to_string(path).expect("workload file")
}

fn parsed() -> Program {
    parse_program(&source()).expect("bzlite.c must stay within the mini-C subset")
}

#[test]
fn bzlite_parses_and_partitions() {
    let program = parsed();
    assert!(program.func_count() >= 15, "a real program, not a toy");
    assert!(
        program.has_indirect_calls(),
        "fp dispatch must survive lowering"
    );
    // Field-sensitive locations: the codec instances' fp fields are
    // distinct variables with their own abstract locations.
    for name in [
        "rle_codec.run",
        "mtf_codec.run",
        "file_sink.put",
        "memo_sink.put",
        "tuning.cutoffs[*]",
        "input_buf[*]",
    ] {
        assert!(program.var_named(name).is_some(), "missing location {name}");
    }
    let session = Session::new(&program, Config::default());
    assert!(session.pointers().len() >= 20, "pointer-rich workload");
}

#[test]
fn resolver_ladder_shrinks_strictly_on_bzlite() {
    // One run reports all three candidate totals; each stage must also
    // install exactly its own total.
    let mut p = parsed();
    let r = fpresolve::resolve_calls(&mut p, FpResolver::PointsTo);
    assert_eq!(r.sites, 8, "8 fp-field call sites in compress_stream");
    assert!(
        r.edges_flta > r.edges_mlta && r.edges_mlta > r.edges_pts,
        "ladder must shrink strictly: flta {} / mlta {} / pts {}",
        r.edges_flta,
        r.edges_mlta,
        r.edges_pts
    );
    assert!(!p.has_indirect_calls());

    for stage in [FpResolver::Flta, FpResolver::Mlta, FpResolver::PointsTo] {
        let mut p = parsed();
        let s = fpresolve::resolve_calls(&mut p, stage);
        let expect = match stage {
            FpResolver::Flta => s.edges_flta,
            FpResolver::Mlta => s.edges_mlta,
            FpResolver::PointsTo => s.edges_pts,
        };
        assert_eq!(
            s.edges,
            expect,
            "stage {} installs its own edges",
            stage.name()
        );
        assert_eq!(
            (s.edges_flta, s.edges_mlta, s.edges_pts),
            (r.edges_flta, r.edges_mlta, r.edges_pts)
        );
        assert!(
            !p.has_indirect_calls(),
            "stage {} must rewrite every site",
            stage.name()
        );
    }
}

#[test]
fn points_to_stage_keeps_exactly_the_stored_targets() {
    let mut p = parsed();
    let r = fpresolve::resolve_calls(&mut p, FpResolver::PointsTo);
    // Each of the 8 sites stores exactly one function: pts is exact here.
    assert_eq!(r.edges_pts, 8);
    for f in ["rle_run", "mtf_run", "file_put", "mem_put"] {
        assert!(p.func_named(f).is_some());
    }
}

#[test]
fn bzlite_checks_end_to_end() {
    let mut program = parsed();
    fpresolve::resolve_calls(&mut program, FpResolver::PointsTo);
    // A bounded budget keeps the suite CI-friendly; degradation to a
    // coarser tier is acceptable, analysis failure is not.
    let config = Config {
        query_step_budget: 20_000,
        oracle_step_budget: 20_000,
        ..Config::default()
    };
    let session = Session::new(&program, config);
    let report = run_checks(&session, &CheckerKind::ALL);
    let queries: usize = report.stats.iter().map(|c| c.queries).sum();
    assert!(queries > 0, "the checkers must actually query the workload");
}

#[test]
fn solver_counters_repeat_across_sessions() {
    // Relevant slices are hash sets, and the Andersen solver's counters
    // (and whether its adaptive gate engages cycle elimination) depend on
    // constraint order: the cascade must hand each slice over in one fixed
    // order for `stats` to repeat from run to run.
    let mut program = parsed();
    fpresolve::resolve_calls(&mut program, FpResolver::PointsTo);
    let stats: Vec<_> = (0..4)
        .map(|_| Session::new(&program, Config::default()).solver_stats())
        .collect();
    assert!(stats[0].pops > 0, "the cascade runs Andersen on bzlite");
    assert!(stats.iter().all(|s| *s == stats[0]), "{stats:#?}");
}
