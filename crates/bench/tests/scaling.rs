//! Whole-cover summarization is linear in the length of a copy chain: the
//! engine's step counter after `compute_all_summaries`, summed over the
//! bootstrapped cover, grows at most 2.5x per doubling of the chain. The
//! two files have the shapes of the benchmark's workloads, from the same
//! generator the FSCS bench measures: a chain of direct copies, and a
//! chain of copies through branchy identity helpers.

use bootstrap_bench::chain_source;
use bootstrap_core::{AnalysisBudget, ClusterEngine, Config, EngineCx, Session};

/// Engine steps of whole-cover summarization, the session's analyzer
/// serving as points-to oracle.
fn summary_steps(n: usize, helpers: usize) -> u64 {
    let program = bootstrap_ir::parse_program(&chain_source(n, helpers)).expect("parses");
    let session = Session::new(&program, Config::default());
    let cx = EngineCx {
        program: &program,
        steens: session.steens(),
        cg: session.callgraph(),
        index: session.relevant_index(),
    };
    let oracle = session.analyzer();
    session
        .cover()
        .clusters()
        .iter()
        .map(|cluster| {
            let mut engine = ClusterEngine::new(cx, cluster.members.clone(), 8);
            engine
                .compute_all_summaries(cx, &oracle, &mut AnalysisBudget::unlimited())
                .unwrap();
            engine.steps()
        })
        .sum()
}

fn assert_linear(helpers: usize) {
    let steps: Vec<u64> = [128, 256, 512]
        .iter()
        .map(|&n| summary_steps(n, helpers))
        .collect();
    println!("helpers={helpers}: steps at n = 128, 256, 512: {steps:?}");
    for pair in steps.windows(2) {
        assert!(
            pair[1] as f64 <= 2.5 * pair[0] as f64,
            "helpers={helpers}: steps grow more than 2.5x per doubling: {steps:?}"
        );
    }
}

#[test]
fn direct_copy_chain_summarizes_linearly() {
    assert_linear(0);
}

#[test]
fn helper_copy_chain_summarizes_linearly() {
    assert_linear(8);
}
