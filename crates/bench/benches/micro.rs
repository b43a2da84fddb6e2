//! Criterion micro-benchmarks for the individual analysis stages:
//! Steensgaard and Andersen scaling with program size, the
//! frontend, Algorithm 1 slicing, and single-cluster FSCS work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bootstrap_analyses::{andersen, steensgaard};
use bootstrap_core::{relevant, AnalysisBudget, Config, Session};
use bootstrap_workloads::{figures, generator, BigPartition, GenConfig};

fn sized_config(pointers: usize) -> GenConfig {
    GenConfig {
        name: format!("micro{pointers}"),
        seed: 99,
        n_funcs: (pointers / 40).max(8),
        big_partitions: vec![BigPartition {
            size: pointers / 10,
            andersen_max: (pointers / 40).max(4),
        }],
        small_partitions: pointers / 4,
        small_max: 6,
        singletons: 4,
        call_percent: 12,
        churn_communities: 2,
        control_flow: true,
    }
}

fn bench_flow_insensitive(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_insensitive");
    group.sample_size(10);
    for pointers in [1_000usize, 4_000, 16_000] {
        let program = generator::generate(&sized_config(pointers));
        group.bench_with_input(
            BenchmarkId::new("steensgaard", pointers),
            &program,
            |b, p| b.iter(|| steensgaard::analyze(p)),
        );
        group.bench_with_input(BenchmarkId::new("andersen", pointers), &program, |b, p| {
            b.iter(|| andersen::analyze(p))
        });
    }
    group.finish();
}

fn bench_frontend(c: &mut Criterion) {
    c.bench_function("frontend/fig5", |b| {
        b.iter(|| bootstrap_ir::parse_program(figures::FIG5).unwrap())
    });
    // A larger synthetic source exercising the same lexer/parser/lowering
    // path at scale.
    let mut src = String::new();
    for i in 0..300 {
        src.push_str(&format!(
            "int o{i}; int *p{i}; int *q{i};\n\
             void f{i}(int *v) {{ p{i} = &o{i}; q{i} = v; if (o{i}) {{ q{i} = p{i}; }} }}\n"
        ));
    }
    src.push_str("void main() {\n");
    for i in 0..300 {
        src.push_str(&format!("f{i}(p{i});\n"));
    }
    src.push_str("}\n");
    c.bench_function("frontend/synthetic_900_globals", |b| {
        b.iter(|| bootstrap_ir::parse_program(&src).unwrap())
    });
}

fn bench_relevant(c: &mut Criterion) {
    let program = generator::generate(&sized_config(4_000));
    let st = steensgaard::analyze(&program);
    let index = relevant::RelevantIndex::build(&program, &st);
    // Pick the biggest partition's members.
    let members: Vec<_> = st
        .pointer_partitions(&program)
        .max_by_key(|(_, m)| m.len())
        .map(|(_, m)| m.to_vec())
        .unwrap();
    c.bench_function("relevant/alg1_biggest_partition", |b| {
        b.iter(|| relevant::relevant_statements_indexed(&program, &st, &index, &members))
    });
    c.bench_function("relevant/index_build", |b| {
        b.iter(|| relevant::RelevantIndex::build(&program, &st))
    });
}

fn bench_cluster_fscs(c: &mut Criterion) {
    let program = generator::generate(&sized_config(2_000));
    let session = Session::new(&program, Config::default());
    let analyzer = session.analyzer();
    let biggest = session
        .cover()
        .clusters()
        .iter()
        .max_by_key(|cl| cl.members.len())
        .unwrap()
        .clone();
    let mut group = c.benchmark_group("fscs");
    group.sample_size(10);
    group.bench_function("biggest_cluster_summaries", |b| {
        b.iter(|| analyzer.process_cluster(&biggest, AnalysisBudget::steps(3_000_000)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flow_insensitive,
    bench_frontend,
    bench_relevant,
    bench_cluster_fscs
);
criterion_main!(benches);
