//! Work-stealing cluster scheduler benchmark.
//!
//! Runs the cluster drivers over the largest Table 1 preset (sendmail):
//! one serial pass to measure per-cluster durations, then the live
//! work-stealing pool at 1/2/4/8 threads (steal counts, utilization,
//! wall-clock), alongside the deterministic steal-schedule *model* —
//! a longest-processing-time list schedule over the measured durations,
//! the steady state the idle-steals-from-busy pool converges to. The
//! model is what the thread-scaling curve is read from: live wall-clock
//! only shows real scaling when the host actually has that many cores
//! (the `cores` field in the JSON records what the host had), whereas
//! the model curve is hardware-independent, exactly like the paper's
//! Table 1 "time on 5 machines" column. Results are dumped as
//! `BENCH_parallel.json` at the repo root.
//!
//! Run with: `cargo bench -p bootstrap-bench --bench parallel`
//! (add `-- --quick` for a subsampled cluster set and one live run).

use std::time::Duration;

use bootstrap_bench::write_bench_json;
use bootstrap_client::Json;
use bootstrap_core::parallel::{
    greedy_bins, process_clusters, process_clusters_parallel_with_stats, steal_schedule, timed,
};
use bootstrap_core::{Config, Session};
use bootstrap_workloads::presets;

/// Per-cluster step budget: the Table-1 quick-profile budget — generous
/// enough that sendmail clusters complete, small enough that a runaway
/// summary cannot stall a worker.
const STEPS_PER_CLUSTER: u64 = 2_000_000;

struct Row {
    threads: usize,
    live_wall: Duration,
    live_steals: usize,
    utilization: f64,
    model_makespan: Duration,
    model_speedup: f64,
    static_makespan: Duration,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let preset = presets::all()
        .into_iter()
        .max_by_key(|p| p.paper.pointers)
        .expect("presets exist");
    let name = preset.paper.name;
    println!(
        "generating preset '{name}' ({} pointers)...",
        preset.paper.pointers
    );
    let program = preset.generate();
    let session = Session::new(&program, Config::default());
    let mut clusters = session.cover().clusters().to_vec();
    if quick {
        // Keep the skew (the big clusters lead the LPT order) but drop
        // most of the long tail of tiny clusters so CI smoke stays fast.
        let mut keep: Vec<_> = clusters.iter().step_by(64).cloned().collect();
        let mut biggest: Vec<_> = clusters.to_vec();
        biggest.sort_by_key(|c| std::cmp::Reverse(c.members.len()));
        keep.extend(biggest.into_iter().take(8));
        keep.sort_by_key(|c| c.id);
        keep.dedup_by_key(|c| c.id);
        clusters = keep;
    }
    println!("processing {} clusters...", clusters.len());

    // Serial pass: the measured per-cluster durations every model row is
    // computed from, and the single-thread reference time.
    let (serial_reports, serial_wall) =
        timed(|| process_clusters(&session, &clusters, STEPS_PER_CLUSTER));
    let degraded = serial_reports
        .iter()
        .filter(|r| r.degraded.is_some())
        .count();
    println!(
        "serial: {serial_wall:?} ({} clusters, {degraded} degraded)",
        serial_reports.len()
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial_busy: Duration = serial_reports.iter().map(|r| r.duration).sum();
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (reports, stats) =
            process_clusters_parallel_with_stats(&session, &clusters, threads, STEPS_PER_CLUSTER);
        assert_eq!(reports.len(), serial_reports.len());
        let model_makespan = steal_schedule(&serial_reports, threads)
            .into_iter()
            .max()
            .unwrap_or(Duration::ZERO);
        let static_makespan = greedy_bins(&serial_reports, threads)
            .into_iter()
            .max()
            .unwrap_or(Duration::ZERO);
        let model_speedup = serial_busy.as_secs_f64() / model_makespan.as_secs_f64().max(1e-9);
        println!(
            "threads {threads}: live {:?} (steals {}, util {:.0}%), \
             model makespan {:?} ({:.2}x), static bins {:?}",
            stats.wall,
            stats.total_steals(),
            stats.utilization() * 100.0,
            model_makespan,
            model_speedup,
            static_makespan
        );
        rows.push(Row {
            threads,
            live_wall: stats.wall,
            live_steals: stats.total_steals(),
            utilization: stats.utilization(),
            model_makespan,
            model_speedup,
            static_makespan,
        });
    }

    let secs = |d: Duration| Json::Num(d.as_secs_f64());
    let threads = rows.iter().map(|r| {
        let mut fields = vec![("threads", Json::int(r.threads))];
        // More threads than cores measure time slicing, not scaling.
        if r.threads <= cores {
            fields.extend([
                ("live_wall_secs", secs(r.live_wall)),
                ("live_steals", Json::int(r.live_steals)),
                ("utilization", Json::Num(r.utilization)),
            ]);
        }
        fields.extend([
            ("model_makespan_secs", secs(r.model_makespan)),
            ("model_speedup", Json::Num(r.model_speedup)),
            ("static_bin_makespan_secs", secs(r.static_makespan)),
        ]);
        Json::obj(fields)
    });
    let note = "model_* columns are the deterministic LPT list-schedule model over \
                measured per-cluster durations; live_* columns are written only for \
                thread counts up to the cores actually present";
    write_bench_json(
        "parallel",
        &Json::obj([
            ("preset", Json::str(name)),
            ("scheduler", Json::str("work-stealing")),
            ("unit", Json::str("seconds")),
            ("cores", Json::int(cores)),
            ("clusters", Json::int(clusters.len())),
            ("serial_secs", secs(serial_wall)),
            ("note", Json::str(note)),
            ("threads", Json::Arr(threads.collect())),
        ]),
    );
}
