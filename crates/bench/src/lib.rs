//! Shared measurement harness for the Table 1 / Figure 1 / ablation
//! benchmarks.
//!
//! Profiles: set `BOOTSTRAP_BENCH_PROFILE=full` for all twenty Table 1
//! rows with the full unclustered-baseline cap, or leave unset for the
//! quick profile (four fast rows, short caps) used in CI.

use std::time::Duration;

use bootstrap_client::Json;
use bootstrap_core::{parallel, Config, Session};
use bootstrap_workloads::presets::Preset;

/// Benchmark profile, selected via `BOOTSTRAP_BENCH_PROFILE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Fast subset, small baseline caps (default).
    Quick,
    /// All rows, generous caps.
    Full,
}

impl Profile {
    /// Reads the profile from the environment.
    pub fn from_env() -> Self {
        match std::env::var("BOOTSTRAP_BENCH_PROFILE").as_deref() {
            Ok("full") => Profile::Full,
            _ => Profile::Quick,
        }
    }

    /// The presets to run under this profile.
    pub fn presets(self) -> Vec<Preset> {
        match self {
            Profile::Quick => bootstrap_workloads::presets::quick(),
            Profile::Full => bootstrap_workloads::presets::all(),
        }
    }

    /// Wall-clock cap for the unclustered FSCS baseline (the paper used
    /// 15 minutes).
    pub fn baseline_cap(self) -> Duration {
        match self {
            Profile::Quick => Duration::from_secs(5),
            Profile::Full => Duration::from_secs(60),
        }
    }

    /// Step cap per cluster.
    pub fn cluster_steps(self) -> u64 {
        match self {
            Profile::Quick => 2_000_000,
            Profile::Full => 20_000_000,
        }
    }
}

/// Measured numbers for one Table 1 row.
#[derive(Clone, Debug)]
pub struct RowResult {
    /// Benchmark name.
    pub name: String,
    /// Generated source size in KLOC-equivalent (IR statements / 1000).
    pub kstmts: f64,
    /// Generated pointer count.
    pub pointers: usize,
    /// Steensgaard partitioning time.
    pub partitioning: Duration,
    /// Bootstrapped clustering (Andersen) time.
    pub clustering: Duration,
    /// Unclustered FSCS baseline: `None` = exceeded the cap.
    pub unclustered: Option<Duration>,
    /// Steensgaard cover: cluster count.
    pub steens_clusters: usize,
    /// Steensgaard cover: max cluster size.
    pub steens_max: usize,
    /// Steensgaard cover: simulated 5-way parallel FSCS time.
    pub steens_time: Duration,
    /// Andersen cover: cluster count.
    pub andersen_clusters: usize,
    /// Andersen cover: max cluster size.
    pub andersen_max: usize,
    /// Andersen cover: simulated 5-way parallel FSCS time.
    pub andersen_time: Duration,
}

/// Runs one Table 1 row end to end.
pub fn run_row(preset: &Preset, profile: Profile) -> RowResult {
    let program = preset.generate();
    let session = Session::new(&program, Config::default());
    // Table 1's Andersen columns apply clustering to *every* partition
    // (even rows whose max partition is below the practical threshold of
    // 60 show refinement, e.g. sock 9 -> 6), so the Andersen cover comes
    // from a threshold-0 session.
    let session_an = Session::new(
        &program,
        Config {
            andersen_threshold: 0,
            ..Config::default()
        },
    );

    // Column 6: FSCS without clustering, wall-capped like the paper's
    // 15-minute timeout.
    let whole = session.whole_cover();
    let analyzer = session.analyzer();
    let (baseline_report, baseline_wall) = parallel::timed(|| {
        analyzer.process_cluster(
            &whole.clusters()[0],
            bootstrap_core::AnalysisBudget::steps_and_wall(u64::MAX, profile.baseline_cap()),
        )
    });
    let unclustered = baseline_report.degraded.is_none().then_some(baseline_wall);
    drop(analyzer);

    // Columns 7-9: FSCS on Steensgaard partitions.
    let steens_cover = session.steensgaard_cover();
    let steens_reports =
        parallel::process_clusters(&session, steens_cover.clusters(), profile.cluster_steps());
    let steens_time = parallel::simulated_parallel_time(&steens_reports, 5);

    // Columns 10-12: FSCS on the Andersen cover.
    let andersen_cover = session_an.cover();
    let andersen_reports = parallel::process_clusters(
        &session_an,
        andersen_cover.clusters(),
        profile.cluster_steps(),
    );
    let andersen_time = parallel::simulated_parallel_time(&andersen_reports, 5);

    RowResult {
        name: preset.paper.name.to_string(),
        kstmts: program.stmt_count() as f64 / 1000.0,
        pointers: program.pointer_count(),
        partitioning: session.timings().steensgaard,
        clustering: session_an.timings().clustering,
        unclustered,
        steens_clusters: steens_cover.len(),
        steens_max: steens_cover.max_cluster_size(),
        steens_time,
        andersen_clusters: andersen_cover.len(),
        andersen_max: andersen_cover.max_cluster_size(),
        andersen_time,
    }
}

/// Formats a duration as seconds with 2-3 significant digits.
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.3}")
    }
}

/// Formats the optional baseline column (`> cap` on timeout).
pub fn fmt_baseline(d: Option<Duration>, cap: Duration) -> String {
    match d {
        Some(d) => fmt_secs(d),
        None => format!("> {}", fmt_secs(cap)),
    }
}

/// Writes `doc`, indented, to `BENCH_<name>.json` at the repository root
/// and prints where it went, or why it could not be written.
pub fn write_bench_json(name: &str, doc: &Json) {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, format!("{doc:#}\n")) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// One file of a benchmark workload's shape: a chain of `n` pointers with
/// a branch halfway down, one hop through a double pointer just after and
/// a dereference at the end; with `helpers > 0` every copy goes through
/// one of that many branchy identity functions.
pub fn chain_source(n: usize, helpers: usize) -> String {
    let mut s = String::from("int k; int a; int b; int x; int **w;\n");
    for i in 0..n {
        s.push_str(&format!("int *q{i};\n"));
    }
    for h in 0..helpers {
        s.push_str(&format!(
            "int *id{h}(int *r{h}) {{ if (k) {{ return r{h}; }} return r{h}; }}\n"
        ));
    }
    s.push_str("void main() {\n    q0 = &a;\n");
    let mid = n / 2;
    for i in 1..n {
        if i == mid + 1 {
            s.push_str(&format!("    w = &q{mid};\n    q{i} = *w;\n"));
        } else if helpers == 0 {
            s.push_str(&format!("    q{i} = q{};\n", i - 1));
        } else {
            s.push_str(&format!("    q{i} = id{}(q{});\n", i % helpers, i - 1));
        }
        if i == mid {
            s.push_str(&format!("    if (k) {{ q{i} = &b; }}\n"));
        }
    }
    s.push_str(&format!("    x = *q{};\n}}\n", n - 1));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_from_env_defaults_to_quick() {
        // Not setting the variable in the test environment.
        if std::env::var("BOOTSTRAP_BENCH_PROFILE").is_err() {
            assert_eq!(Profile::from_env(), Profile::Quick);
        }
        assert_eq!(Profile::Quick.presets().len(), 4);
        assert_eq!(Profile::Full.presets().len(), 20);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(Duration::from_millis(12)), "0.012");
        assert_eq!(fmt_secs(Duration::from_secs_f64(2.5)), "2.50");
        assert_eq!(fmt_secs(Duration::from_secs(123)), "123");
        assert_eq!(
            fmt_baseline(None, Duration::from_secs(5)),
            "> 5.00".to_string()
        );
    }

    #[test]
    fn run_row_smoke() {
        let preset = bootstrap_workloads::presets::by_name("sock").unwrap();
        let row = run_row(&preset, Profile::Quick);
        assert!(row.pointers > 500);
        assert!(row.steens_clusters > 0);
        assert!(row.andersen_clusters >= row.steens_clusters || row.andersen_clusters > 0);
    }
}
