//! End-to-end and per-layer benchmark of the bootstrapped alias analysis.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates a multi-file mini-C workspace from `--seed`, sets
//! up (generation, parse, daemon start) several times, and then, for
//! `--seconds`, repeats one cycle of the operations a user runs: `check`
//! without a store, cold against an empty store, and warm against the
//! store the cold check filled; whole-cover summarization; and daemon
//! `edit` → `check` round trips, each followed by `query` requests. Every
//! answer is checked against the generator's record of where it injected
//! a NULL. With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` every operation also runs a second time as
//! a traced chain of public calls, and the line carries the per-layer
//! metrics. See `perfbench/README.md`.

mod daemon;
mod gen;
mod ops;
mod reference;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bootstrap_checks::{render_text, CheckReport};
use bootstrap_client::{Json, Request, Response};
use bootstrap_ir::{Program, Stmt};

use crate::daemon::{check_request, report_matches, warned_functions, Daemon, Replica};
use crate::gen::{Rng, Shape};
use crate::reference::{Reference, NOMINAL_S};
use crate::trace::{mean, median, percentile, Trace};

/// One workload: a name and the shape of its generated workspace.
struct WorkloadDef {
    name: &'static str,
    shape: Shape,
}

const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "flat-chains",
        shape: Shape {
            files: 8,
            communities: 2,
            chain: 384,
            helpers: 0,
        },
    },
    WorkloadDef {
        name: "deep-chains",
        shape: Shape {
            files: 16,
            communities: 1,
            chain: 256,
            helpers: 8,
        },
    },
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Seconds each in-process operation should fill per cycle.
const SLICE_S: f64 = 0.3;
/// Upper bound on the repetitions of one operation per cycle.
const MAX_REPS: usize = 20;
/// Daemon `edit` → `check` round trips per cycle.
const EDITS: usize = 4;
/// `query` requests after each edit.
const QUERIES: usize = 20;

/// Per-layer metrics that are one layer's median self time in one traced
/// operation: `(metric, operation, layer)`. Every other layer's self time
/// is reported as `self.<operation>.<layer>_s`.
const NAMED_SELF_TIMES: &[(&str, &str, &str)] = &[
    ("ir.lower_s", "edit_turnaround", "ir.lower"),
    ("analyses.steensgaard_s", "check_nocache", "analyses.steensgaard"),
    ("analyses.andersen_s", "check_nocache", "analyses.andersen"),
    ("core.query_s", "check_nocache", "core.query"),
    ("core.snapshot_s", "edit_turnaround", "core.snapshot"),
    ("core.diff_and_adopt_s", "edit_turnaround", "core.diff_and_adopt"),
    ("core.publish_s", "check_cold", "core.publish"),
    ("checks.run_checks_s", "check_nocache", "checks.run_checks"),
    ("daemon.journal_save_s", "edit_turnaround", "daemon.journal_save"),
];

/// Per-layer metrics read from the layers' own counters (last value
/// seen), with their units.
const COUNTERS: &[(&str, &str)] = &[
    ("analyses.andersen_pops", "count"),
    ("analyses.andersen_edges", "count"),
    ("core.clusters", "count"),
    ("core.max_cluster", "count"),
    ("core.queries", "count"),
    ("core.fscs_steps", "count"),
    ("core.fsci_hit_ratio", "ratio"),
    ("core.interner_hit_ratio", "ratio"),
    ("core.summary_tuples", "count"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("store.entries", "count"),
    ("store.bytes", "bytes"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("checks.sites", "count"),
];

struct Args {
    workload: &'static WorkloadDef,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Attempted and failed operations; the first few failures are reported
/// on standard error.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: failed operation: {what}");
            }
        }
    }
}

/// Named sample lists.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

/// The generated inputs and the running daemon.
struct Setup {
    ws: gen::Workspace,
    rng: Rng,
    /// The initial workspace as one source text (the in-process checks).
    source: String,
    program: Program,
    /// The entry-function statement of chain `j`'s dereference, for a
    /// file without (`[0]`) and with (`[1]`) the injected NULL.
    derefs: [Vec<u32>; 2],
    input_hash: u64,
    daemon: Daemon,
}

fn deref_stmts(shape: &Shape, buggy: bool) -> Vec<u32> {
    let src = format!(
        "{}void main() {{ {}(); }}\n",
        gen::file_source(shape, 0, buggy),
        gen::entry_name(0)
    );
    let program = bootstrap_ir::parse_program(&src).expect("generated file parses");
    let f = program.func(
        program
            .func_named(&gen::entry_name(0))
            .expect("entry exists"),
    );
    (0..shape.communities)
        .map(|j| {
            let last = gen::last_ptr(shape, 0, j);
            f.locs()
                .find(|(_, s)| {
                    matches!(s, Stmt::Load { src, .. } if program.var(*src).name() == last)
                })
                .expect("every chain ends in a dereference")
                .0
                .stmt
        })
        .collect()
}

fn set_up(def: &WorkloadDef, seed: u64, dir: &Path, workers: usize) -> Setup {
    let mut rng = Rng::new(seed);
    let ws = gen::Workspace::generate(def.shape, &mut rng);
    let files = ws.sources();
    let source: String = files
        .values()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .join("\n");
    let program = bootstrap_ir::parse_program(&source).expect("generated workspace parses");
    let derefs = [
        deref_stmts(&def.shape, false),
        deref_stmts(&def.shape, true),
    ];
    let input_hash = gen::input_hash(&files);
    let daemon = Daemon::start(dir, files, workers);
    Setup {
        ws,
        rng,
        source,
        program,
        derefs,
        input_hash,
        daemon,
    }
}

struct Bench<'a> {
    def: &'static WorkloadDef,
    trace: bool,
    threads: usize,
    tmp: &'a Path,
    s: Setup,
    /// The initial workspace's expected warnings (the in-process checks).
    expected: BTreeSet<String>,
    tally: Tally,
    samples: Samples,
    /// Per traced operation, per layer: self seconds per sample.
    selfs: BTreeMap<&'static str, Samples>,
    /// The same for extra spans, work the plain operation does not do.
    extras: BTreeMap<&'static str, Samples>,
    /// Layer counters, last value seen.
    counters: BTreeMap<&'static str, f64>,
    queries: u64,
    degraded: u64,
    dirty: (u64, u64),
    overloaded: u64,
    replica: Option<Replica>,
    replayed: bool,
    reference: Reference,
    /// Cold store directories made so far.
    stores: usize,
}

impl Bench<'_> {
    /// Runs the reference workload after a sample that the reference
    /// run `before` preceded, and returns the factor that brings the
    /// sample's time to the nominal machine speed.
    fn speed(&mut self, before: f64) -> f64 {
        let r = (before + self.reference.run()) / 2.0;
        self.samples.push("reference_s", r);
        NOMINAL_S / r
    }

    /// Records one sample of `name` that took `wall` seconds at `speed`:
    /// normalized under `name`, as measured under `wall.<name>`.
    fn push_time(&mut self, name: &str, wall: f64, speed: f64) {
        self.samples.push(format!("wall.{name}"), wall);
        self.samples.push(name, wall * speed);
    }

    /// Records one traced sample of `op`, taken at `speed` right after a
    /// plain sample that took `plain` wall seconds at `plain_speed`. The
    /// gap between the two is normalized by their mean speed, so that it
    /// holds the difference in work and not the reference's noise.
    fn record_trace(
        &mut self,
        op: &'static str,
        (plain, plain_speed): (f64, f64),
        tr: &Trace,
        speed: f64,
    ) {
        for (extra, map) in [(false, &mut self.selfs), (true, &mut self.extras)] {
            let layers = map.entry(op).or_default();
            for (layer, s) in tr.self_times(extra) {
                layers.push(layer, s * speed);
            }
        }
        let traced = tr.total_s();
        self.samples.push(format!("traced.{op}"), traced * speed);
        self.samples.push(
            format!("gap.{op}"),
            (plain - traced) * (plain_speed + speed) / 2.0,
        );
    }

    /// How often to repeat an operation this cycle: enough to fill
    /// [`SLICE_S`] at its median duration so far, so that cheap
    /// operations contribute many samples and costly ones one.
    fn reps(&self, name: &str) -> usize {
        let m = self.samples.median(name);
        if m <= 0.0 {
            return 1;
        }
        ((SLICE_S / m).round() as usize).clamp(1, MAX_REPS)
    }

    fn tally_report(
        &mut self,
        report: &CheckReport,
        expected: &BTreeSet<String>,
        what: &str,
    ) -> bool {
        self.queries += report.degrade.total_queries() as u64;
        self.degraded += report.degrade.degraded_queries() as u64;
        let ok = report_matches(report, expected) && report.degrade.degraded_queries() == 0;
        self.tally.op(ok, what);
        ok
    }

    /// One plain `check` against `store`, and in a traced run the same
    /// check traced right after it against `traced_store`, so that both
    /// see the same machine load.
    fn check_pair(
        &mut self,
        op: &'static str,
        store: Option<&Path>,
        traced_store: Option<&Path>,
    ) -> CheckReport {
        let expected = self.expected.clone();
        let before = self.reference.run();
        let t = Instant::now();
        let report = ops::check(&self.s.source, store);
        let wall = t.elapsed().as_secs_f64();
        let speed = self.speed(before);
        self.push_time(&format!("{op}_s"), wall, speed);
        self.tally_report(&report, &expected, op);
        if self.trace {
            let before = self.reference.run();
            let mut tr = Trace::default();
            let (traced, facts) = ops::check_traced(&self.s.source, traced_store, &mut tr);
            let traced_speed = self.speed(before);
            self.tally_report(&traced, &expected, "traced check");
            self.record_trace(op, (wall, speed), &tr, traced_speed);
            self.counters.insert("core.clusters", facts.clusters as f64);
            self.counters
                .insert("core.max_cluster", facts.max_cluster as f64);
            self.counters.insert("checks.sites", facts.sites as f64);
        }
        report
    }

    fn checks(&mut self) {
        // Every cold check writes into a directory of its own, nothing is
        // deleted until the run ends, and the filesystem settles before
        // each cold check: on a volume mounted with online discard,
        // deletions (the daemon's epochs overwrite store entries and the
        // journal) make later file creations slower and slower until the
        // journal commits, every 30-40 s.
        let mut cold_dir = PathBuf::new();
        let mut traced_dir = PathBuf::new();
        let mut nocache = None;
        for _ in 0..self.reps("check_nocache_s") {
            nocache = Some(self.check_pair("check_nocache", None, None));
        }
        let mut cold = None;
        for _ in 0..self.reps("check_cold_s") {
            self.stores += 1;
            cold_dir = self.tmp.join(format!("cold{}", self.stores));
            traced_dir = self.tmp.join(format!("cold{}-traced", self.stores));
            settle_filesystem(self.tmp);
            let report = self.check_pair("check_cold", Some(&cold_dir), Some(&traced_dir));
            self.tally.op(
                report.store.hits == 0 && report.store.misses > 0,
                "cold check store counters",
            );
            cold = Some(report);
        }
        let mut warm = None;
        for _ in 0..self.reps("check_warm_s") {
            let report = self.check_pair("check_warm", Some(&cold_dir), Some(&traced_dir));
            self.tally
                .op(report.store.hits > 0, "warm check store counters");
            warm = Some(report);
        }
        let (nocache, cold, warm) = (
            nocache.expect("one check"),
            cold.expect("one check"),
            warm.expect("one check"),
        );
        let text = render_text(&nocache, None);
        self.tally.op(
            text == render_text(&cold, None) && text == render_text(&warm, None),
            "identical findings without a store, cold and warm",
        );

        if !self.trace {
            return;
        }
        let store = bootstrap_core::Store::open(bootstrap_core::StoreConfig::new(&cold_dir))
            .expect("cold store opens");
        self.counters
            .insert("store.entries", store.entry_count() as f64);
        self.counters
            .insert("store.bytes", store.total_bytes() as f64);
        drop(store);
        self.counters
            .insert("store.misses", cold.store.misses as f64);
        self.counters.insert("store.hits", warm.store.hits as f64);
        self.counters
            .insert("analyses.andersen_pops", nocache.solver.pops as f64);
        self.counters
            .insert("analyses.andersen_edges", nocache.solver.edges as f64);
        self.counters
            .insert("core.queries", nocache.degrade.total_queries() as f64);
        self.counters
            .insert("core.fscs_steps", nocache.phases.fscs.steps as f64);
        let ratio = |h: u64, m: u64| h as f64 / (h + m).max(1) as f64;
        self.counters.insert(
            "core.fsci_hit_ratio",
            ratio(nocache.cache.hits, nocache.cache.misses),
        );
        self.counters.insert(
            "core.interner_hit_ratio",
            ratio(nocache.interner.hits, nocache.interner.misses),
        );
        if !self.replayed {
            self.replayed = true;
            let before = self.reference.run();
            let (save, load) = ops::replay_store(&cold_dir, &self.tmp.join("replay"));
            let speed = self.speed(before);
            self.counters.insert("store.save_s", save * speed);
            self.counters.insert("store.load_s", load * speed);
        }
    }

    fn summarize(&mut self) {
        let clean = |r: &[bootstrap_core::ClusterReport]| {
            !r.is_empty() && r.iter().all(|c| c.degraded.is_none())
        };
        for _ in 0..self.reps("summarize_s") {
            let before = self.reference.run();
            let t = Instant::now();
            let (reports, _) = ops::summarize(&self.s.program, self.threads);
            let wall = t.elapsed().as_secs_f64();
            let plain_speed = self.speed(before);
            self.push_time("summarize_s", wall, plain_speed);
            self.tally
                .op(clean(&reports), "summarization without degraded clusters");
            if !self.trace {
                continue;
            }
            let before = self.reference.run();
            let mut tr = Trace::default();
            let (reports, stats) = ops::summarize_traced(&self.s.program, self.threads, &mut tr);
            let speed = self.speed(before);
            self.tally.op(clean(&reports), "traced summarization");
            self.record_trace("summarize", (wall, plain_speed), &tr, speed);
            let busy: f64 = stats.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
            self.samples.push("core.summarize_busy_s", busy * speed);
            self.samples.push("core.utilization", stats.utilization());
            self.samples
                .push("core.steals", stats.total_steals() as f64);
            let slowest = reports
                .iter()
                .map(|r| r.duration.as_secs_f64())
                .fold(0.0, f64::max);
            self.samples.push("core.cluster_max_s", slowest * speed);
            let tuples: usize = reports.iter().map(|r| r.summary_tuples).sum();
            self.counters.insert("core.summary_tuples", tuples as f64);
        }
    }

    /// One daemon `edit` → `check` round trip, then the queries.
    fn edit(&mut self) {
        let shape = self.def.shape;
        let i = self.s.rng.below(shape.files);
        let content = self.s.ws.toggle(i);
        let file = gen::file_name(i);
        let expected = self.s.ws.expected_warnings();

        let before = self.reference.run();
        let start = Instant::now();
        let (resp, edit_s) = self.s.daemon.send(&Request::Edit {
            file: file.clone(),
            content: Some(content.clone()),
        });
        let ok = match resp {
            Ok(Response::EditOk { dirty, .. }) => {
                self.dirty.0 += dirty.dirty_clusters;
                self.dirty.1 += dirty.total_clusters;
                true
            }
            Ok(Response::Overloaded { .. }) => {
                self.overloaded += 1;
                false
            }
            _ => false,
        };
        self.tally.op(ok, "daemon edit");
        let (resp, check_s) = self.s.daemon.send(&check_request());
        let turnaround = start.elapsed().as_secs_f64();
        let ok = match resp {
            Ok(Response::CheckOk { text, findings, .. }) => {
                warned_functions(&text).is_some_and(|f| {
                    f.len() as u64 == findings && f.into_iter().collect::<BTreeSet<_>>() == expected
                })
            }
            Ok(Response::Overloaded { .. }) => {
                self.overloaded += 1;
                false
            }
            _ => false,
        };
        self.tally.op(ok, "daemon check after an edit");
        let speed = self.speed(before);
        self.push_time("edit_turnaround_s", turnaround, speed);
        self.push_time("daemon.edit_s", edit_s, speed);
        self.push_time("daemon.check_s", check_s, speed);

        if self.replica.is_some() {
            let before = self.reference.run();
            let mut tr = Trace::default();
            let replica = self.replica.as_mut().expect("traced run");
            let report = replica.edit(&file, &content, &mut tr);
            let traced_speed = self.speed(before);
            self.tally_report(&report, &expected, "traced daemon epoch");
            self.record_trace("edit_turnaround", (turnaround, speed), &tr, traced_speed);
        }

        for _ in 0..QUERIES {
            let i = self.s.rng.below(shape.files);
            let j = self.s.rng.below(shape.communities);
            let buggy = self.s.ws.buggy[i];
            let req = Request::Query {
                func: gen::entry_name(i),
                stmt: u64::from(self.s.derefs[usize::from(buggy)][j]),
                var: gen::last_ptr(&shape, i, j),
                deadline_ms: None,
            };
            let (resp, query_s) = self.s.daemon.send(&req);
            let want_null = j == 0 && buggy;
            self.queries += 1;
            let ok = match resp {
                Ok(Response::QueryOk {
                    sources, precision, ..
                }) => {
                    if precision != "fscs" {
                        self.degraded += 1;
                    }
                    let has_null = sources.iter().any(|s| s.starts_with("NULL"));
                    let has_addr = sources.iter().any(|s| s.starts_with('&'));
                    precision == "fscs" && has_null == want_null && has_addr
                }
                Ok(Response::Overloaded { .. }) => {
                    self.overloaded += 1;
                    false
                }
                _ => false,
            };
            self.tally.op(ok, "daemon query");
            self.samples.push("query_s", query_s);
        }
    }

    fn end_to_end(&self, setup_s: f64) -> Vec<(String, f64, &'static str)> {
        let s = &self.samples;
        // Times of in-process and daemon work are normalized to the
        // reference workload's nominal speed (see `reference.rs`) and
        // report the median or the percentile their name gives. Queries
        // are not: a query spends most of its time in the daemon's
        // acceptor poll, which does not slow down with the machine.
        vec![
            ("setup_s".into(), setup_s, "s"),
            ("check_nocache_s".into(), s.median("check_nocache_s"), "s"),
            ("check_cold_s".into(), s.median("check_cold_s"), "s"),
            ("check_warm_s".into(), s.median("check_warm_s"), "s"),
            ("summarize_s".into(), s.median("summarize_s"), "s"),
            (
                "edit_turnaround_p50_s".into(),
                percentile(s.get("edit_turnaround_s"), 0.5),
                "s",
            ),
            (
                "edit_turnaround_p90_s".into(),
                percentile(s.get("edit_turnaround_s"), 0.9),
                "s",
            ),
            ("query_p50_s".into(), percentile(s.get("query_s"), 0.5), "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ]
    }

    fn per_layer(&self) -> Vec<(String, f64, &'static str)> {
        let s = &self.samples;
        let own = |op: &str, layer: &str| self.selfs.get(op).map_or(0.0, |m| m.median(layer));
        let counter = |k: &str| self.counters.get(k).copied().unwrap_or(0.0);
        let ratio = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        let mut m: Vec<(String, f64, &'static str)> = NAMED_SELF_TIMES
            .iter()
            .map(|&(name, op, layer)| (name.to_string(), own(op, layer), "s"))
            .collect();
        m.extend([
            (
                "core.session_new_s".into(),
                ["core.session_new", "analyses.steensgaard", "analyses.andersen"]
                    .iter()
                    .map(|l| own("check_nocache", l))
                    .sum(),
                "s",
            ),
            ("core.summarize_busy_s".into(), s.median("core.summarize_busy_s"), "s"),
            ("core.cluster_max_s".into(), s.median("core.cluster_max_s"), "s"),
            ("core.utilization".into(), s.median("core.utilization"), "ratio"),
            ("core.steals".into(), s.median("core.steals"), "count"),
            ("core.dirty_frac".into(), ratio(self.dirty.0, self.dirty.1), "ratio"),
            ("daemon.edit_s".into(), mean(s.get("daemon.edit_s")), "s"),
            ("daemon.check_s".into(), mean(s.get("daemon.check_s")), "s"),
            ("daemon.query_s".into(), mean(s.get("query_s")), "s"),
            (
                "daemon.query_p90_s".into(),
                percentile(s.get("query_s"), 0.9),
                "s",
            ),
            ("client.overloaded".into(), self.overloaded as f64, "count"),
            (
                "degraded_query_frac".into(),
                ratio(self.degraded, self.queries),
                "ratio",
            ),
        ]);
        for &(name, unit) in COUNTERS {
            m.push((name.to_string(), counter(name), unit));
        }
        let named = |op: &str, layer: &str| {
            NAMED_SELF_TIMES
                .iter()
                .any(|&(_, o, l)| o == op && l == layer)
        };
        for (op, layers) in &self.selfs {
            let mut sum = 0.0;
            for name in layers.0.keys() {
                let v = layers.median(name);
                sum += v;
                if !named(op, name) {
                    m.push((format!("self.{op}.{name}_s"), v, "s"));
                }
            }
            for (name, v) in self.extras.get(op).iter().flat_map(|e| &e.0) {
                m.push((format!("extra.{op}.{name}_s"), median(v), "s"));
            }
            let untraced = s.median(&format!("{op}_s"));
            let traced = s.median(&format!("traced.{op}"));
            let unaccounted = s.median(&format!("gap.{op}"));
            m.push((format!("acct.{op}.untraced_s"), untraced, "s"));
            m.push((format!("acct.{op}.traced_s"), traced, "s"));
            m.push((format!("acct.{op}.self_sum_s"), sum, "s"));
            m.push((format!("acct.{op}.unaccounted_s"), unaccounted, "s"));
            m.push((
                format!("acct.{op}.unaccounted_frac"),
                unaccounted / untraced.max(f64::MIN_POSITIVE),
                "ratio",
            ));
            m.push((
                format!("acct.{op}.trace_overhead_s"),
                traced - untraced,
                "s",
            ));
        }
        m
    }

    /// Per sample list: its count, minimum, 10th percentile, quartiles
    /// and maximum.
    fn sample_summary(&self) -> Json {
        Json::Obj(
            self.samples
                .0
                .iter()
                .map(|(k, v)| {
                    let q = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0].map(|p| Json::Num(percentile(v, p)));
                    let summary = Json::obj([
                        ("n", Json::Int(v.len() as i64)),
                        ("min_p10_q1_median_q3_max", Json::Arr(q.to_vec())),
                    ]);
                    (k.clone(), summary)
                })
                .collect(),
        )
    }
}

/// Peak resident set of this process (the daemon runs in it too).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's revision, read from `.git` when there is one.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown (not a git checkout)".to_string()
    } else {
        rev.to_string()
    }
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn metrics_json(list: Vec<(String, f64, &'static str)>) -> Json {
    Json::Obj(
        list.into_iter()
            .map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

fn run(args: &Args, tmp: &Path) -> (Json, Json) {
    let def = args.workload;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let reference = Reference::new(threads);
    let mut setups = Vec::new();
    let mut setup = None;
    for k in 0..SETUPS {
        let before = reference.run();
        let t = Instant::now();
        let s = set_up(def, args.seed, &tmp.join(format!("daemon{k}")), threads);
        let wall = t.elapsed().as_secs_f64();
        setups.push(wall * 2.0 * NOMINAL_S / (before + reference.run()));
        if let Some(old) = setup.replace(s) {
            let old: Setup = old;
            old.daemon.stop();
        }
    }
    let s = setup.expect("at least one set-up");
    let expected = s.ws.expected_warnings();
    let mut bench = Bench {
        def,
        trace: args.trace,
        threads,
        tmp,
        s,
        expected: expected.clone(),
        tally: Tally::default(),
        samples: Samples::default(),
        selfs: BTreeMap::new(),
        extras: BTreeMap::new(),
        counters: BTreeMap::new(),
        queries: 0,
        degraded: 0,
        dirty: (0, 0),
        overloaded: 0,
        replica: None,
        replayed: false,
        reference,
        stores: 0,
    };

    // Prime the daemon's store with its first check, as an editor would.
    let (resp, _) = bench.s.daemon.send(&check_request());
    let ok = matches!(resp, Ok(Response::CheckOk { text, .. })
        if warned_functions(&text).is_some_and(|f| f.into_iter().collect::<BTreeSet<_>>() == expected));
    bench.tally.op(ok, "priming daemon check");
    if args.trace {
        bench.replica = Some(Replica::start(&tmp.join("replica"), &bench.s.ws.sources()));
    }

    let start = Instant::now();
    let mut cycles = 0u64;
    while cycles == 0 || start.elapsed().as_secs_f64() < args.seconds {
        bench.checks();
        bench.summarize();
        for _ in 0..EDITS {
            bench.edit();
        }
        cycles += 1;
    }
    let measured_s = start.elapsed().as_secs_f64();

    let setup_s = median(&setups);
    let metrics = if args.trace {
        metrics_json(bench.per_layer())
    } else {
        metrics_json(bench.end_to_end(setup_s))
    };
    let header = Json::obj([
        ("workload", Json::str(def.name)),
        ("seed", Json::Int(args.seed as i64)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(threads as i64)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_revision", Json::str(git_revision())),
        ("rustc", Json::str(rustc_version())),
        (
            "input_hash",
            Json::str(format!("{:016x}", bench.s.input_hash)),
        ),
        (
            "shape",
            Json::obj([
                ("files", Json::Int(def.shape.files as i64)),
                ("communities", Json::Int(def.shape.communities as i64)),
                ("chain", Json::Int(def.shape.chain as i64)),
                ("helpers", Json::Int(def.shape.helpers as i64)),
                ("edits_per_cycle", Json::Int(EDITS as i64)),
                ("queries_per_edit", Json::Int(QUERIES as i64)),
            ]),
        ),
        ("cycles", Json::Int(cycles as i64)),
        ("measured_s", Json::Num(measured_s)),
        (
            "setup_samples_s",
            Json::Arr(setups.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("samples", bench.sample_summary()),
    ]);
    let result = Json::obj([
        ("correct", Json::Bool(bench.tally.failed == 0)),
        ("attempted", Json::Int(bench.tally.attempted as i64)),
        ("failed", Json::Int(bench.tally.failed as i64)),
        ("metrics", metrics),
    ]);
    bench.s.daemon.stop();
    (header, result)
}

/// Waits until the filesystem has committed every pending change, so that
/// deletions made earlier are not processed in the middle of a
/// measurement: rewriting a one-byte marker in `dir` and syncing it
/// commits the running journal transaction, and with it everything before.
fn settle_filesystem(dir: &Path) {
    if let Ok(mut marker) = std::fs::File::create(dir.join(".settle")) {
        let _ = std::io::Write::write_all(&mut marker, b"s");
        let _ = marker.sync_all();
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_tmp");
    let tmp = root.join(std::process::id().to_string());
    std::fs::create_dir_all(&tmp).expect("scratch directory in the working directory");
    settle_filesystem(&tmp);
    let (header, result) = run(&args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    settle_filesystem(&root);
    let _ = std::fs::remove_file(root.join(".settle"));
    let _ = std::fs::remove_dir(&root);
    println!("{}", Json::obj([("header", header)]).to_string());
    println!("{}", result.to_string());
}
