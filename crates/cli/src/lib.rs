//! Command-line front end for the bootstrapped pointer alias analysis.
//!
//! ```text
//! bootstrap-alias partitions  <file.c>
//! bootstrap-alias clusters    <file.c> [--threshold N]
//! bootstrap-alias relevant    <file.c> --vars a,b
//! bootstrap-alias sources     <file.c> --var p [--at FUNC] [--path-sensitive]
//! bootstrap-alias may-alias   <file.c> --pair p,q [--at FUNC] [--path-sensitive]
//! bootstrap-alias must-alias  <file.c> --pair p,q [--at FUNC] [--path-sensitive]
//! bootstrap-alias check       <file.c> [--only null-deref,uaf,double-free,race] [--format text|json]
//! bootstrap-alias dot         <file.c> (--cfg FUNC | --callgraph)
//! bootstrap-alias stats       <file.c> [--format text|json]
//! bootstrap-alias fuzz        [--seed N] [--iters N] [--corpus DIR]
//! bootstrap-alias cache       --cache-dir DIR [clear]
//! bootstrap-alias serve       --socket PATH [--cache-dir DIR] [--workers N]
//!                             [--queue-cap N] [--deadline-ms N] [files..]
//! ```
//!
//! Query locations default to the exit of `main`; `--at FUNC` queries at
//! the exit of `FUNC`. All commands parse mini-C, resolve function
//! pointers (devirtualization), and run the bootstrapping cascade.
//!
//! `check` runs the flow- and context-sensitive client checkers
//! ([`bootstrap_checks`]) and exits with status 1 when defects are found,
//! 2 on usage/analysis errors, 0 when clean. With `--fail-on-degraded` a
//! clean run whose queries fell below full FSCS precision exits 3, so CI
//! can distinguish "verified clean" from "clean as far as we could see".
//!
//! With `--cache-dir DIR`, `check` and `stats` consult and populate a
//! persistent content-addressed store of per-cluster FSCS artifacts, so a
//! second run over an unchanged program skips (nearly) all of the solve;
//! `cache` inspects or clears such a directory. `--no-cache` wins over
//! `--cache-dir` (for scripts that thread a shared flag set).
//!
//! `fuzz` takes no input file: it runs the differential fuzzing campaign
//! ([`bootstrap_fuzz`]) over random Mini-C programs (plus the
//! fault-injection invariants with `--faults`) and exits with status 1
//! when any cross-engine invariant is violated.
//!
//! `serve` hosts the crash-safe analysis daemon ([`bootstrap_daemon`])
//! on a Unix socket; `check <file.c> --remote SOCKET` sends the file to
//! a running daemon as an edit and runs the checkers against its
//! resident (warm, incrementally invalidated) session, retrying shed
//! requests with jittered exponential backoff.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fmt::Write as _;

use bootstrap_analyses::{fpresolve, steensgaard, FpResolution, FpResolver};
use bootstrap_checks::{CheckReport, CheckerKind};
use bootstrap_client::Json;
use bootstrap_core::{AnalysisBudget, Config, InternerStats, Outcome, Session};
use bootstrap_ir::{CallGraph, Loc, Program, VarId, VarKind};

/// A CLI error: bad usage or a failed analysis.
#[derive(Debug)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Usage text.
pub const USAGE: &str = "\
usage: bootstrap-alias <command> <file.c> [options]

commands:
  partitions   print the Steensgaard alias partitions
  clusters     print the bootstrapped cluster cover (--threshold N, default 60)
  relevant     print Algorithm 1's relevant statements (--vars a,b,..)
  sources      print value sources of a pointer (--var p) [--at FUNC]
  may-alias    query may-alias for a pair (--pair p,q) [--at FUNC]
  must-alias   query must-alias for a pair (--pair p,q) [--at FUNC]
  check        run the client checkers (null-deref, use-after-free,
               double-free, race)
  dot          emit Graphviz (--cfg FUNC | --callgraph)
  stats        print program and cascade statistics (--format text|json)
  fuzz         differential fuzzing campaign (no input file;
               [--seed N] [--iters N] [--corpus DIR] [--faults])
  cache        inspect a persistent cache directory (--cache-dir DIR);
               `cache --cache-dir DIR clear` deletes its entries
  serve        host the analysis daemon on a Unix socket (--socket PATH
               [--cache-dir DIR] [--workers N] [--queue-cap N]
               [--deadline-ms N] [--fault-seed N] [seed files..])

options:
  --at FUNC          query at the exit of FUNC (default: main)
  --threshold N      Andersen threshold (clusters, check; default 60)
  --path-sensitive   enable the path-sensitive mode
  --vars a,b  /  --var p  /  --pair p,q   variable selectors
  --only a,b         checkers to run (null-deref, uaf, double-free, race)
  --format FMT       `check`/`stats` output format: text (default) or json
  --query-budget N   per-query step budget (sources, check, stats)
  --fail-on-degraded exit 3 when `check` finds no defects but some
                     queries fell below full FSCS precision
  --faults           `fuzz`: also run the fault-injection invariants
  --cache-dir DIR    persist per-cluster FSCS artifacts in DIR and
                     warm-start from them (check, stats, cache)
  --no-cache         ignore --cache-dir (run cold, publish nothing)
  --fp-resolver S    indirect-call resolver stage: flta | mlta | pts
                     (default pts; the stages form a precision ladder)
  --remote SOCKET    `check`: run against a daemon instead of locally
  --deadline-ms N    `check --remote`: per-request wall deadline
";

/// Parsed command-line options.
struct Opts {
    command: String,
    file: String,
    at: Option<String>,
    threshold: Option<usize>,
    path_sensitive: bool,
    vars: Vec<String>,
    cfg: Option<String>,
    callgraph: bool,
    only: Option<String>,
    format: Option<String>,
    query_budget: Option<u64>,
    fail_on_degraded: bool,
    cache_dir: Option<String>,
    no_cache: bool,
    fp_resolver: Option<String>,
    remote: Option<String>,
    deadline_ms: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Opts, CliError> {
    if args.len() < 2 {
        return err(format!("missing command or file\n{USAGE}"));
    }
    let mut opts = Opts {
        command: args[0].clone(),
        file: args[1].clone(),
        at: None,
        threshold: None,
        path_sensitive: false,
        vars: Vec::new(),
        cfg: None,
        callgraph: false,
        only: None,
        format: None,
        query_budget: None,
        fail_on_degraded: false,
        cache_dir: None,
        no_cache: false,
        fp_resolver: None,
        remote: None,
        deadline_ms: None,
    };
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--at" => {
                i += 1;
                opts.at = Some(take(args, i, "--at")?);
            }
            "--threshold" => {
                i += 1;
                let raw = take(args, i, "--threshold")?;
                opts.threshold = Some(
                    raw.parse()
                        .map_err(|_| CliError(format!("invalid threshold `{raw}`")))?,
                );
            }
            "--path-sensitive" => opts.path_sensitive = true,
            "--vars" | "--var" | "--pair" => {
                i += 1;
                let raw = take(args, i, "--vars")?;
                opts.vars = raw.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--cfg" => {
                i += 1;
                opts.cfg = Some(take(args, i, "--cfg")?);
            }
            "--callgraph" => opts.callgraph = true,
            "--only" => {
                i += 1;
                opts.only = Some(take(args, i, "--only")?);
            }
            "--format" => {
                i += 1;
                opts.format = Some(take(args, i, "--format")?);
            }
            "--query-budget" => {
                i += 1;
                let raw = take(args, i, "--query-budget")?;
                opts.query_budget = Some(
                    raw.parse()
                        .map_err(|_| CliError(format!("invalid query budget `{raw}`")))?,
                );
            }
            "--fail-on-degraded" => opts.fail_on_degraded = true,
            "--cache-dir" => {
                i += 1;
                opts.cache_dir = Some(take(args, i, "--cache-dir")?);
            }
            "--no-cache" => opts.no_cache = true,
            "--fp-resolver" => {
                i += 1;
                opts.fp_resolver = Some(take(args, i, "--fp-resolver")?);
            }
            "--remote" => {
                i += 1;
                opts.remote = Some(take(args, i, "--remote")?);
            }
            "--deadline-ms" => {
                i += 1;
                let raw = take(args, i, "--deadline-ms")?;
                opts.deadline_ms = Some(
                    raw.parse()
                        .map_err(|_| CliError(format!("invalid deadline `{raw}`")))?,
                );
            }
            other => return err(format!("unknown option `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    Ok(opts)
}

fn take(args: &[String], i: usize, flag: &str) -> Result<String, CliError> {
    args.get(i)
        .cloned()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))
}

/// CLI output: the text to print plus the process exit status (0 clean,
/// 1 when `check` reports findings).
#[derive(Debug)]
pub struct CliOutput {
    /// Text to print on stdout.
    pub text: String,
    /// Process exit status.
    pub exit_code: i32,
}

/// Runs the CLI and returns the text it would print.
///
/// Convenience wrapper around [`run_full`] that discards the exit status.
///
/// # Errors
///
/// Returns [`CliError`] on bad usage, unreadable/unparsable input, unknown
/// variable or function names, or an analysis that exceeds its budget.
pub fn run(args: &[String]) -> Result<String, CliError> {
    run_full(args).map(|out| out.text)
}

/// Runs the CLI and returns the text plus the intended exit status.
///
/// # Errors
///
/// Returns [`CliError`] on bad usage, unreadable/unparsable input, unknown
/// variable or function names, or an analysis that exceeds its budget.
pub fn run_full(args: &[String]) -> Result<CliOutput, CliError> {
    if args.first().map(String::as_str) == Some("--help") || args.is_empty() {
        return Ok(CliOutput {
            text: USAGE.to_string(),
            exit_code: 0,
        });
    }
    // `fuzz` and `cache` take no input file; intercept them before
    // positional parsing.
    if args.first().map(String::as_str) == Some("fuzz") {
        return cmd_fuzz(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("cache") {
        return cmd_cache(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return cmd_serve(&args[1..]);
    }
    let opts = parse_args(args)?;
    let source = std::fs::read_to_string(&opts.file)
        .map_err(|e| CliError(format!("cannot read {}: {e}", opts.file)))?;
    if opts.command == "check" {
        if let Some(socket) = &opts.remote {
            return cmd_check_remote(socket, &source, &opts);
        }
    } else if opts.remote.is_some() {
        return err("--remote is only supported by `check`");
    }
    let mut program = bootstrap_ir::parse_program(&source)
        .map_err(|e| CliError(format!("{}: {e}", opts.file)))?;
    let stage = match opts.fp_resolver.as_deref() {
        None => FpResolver::PointsTo,
        Some(s) => FpResolver::parse(s)
            .ok_or_else(|| CliError(format!("unknown fp resolver `{s}` (flta|mlta|pts)")))?,
    };
    let fp = fpresolve::resolve_calls(&mut program, stage);

    if opts.command == "check" {
        return cmd_check(&program, &opts, fp);
    }
    let text = match opts.command.as_str() {
        "partitions" => cmd_partitions(&program),
        "clusters" => cmd_clusters(&program, &opts),
        "relevant" => cmd_relevant(&program, &opts),
        "sources" => cmd_sources(&program, &opts),
        "may-alias" => cmd_alias(&program, &opts, false),
        "must-alias" => cmd_alias(&program, &opts, true),
        "dot" => cmd_dot(&program, &opts),
        "stats" => cmd_stats(&program, &opts, fp),
        other => err(format!("unknown command `{other}`\n{USAGE}")),
    }?;
    Ok(CliOutput { text, exit_code: 0 })
}

fn cmd_fuzz(args: &[String]) -> Result<CliOutput, CliError> {
    let mut config = bootstrap_fuzz::FuzzConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                let raw = take(args, i, "--seed")?;
                config.seed = raw
                    .parse()
                    .map_err(|_| CliError(format!("invalid seed `{raw}`")))?;
            }
            "--iters" => {
                i += 1;
                let raw = take(args, i, "--iters")?;
                config.iters = raw
                    .parse()
                    .map_err(|_| CliError(format!("invalid iteration count `{raw}`")))?;
            }
            "--corpus" => {
                i += 1;
                config.corpus_dir = Some(std::path::PathBuf::from(take(args, i, "--corpus")?));
            }
            "--faults" => config.faults = true,
            other => return err(format!("unknown option `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    let report = bootstrap_fuzz::run_fuzz(&config);
    let mut text = String::new();
    for v in &report.violations {
        let _ = writeln!(
            text,
            "violation[{}] at seed {} iteration {}: {}\nminimized reproducer:\n{}",
            v.kind, config.seed, v.iteration, v.detail, v.source
        );
    }
    let _ = writeln!(
        text,
        "fuzz: {} iterations, seed {}: {} violation(s)",
        report.iters,
        config.seed,
        report.violations.len()
    );
    Ok(CliOutput {
        text,
        exit_code: i32::from(!report.violations.is_empty()),
    })
}

fn cmd_cache(args: &[String]) -> Result<CliOutput, CliError> {
    let mut dir: Option<String> = None;
    let mut clear = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cache-dir" => {
                i += 1;
                dir = Some(take(args, i, "--cache-dir")?);
            }
            "clear" => clear = true,
            other => return err(format!("unknown option `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    let dir = dir.ok_or_else(|| CliError(format!("cache needs --cache-dir DIR\n{USAGE}")))?;
    let store = bootstrap_core::Store::open(bootstrap_core::StoreConfig::new(&dir))
        .map_err(|e| CliError(format!("cannot open cache {dir}: {e}")))?;
    let mut text = String::new();
    if clear {
        let (entries, bytes) = store
            .clear()
            .map_err(|e| CliError(format!("cannot clear cache {dir}: {e}")))?;
        let _ = writeln!(text, "cleared {entries} entries ({bytes} bytes) from {dir}");
    } else {
        let counters = bootstrap_core::read_lifetime_counters(std::path::Path::new(&dir));
        let _ = writeln!(
            text,
            "cache {dir}: {} entries, {} bytes",
            store.entry_count(),
            store.total_bytes()
        );
        let _ = writeln!(
            text,
            "lifetime counters: {} hits, {} misses, {} invalidated ({} loads)",
            counters.hits,
            counters.misses,
            counters.invalidated,
            counters.loads()
        );
    }
    Ok(CliOutput { text, exit_code: 0 })
}

fn cmd_serve(args: &[String]) -> Result<CliOutput, CliError> {
    let mut socket: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut workers = 2usize;
    let mut queue_cap = 8usize;
    let mut deadline_ms: Option<u64> = None;
    let mut fault_seed: Option<u64> = None;
    let mut seed_files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                i += 1;
                socket = Some(take(args, i, "--socket")?);
            }
            "--cache-dir" => {
                i += 1;
                cache_dir = Some(take(args, i, "--cache-dir")?);
            }
            "--workers" => {
                i += 1;
                let raw = take(args, i, "--workers")?;
                workers = raw
                    .parse()
                    .map_err(|_| CliError(format!("invalid worker count `{raw}`")))?;
            }
            "--queue-cap" => {
                i += 1;
                let raw = take(args, i, "--queue-cap")?;
                queue_cap = raw
                    .parse()
                    .map_err(|_| CliError(format!("invalid queue cap `{raw}`")))?;
            }
            "--deadline-ms" => {
                i += 1;
                let raw = take(args, i, "--deadline-ms")?;
                deadline_ms = Some(
                    raw.parse()
                        .map_err(|_| CliError(format!("invalid deadline `{raw}`")))?,
                );
            }
            "--fault-seed" => {
                i += 1;
                let raw = take(args, i, "--fault-seed")?;
                fault_seed = Some(
                    raw.parse()
                        .map_err(|_| CliError(format!("invalid fault seed `{raw}`")))?,
                );
            }
            flag if flag.starts_with("--") => {
                return err(format!("unknown option `{flag}`\n{USAGE}"))
            }
            file => seed_files.push(file.to_string()),
        }
        i += 1;
    }
    let socket = socket.ok_or_else(|| CliError("serve needs --socket PATH".into()))?;
    let mut serve_opts = bootstrap_daemon::ServeOptions::new(&socket);
    serve_opts.cache_dir = cache_dir.map(Into::into);
    serve_opts.workers = workers;
    serve_opts.queue_cap = queue_cap;
    serve_opts.default_deadline_ms = deadline_ms;
    serve_opts.fault_plan = fault_seed.map(bootstrap_core::FaultPlan::from_seed);
    for file in &seed_files {
        let content = std::fs::read_to_string(file)
            .map_err(|e| CliError(format!("cannot read {file}: {e}")))?;
        let name = std::path::Path::new(file)
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or(file)
            .to_string();
        serve_opts.seed_files.insert(name, content);
    }
    bootstrap_daemon::serve(serve_opts).map_err(|e| CliError(format!("daemon failed: {e}")))?;
    Ok(CliOutput {
        text: String::new(),
        exit_code: 0,
    })
}

/// `check --remote`: send the file to a running daemon as an edit, then
/// run the checkers against its resident session. Shed requests and
/// connection failures are retried with jittered exponential backoff by
/// the client.
fn cmd_check_remote(socket: &str, source: &str, opts: &Opts) -> Result<CliOutput, CliError> {
    use bootstrap_client::{Client, Request, Response};

    let kinds: Vec<String> = match &opts.only {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|name| {
                CheckerKind::parse(name)
                    .map(|k| k.name().to_string())
                    .ok_or_else(|| CliError(format!("unknown checker `{name}`")))
            })
            .collect::<Result<_, _>>()?,
    };
    let name = std::path::Path::new(&opts.file)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or(opts.file.as_str())
        .to_string();
    let client = Client::new(socket);
    let rpc = |req: &Request| {
        client
            .request(req)
            .map_err(|e| CliError(format!("daemon at {socket}: {e}")))
    };

    let mut text = String::new();
    match rpc(&Request::Edit {
        file: name,
        content: Some(source.to_string()),
    })? {
        Response::EditOk { epoch, dirty } => {
            let _ = writeln!(
                text,
                "daemon epoch {epoch}: {}/{} clusters dirty ({} adopted)",
                dirty.dirty_clusters,
                dirty.total_clusters,
                if dirty.adopted { "rest" } else { "none" }
            );
        }
        Response::Error { kind, message } => {
            return err(format!("daemon rejected edit ({kind}): {message}"))
        }
        other => return err(format!("unexpected daemon response: {other:?}")),
    }
    match rpc(&Request::Check {
        kinds,
        deadline_ms: opts.deadline_ms,
    })? {
        Response::CheckOk {
            text: findings,
            findings: count,
            exit_code,
        } => {
            text.push_str(&findings);
            if count == 0 {
                let _ = writeln!(text, "no defects found");
            }
            Ok(CliOutput {
                text,
                exit_code: exit_code as i32,
            })
        }
        Response::Error { kind, message } => {
            err(format!("daemon check failed ({kind}): {message}"))
        }
        other => err(format!("unexpected daemon response: {other:?}")),
    }
}

fn cmd_check(program: &Program, opts: &Opts, fp: FpResolution) -> Result<CliOutput, CliError> {
    let kinds: Vec<CheckerKind> = match &opts.only {
        None => CheckerKind::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|name| {
                CheckerKind::parse(name)
                    .ok_or_else(|| CliError(format!("unknown checker `{name}`")))
            })
            .collect::<Result<_, _>>()?,
    };
    if kinds.is_empty() {
        return err("--only selected no checkers");
    }
    let session = Session::new(program, config_of(opts));
    let report = bootstrap_checks::run_checks(&session, &kinds);

    let text = match opts.format.as_deref() {
        Some("json") => {
            let findings = report.findings.iter().map(|f| {
                Json::obj([
                    ("checker", Json::str(f.checker.name())),
                    ("severity", Json::str(f.severity.label())),
                    ("file", Json::str(&opts.file)),
                    ("function", Json::str(&f.func)),
                    ("line", f.line.map_or(Json::Null, Json::int)),
                    ("stmt", Json::int(f.loc.stmt)),
                    ("var", Json::str(&f.var)),
                    ("object", f.object.as_deref().map_or(Json::Null, Json::str)),
                    ("message", Json::str(&f.message)),
                    ("precision", Json::str(f.precision.label())),
                ])
            });
            let stats = report.stats.iter().map(|s| {
                Json::obj([
                    ("checker", Json::str(s.kind.name())),
                    ("sites", Json::int(s.sites)),
                    ("queries", Json::int(s.queries)),
                    ("findings", Json::int(s.findings)),
                ])
            });
            let mut members = vec![
                ("findings", Json::Arr(findings.collect())),
                ("stats", Json::Arr(stats.collect())),
            ];
            members.extend(counter_members(&report, &fp));
            format!("{:#}\n", Json::obj(members))
        }
        None | Some("text") => {
            let mut out = bootstrap_checks::render_text(&report, Some(&opts.file));
            if report.findings.is_empty() {
                let _ = writeln!(out, "no defects found");
            }
            let _ = writeln!(out);
            for s in &report.stats {
                let _ = writeln!(
                    out,
                    "{:<16} {} sites, {} queries, {} findings",
                    s.kind.name(),
                    s.sites,
                    s.queries,
                    s.findings
                );
            }
            counter_lines(&mut out, &report, &fp, session.config().store.is_some());
            out
        }
        Some(other) => return err(format!("unknown format `{other}` (text|json)")),
    };
    let exit_code = if !report.findings.is_empty() {
        1
    } else if opts.fail_on_degraded && report.degrade.degraded_queries() > 0 {
        3
    } else {
        0
    };
    Ok(CliOutput { exit_code, text })
}

/// The counters `check` and `stats` both print as JSON members: the
/// values [`counter_lines`] prints as text.
fn counter_members(report: &CheckReport, fp: &FpResolution) -> [(&'static str, Json); 7] {
    let phases = report.phases.iter().map(|(phase, stats)| {
        Json::obj([
            ("phase", Json::str(phase.name())),
            ("wall_secs", Json::Num(stats.wall.as_secs_f64())),
            ("steps", Json::int(stats.steps)),
            ("invocations", Json::int(stats.invocations)),
        ])
    });
    let d = &report.degrade;
    let reasons = d.reasons.iter().map(|(reason, n)| {
        Json::obj([
            ("reason", Json::str(reason.label())),
            ("count", Json::int(*n)),
        ])
    });
    [
        (
            "fsci_cache",
            Json::obj([
                ("hits", Json::int(report.cache.hits)),
                ("misses", Json::int(report.cache.misses)),
                ("entries", Json::int(report.cache.entries)),
            ]),
        ),
        (
            "interner",
            Json::obj([
                ("conds", Json::int(report.interner.conds)),
                ("deads", Json::int(report.interner.deads)),
                ("memo_entries", Json::int(report.interner.memo_entries)),
                ("hits", Json::int(report.interner.hits)),
                ("misses", Json::int(report.interner.misses)),
                ("max_ids", Json::int(report.interner.max_ids)),
                ("occupancy", Json::Num(occupancy(&report.interner))),
            ]),
        ),
        (
            "store",
            Json::obj([
                ("hits", Json::int(report.store.hits)),
                ("misses", Json::int(report.store.misses)),
                ("invalidated", Json::int(report.store.invalidated)),
                ("loads", Json::int(report.store.loads())),
            ]),
        ),
        (
            "solver",
            Json::obj([
                ("pops", Json::int(report.solver.pops)),
                ("stale_pops", Json::int(report.solver.stale_pops)),
                ("edges", Json::int(report.solver.edges)),
                ("sccs_online", Json::int(report.solver.sccs_online)),
                ("sccs_offline", Json::int(report.solver.sccs_offline)),
                ("wave_rounds", Json::int(report.solver.wave_rounds)),
                ("edges_pruned", Json::int(report.solver.edges_pruned)),
                ("dup_constraints", Json::int(report.solver.dup_constraints)),
            ]),
        ),
        (
            "fp_resolver",
            Json::obj([
                ("stage", Json::str(fp.stage.name())),
                ("sites", Json::int(fp.sites)),
                ("edges", Json::int(fp.edges)),
                ("edges_flta", Json::int(fp.edges_flta)),
                ("edges_mlta", Json::int(fp.edges_mlta)),
                ("edges_pts", Json::int(fp.edges_pts)),
            ]),
        ),
        ("phases", Json::Arr(phases.collect())),
        (
            "degradation",
            Json::obj([
                (
                    "queries",
                    Json::obj([
                        ("fscs", Json::int(d.fscs_queries)),
                        ("andersen", Json::int(d.andersen_queries)),
                        ("steensgaard", Json::int(d.steensgaard_queries)),
                    ]),
                ),
                ("degraded_queries", Json::int(d.degraded_queries())),
                ("reasons", Json::Arr(reasons.collect())),
            ]),
        ),
    ]
}

/// Prints the counters `check` and `stats` both report, as text: the
/// values [`counter_members`] prints as JSON. The store line appears only
/// when the session has a store.
fn counter_lines(out: &mut String, report: &CheckReport, fp: &FpResolution, store: bool) {
    let rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            100.0 * hits as f64 / total as f64
        }
    };
    let c = &report.cache;
    let _ = writeln!(
        out,
        "fsci cache: {} hits / {} misses ({} entries, {:.1}% hit rate)",
        c.hits,
        c.misses,
        c.entries,
        rate(c.hits, c.misses)
    );
    if store {
        let s = &report.store;
        let _ = writeln!(
            out,
            "store: {} hits, {} misses, {} invalidated ({} loads)",
            s.hits,
            s.misses,
            s.invalidated,
            s.loads()
        );
    }
    let i = &report.interner;
    let _ = writeln!(
        out,
        concat!(
            "interner: {} conds, {} dead sets, {} memo entries ",
            "({} hits, {:.1}% hit rate, {:.4}% of {} ids)"
        ),
        i.conds,
        i.deads,
        i.memo_entries,
        i.hits,
        rate(i.hits, i.misses),
        100.0 * occupancy(i),
        i.max_ids,
    );
    let s = &report.solver;
    let _ = writeln!(
        out,
        "solver pops: {} productive, {} stale ({} copy edges, {} pruned, {} dup constraints)",
        s.pops, s.stale_pops, s.edges, s.edges_pruned, s.dup_constraints
    );
    let _ = writeln!(
        out,
        "solver cycles: {} collapsed offline, {} online, {} wave rounds",
        s.sccs_offline, s.sccs_online, s.wave_rounds
    );
    if fp.sites > 0 {
        let _ = writeln!(
            out,
            "fp resolver [{}]: {} sites, {} edges installed (flta {}, mlta {}, pts {})",
            fp.stage.name(),
            fp.sites,
            fp.edges,
            fp.edges_flta,
            fp.edges_mlta,
            fp.edges_pts
        );
    }
    for (phase, stats) in report.phases.iter() {
        let _ = writeln!(
            out,
            "phase {:<13} {:?} ({} runs, {} steps)",
            format!("{}:", phase.name()),
            stats.wall,
            stats.invocations,
            stats.steps
        );
    }
    let d = &report.degrade;
    let _ = writeln!(
        out,
        "query tiers: {} fscs, {} andersen, {} steensgaard",
        d.fscs_queries, d.andersen_queries, d.steensgaard_queries
    );
    if d.degraded_queries() > 0 {
        let reasons: Vec<String> = d
            .reasons
            .iter()
            .map(|(reason, count)| format!("{} x{count}", reason.label()))
            .collect();
        let _ = writeln!(
            out,
            "degraded queries: {} ({})",
            d.degraded_queries(),
            reasons.join(", ")
        );
    }
}

/// Fraction of the interner's id space in use (conds and dead sets
/// against `max_ids`); it nears 1.0 as a session nears arena-full
/// degradation.
fn occupancy(stats: &InternerStats) -> f64 {
    (stats.conds + stats.deads) as f64 / f64::from(stats.max_ids.max(1))
}

fn config_of(opts: &Opts) -> Config {
    let mut config = Config {
        andersen_threshold: opts.threshold.unwrap_or(60),
        path_sensitive: opts.path_sensitive,
        ..Config::default()
    };
    if let Some(budget) = opts.query_budget {
        config.query_step_budget = budget;
    }
    if !opts.no_cache {
        if let Some(dir) = &opts.cache_dir {
            config.store = Some(bootstrap_core::StoreConfig::new(dir));
        }
    }
    config
}

fn lookup_var(program: &Program, name: &str) -> Result<VarId, CliError> {
    program
        .var_named(name)
        .ok_or_else(|| CliError(format!("unknown variable `{name}`")))
}

fn query_loc(program: &Program, opts: &Opts) -> Result<Loc, CliError> {
    let fname = opts.at.as_deref().unwrap_or("main");
    let f = program
        .func_named(fname)
        .ok_or_else(|| CliError(format!("unknown function `{fname}`")))?;
    Ok(program.func(f).exit())
}

fn cmd_partitions(program: &Program) -> Result<String, CliError> {
    let st = steensgaard::analyze(program);
    let mut out = String::new();
    for (key, members) in st.alias_partitions(program) {
        let names: Vec<&str> = members.iter().map(|m| program.var(*m).name()).collect();
        let _ = writeln!(out, "partition {}: {{{}}}", key.index(), names.join(", "));
    }
    Ok(out)
}

fn cmd_clusters(program: &Program, opts: &Opts) -> Result<String, CliError> {
    let session = Session::new(program, config_of(opts));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} clusters (max size {}), threshold {}",
        session.cover().len(),
        session.cover().max_cluster_size(),
        config_of(opts).andersen_threshold
    );
    for c in session.cover().clusters() {
        let names: Vec<&str> = c.members.iter().map(|m| program.var(*m).name()).collect();
        let _ = writeln!(
            out,
            "cluster {} [{:?}]: {{{}}}",
            c.id,
            c.origin,
            names.join(", ")
        );
    }
    Ok(out)
}

fn cmd_relevant(program: &Program, opts: &Opts) -> Result<String, CliError> {
    if opts.vars.is_empty() {
        return err("relevant needs --vars a,b,..");
    }
    let members: Vec<VarId> = opts
        .vars
        .iter()
        .map(|n| lookup_var(program, n))
        .collect::<Result<_, _>>()?;
    let st = steensgaard::analyze(program);
    let rel = bootstrap_core::relevant_statements(program, &st, &members);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "V_P: {} variables, St_P: {} statements",
        rel.var_count(),
        rel.stmt_count()
    );
    let mut locs: Vec<Loc> = rel.stmts().collect();
    locs.sort();
    for loc in locs {
        let _ = writeln!(
            out,
            "  {}: {}",
            cite(program, &opts.file, loc),
            bootstrap_ir::display::stmt_to_string(program, program.stmt_at(loc))
        );
    }
    Ok(out)
}

fn cmd_sources(program: &Program, opts: &Opts) -> Result<String, CliError> {
    let [name] = opts.vars.as_slice() else {
        return err("sources needs --var p");
    };
    let v = lookup_var(program, name)?;
    let loc = query_loc(program, opts)?;
    let session = Session::new(program, config_of(opts));
    let az = session.analyzer();
    let mut budget = AnalysisBudget::steps(session.config().query_step_budget);
    match az.sources(v, loc, &mut budget) {
        Outcome::Done(srcs) => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "sources of {name} at exit of {}:",
                program.func(loc.func).name()
            );
            for (s, c) in srcs {
                // Heap values cite their allocation site as file:line.
                let site = match s {
                    bootstrap_core::Source::Addr(o) => match program.var(o).kind() {
                        VarKind::AllocSite(site) => {
                            format!(" (allocated at {})", cite(program, &opts.file, *site))
                        }
                        _ => String::new(),
                    },
                    _ => String::new(),
                };
                let _ = writeln!(out, "  {} under {}{site}", s.display(program), c);
            }
            Ok(out)
        }
        Outcome::Degraded(reason) => err(format!("query degraded: {}", reason.label())),
    }
}

fn cmd_alias(program: &Program, opts: &Opts, must: bool) -> Result<String, CliError> {
    let [a, b] = opts.vars.as_slice() else {
        return err("alias queries need --pair p,q");
    };
    let (va, vb) = (lookup_var(program, a)?, lookup_var(program, b)?);
    let loc = query_loc(program, opts)?;
    let session = Session::new(program, config_of(opts));
    let az = session.analyzer();
    let result = if must {
        az.must_alias(va, vb, loc)
    } else {
        az.may_alias(va, vb, loc)
    };
    match result {
        Outcome::Done(ans) => Ok(format!(
            "{}({a}, {b}) at exit of {} = {ans}\n",
            if must { "must_alias" } else { "may_alias" },
            program.func(loc.func).name()
        )),
        Outcome::Degraded(reason) => err(format!("query degraded: {}", reason.label())),
    }
}

fn cmd_dot(program: &Program, opts: &Opts) -> Result<String, CliError> {
    if let Some(fname) = &opts.cfg {
        let f = program
            .func_named(fname)
            .ok_or_else(|| CliError(format!("unknown function `{fname}`")))?;
        return Ok(bootstrap_ir::dot::cfg_dot(program, f));
    }
    if opts.callgraph {
        let cg = CallGraph::build(program);
        return Ok(bootstrap_ir::dot::callgraph_dot(program, &cg));
    }
    err("dot needs --cfg FUNC or --callgraph")
}

/// `file:line` when the statement has source-line metadata, `func@stmt`
/// otherwise (synthetic or generated programs).
fn cite(program: &Program, file: &str, loc: Loc) -> String {
    match program.line_of(loc) {
        Some(line) => format!("{file}:{line} ({})", program.func(loc.func).name()),
        None => format!("{}@{}", program.func(loc.func).name(), loc.stmt),
    }
}

fn cmd_stats(program: &Program, opts: &Opts, fp: FpResolution) -> Result<String, CliError> {
    let session = Session::new(program, config_of(opts));
    let steens_cover = session.steensgaard_cover();
    // Exercise the engine the way clients do (the checker site sweep) so
    // the shared FSCI dovetailing cache counters reflect real queries.
    let report = bootstrap_checks::run_checks(&session, &CheckerKind::ALL);
    let queries: usize = report.stats.iter().map(|s| s.queries).sum();
    match opts.format.as_deref() {
        Some("json") => {
            let cover = |count: usize, max_size: usize| {
                Json::obj([
                    ("count", Json::int(count)),
                    ("max_size", Json::int(max_size)),
                ])
            };
            let mut members = vec![
                ("functions", Json::int(program.func_count())),
                ("variables", Json::int(program.var_count())),
                ("pointers", Json::int(program.pointer_count())),
                ("statements", Json::int(program.stmt_count())),
                (
                    "steensgaard_clusters",
                    cover(steens_cover.len(), steens_cover.max_cluster_size()),
                ),
                (
                    "bootstrapped_cover",
                    cover(session.cover().len(), session.cover().max_cluster_size()),
                ),
                (
                    "timings",
                    Json::obj([
                        (
                            "steensgaard_secs",
                            Json::Num(session.timings().steensgaard.as_secs_f64()),
                        ),
                        (
                            "clustering_secs",
                            Json::Num(session.timings().clustering.as_secs_f64()),
                        ),
                    ]),
                ),
                (
                    "checker_queries",
                    Json::obj([
                        ("total", Json::int(queries)),
                        ("degraded", Json::int(report.degrade.degraded_queries())),
                    ]),
                ),
            ];
            members.extend(counter_members(&report, &fp));
            Ok(format!("{:#}\n", Json::obj(members)))
        }
        None | Some("text") => {
            let mut out = String::new();
            let _ = writeln!(out, "functions:            {}", program.func_count());
            let _ = writeln!(out, "variables:            {}", program.var_count());
            let _ = writeln!(out, "pointers:             {}", program.pointer_count());
            let _ = writeln!(out, "ir statements:        {}", program.stmt_count());
            let _ = writeln!(
                out,
                "steensgaard clusters: {} (max {})",
                steens_cover.len(),
                steens_cover.max_cluster_size()
            );
            let _ = writeln!(
                out,
                "bootstrapped cover:   {} (max {})",
                session.cover().len(),
                session.cover().max_cluster_size()
            );
            let _ = writeln!(
                out,
                "partitioning time:    {:?}",
                session.timings().steensgaard
            );
            let _ = writeln!(
                out,
                "clustering time:      {:?}",
                session.timings().clustering
            );
            let _ = writeln!(
                out,
                "checker queries:      {queries} ({} degraded)",
                report.degrade.degraded_queries()
            );
            counter_lines(&mut out, &report, &fp, session.config().store.is_some());
            Ok(out)
        }
        Some(other) => err(format!("unknown format `{other}` (text|json)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("bootstrap_cli_{name}_{}.c", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    const DEMO: &str = "
        int a; int b; int *p; int *q;
        void main() { p = &a; q = p; }
    ";

    fn run_args(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&owned)
    }

    fn parse_json(text: &str) -> Json {
        bootstrap_client::json::parse(text).unwrap_or_else(|e| panic!("{e} in: {text}"))
    }

    /// The member at a dotted `path`, failing the test when it is absent.
    fn at<'a>(json: &'a Json, path: &str) -> &'a Json {
        path.split('.').fold(json, |v, key| {
            v.get(key)
                .unwrap_or_else(|| panic!("no `{path}` in: {json:#}"))
        })
    }

    fn count_at(json: &Json, path: &str) -> u64 {
        at(json, path)
            .as_u64()
            .unwrap_or_else(|| panic!("`{path}` is not a count in: {json:#}"))
    }

    fn findings_at(json: &Json) -> &[Json] {
        at(json, "findings").as_arr().expect("findings is an array")
    }

    /// The `error[` / `warning[` lines of a text `check`.
    fn finding_lines(text: &str) -> Vec<&str> {
        text.lines()
            .filter(|l| l.starts_with("error[") || l.starts_with("warning["))
            .collect()
    }

    #[test]
    fn help_and_usage_errors() {
        assert!(run_args(&["--help"]).unwrap().contains("usage"));
        assert!(run_args(&["partitions"]).is_err());
        assert!(run_args(&["bogus", "/nonexistent.c"]).is_err());
    }

    #[test]
    fn lex_errors_carry_file_and_line_from_every_command() {
        // Unterminated comment, unterminated string, and a non-ASCII byte
        // must surface as `file: ... line:col ...` errors — never a panic —
        // regardless of the subcommand that parsed the file.
        let cases = [
            ("lex_comment", "int a;\n/* oops", "2:1"),
            ("lex_string", "int a;\nchar *s() { return \"oops; }", "2:20"),
            ("lex_nonascii", "int caf\u{e9};", "1:8"),
        ];
        for (name, src, pos) in cases {
            let f = write_temp(name, src);
            for cmd in ["partitions", "clusters", "check", "stats"] {
                let e = run_args(&[cmd, &f]).unwrap_err().to_string();
                assert!(e.starts_with(&f), "{cmd}: {e}");
                assert!(e.contains(pos), "{cmd}: expected {pos} in: {e}");
            }
        }
    }

    #[test]
    fn partitions_lists_groups() {
        let f = write_temp("partitions", DEMO);
        let out = run_args(&["partitions", &f]).unwrap();
        assert!(out.contains("partition"));
        assert!(out.contains('p') && out.contains('q'));
    }

    #[test]
    fn may_alias_pair() {
        let f = write_temp("may", DEMO);
        let out = run_args(&["may-alias", &f, "--pair", "p,q"]).unwrap();
        assert!(out.contains("= true"), "{out}");
        let out = run_args(&["must-alias", &f, "--pair", "p,q"]).unwrap();
        assert!(out.contains("= true"), "{out}");
    }

    #[test]
    fn sources_prints_origins() {
        let f = write_temp("sources", DEMO);
        let out = run_args(&["sources", &f, "--var", "q"]).unwrap();
        assert!(out.contains("&a"), "{out}");
    }

    #[test]
    fn relevant_prints_slice() {
        let f = write_temp("relevant", DEMO);
        let out = run_args(&["relevant", &f, "--vars", "p"]).unwrap();
        assert!(out.contains("St_P"));
        assert!(out.contains("p = &a"));
    }

    #[test]
    fn clusters_respects_threshold() {
        let f = write_temp("clusters", DEMO);
        let out = run_args(&["clusters", &f, "--threshold", "0"]).unwrap();
        assert!(out.contains("clusters"), "{out}");
        assert!(out.contains("threshold 0"));
    }

    #[test]
    fn dot_outputs() {
        let f = write_temp("dot", DEMO);
        let out = run_args(&["dot", &f, "--cfg", "main"]).unwrap();
        assert!(out.starts_with("digraph"));
        let out = run_args(&["dot", &f, "--callgraph"]).unwrap();
        assert!(out.contains("callgraph"));
        assert!(run_args(&["dot", &f]).is_err());
    }

    #[test]
    fn stats_summarizes() {
        let f = write_temp("stats", DEMO);
        let out = run_args(&["stats", &f]).unwrap();
        assert!(out.contains("pointers:"));
        assert!(out.contains("bootstrapped cover:"));
        assert!(out.contains("fsci cache:"), "{out}");
        assert!(out.contains("checker queries:"), "{out}");
        assert!(out.contains("degraded)"), "{out}");
        assert!(out.contains("query tiers:"), "{out}");
        assert!(out.contains("interner:"), "{out}");
        assert!(out.contains("solver pops:"), "{out}");
        assert!(out.contains("solver cycles:"), "{out}");
        for phase in ["steensgaard", "andersen", "relevant", "fscs"] {
            assert!(out.contains(&format!("phase {phase}:")), "{out}");
        }
    }

    #[test]
    fn stats_json_format() {
        let f = write_temp("stats_json", DEMO);
        let json = parse_json(&run_args(&["stats", &f, "--format", "json"]).unwrap());
        for path in [
            "functions",
            "pointers",
            "bootstrapped_cover.count",
            "checker_queries.total",
            "fsci_cache.hits",
            "interner.max_ids",
            "store.hits",
            "solver.stale_pops",
            "solver.wave_rounds",
            "degradation.queries.fscs",
        ] {
            count_at(&json, path);
        }
        assert!(matches!(at(&json, "interner.occupancy"), Json::Num(_)));
        assert!(!at(&json, "phases").as_arr().unwrap().is_empty());
        let e = run_args(&["stats", &f, "--format", "yaml"]).unwrap_err();
        assert!(e.to_string().contains("unknown format"));
    }

    const BUGGY: &str = "
        int *p; int x;
        void main() { p = NULL; x = *p; }
    ";

    fn run_args_full(args: &[&str]) -> Result<CliOutput, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run_full(&owned)
    }

    #[test]
    fn check_reports_defects_and_exits_nonzero() {
        let f = write_temp("check_buggy", BUGGY);
        let out = run_args_full(&["check", &f]).unwrap();
        assert_eq!(out.exit_code, 1);
        assert!(out.text.contains("error[null-deref]"), "{}", out.text);
        assert!(out.text.contains("fsci cache:"), "{}", out.text);
        assert!(out.text.contains("interner:"), "{}", out.text);
        assert!(out.text.contains("solver pops:"), "{}", out.text);
        assert!(out.text.contains("phase fscs:"), "{}", out.text);
    }

    #[test]
    fn check_clean_file_exits_zero() {
        let f = write_temp("check_clean", DEMO);
        let out = run_args_full(&["check", &f]).unwrap();
        assert_eq!(out.exit_code, 0);
        assert!(out.text.contains("no defects found"), "{}", out.text);
    }

    #[test]
    fn check_only_filters_checkers() {
        let f = write_temp("check_only", BUGGY);
        let out = run_args_full(&["check", &f, "--only", "uaf,double-free"]).unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.text);
        assert!(!out.text.contains("null-deref]"), "{}", out.text);
        let e = run_args_full(&["check", &f, "--only", "bogus"]).unwrap_err();
        assert!(e.to_string().contains("unknown checker"));
    }

    #[test]
    fn check_only_race_reports_data_races() {
        let f = write_temp(
            "check_race",
            "int counter; int *p;
             void worker() { int t; t = *p; *p = t; }
             void main() { int s; p = &counter; spawn worker(); s = *p; *p = s; }",
        );
        let out = run_args_full(&["check", &f, "--only", "race"]).unwrap();
        assert_eq!(out.exit_code, 1, "{}", out.text);
        assert!(out.text.contains("error[race]"), "{}", out.text);
        assert!(out.text.contains("races with"), "{}", out.text);
        assert!(out.text.contains("locks held:"), "{}", out.text);
    }

    #[test]
    fn check_only_race_is_quiet_on_locked_programs() {
        let f = write_temp(
            "check_race_clean",
            "int counter; int m; int *p;
             void worker() { int t; lock(&m); t = *p; *p = t; unlock(&m); }
             void main() {
               int s;
               p = &counter; spawn worker();
               lock(&m); s = *p; *p = s; unlock(&m);
             }",
        );
        let out = run_args_full(&["check", &f, "--only", "race"]).unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.text);
        assert!(out.text.contains("no defects found"), "{}", out.text);
    }

    #[test]
    fn check_json_format() {
        let f = write_temp("check_json", BUGGY);
        let out = run_args_full(&["check", &f, "--format", "json"]).unwrap();
        assert_eq!(out.exit_code, 1);
        let json = parse_json(&out.text);
        let [finding] = findings_at(&json) else {
            panic!("expected one finding in: {json:#}");
        };
        for (path, want) in [
            ("checker", "null-deref"),
            ("severity", "error"),
            ("file", f.as_str()),
            ("function", "main"),
            ("var", "p"),
            ("precision", "fscs"),
        ] {
            assert_eq!(at(finding, path).as_str(), Some(want), "{path}");
        }
        for path in [
            "fsci_cache.hits",
            "interner.conds",
            "solver.sccs_online",
            "degradation.degraded_queries",
        ] {
            count_at(&json, path);
        }
        let phases = at(&json, "phases").as_arr().unwrap();
        assert_eq!(at(&phases[0], "phase").as_str(), Some("steensgaard"));
        let e = run_args_full(&["check", &f, "--format", "yaml"]).unwrap_err();
        assert!(e.to_string().contains("unknown format"));
    }

    #[test]
    fn fail_on_degraded_distinguishes_clean_from_unverified() {
        // One free site, no defects: under a starvation budget every query
        // degrades, and --fail-on-degraded turns "clean as far as we could
        // see" into exit 3 (a defect would still win with exit 1).
        let f = write_temp(
            "degraded",
            "int *h; int *q;
             void main() { h = malloc(); q = h; free(q); }",
        );
        let clean = run_args_full(&["check", &f, "--fail-on-degraded"]).unwrap();
        assert_eq!(clean.exit_code, 0, "{}", clean.text);
        let starved =
            run_args_full(&["check", &f, "--fail-on-degraded", "--query-budget", "1"]).unwrap();
        assert_eq!(starved.exit_code, 3, "{}", starved.text);
        assert!(
            starved.text.contains("degraded queries:"),
            "{}",
            starved.text
        );
        let no_flag = run_args_full(&["check", &f, "--query-budget", "1"]).unwrap();
        assert_eq!(no_flag.exit_code, 0, "{}", no_flag.text);
    }

    #[test]
    fn degraded_findings_keep_exit_one_and_confidence_tag() {
        let f = write_temp(
            "degraded_uaf",
            "int *h; int *q; int x;
             void main() { h = malloc(); q = h; free(h); x = *q; }",
        );
        let out =
            run_args_full(&["check", &f, "--fail-on-degraded", "--query-budget", "1"]).unwrap();
        assert_eq!(out.exit_code, 1, "{}", out.text);
        assert!(out.text.contains("[confidence:"), "{}", out.text);
    }

    #[test]
    fn check_cites_source_lines() {
        let path =
            std::env::temp_dir().join(format!("bootstrap_cli_lines_{}.c", std::process::id()));
        std::fs::write(
            &path,
            "int *p;\nint x;\nvoid main() {\n  p = NULL;\n  x = *p;\n}\n",
        )
        .unwrap();
        let f = path.to_string_lossy().into_owned();
        let out = run_args_full(&["check", &f]).unwrap();
        assert!(out.text.contains(":5 (main):"), "{}", out.text);
    }

    #[test]
    fn unknown_names_are_reported() {
        let f = write_temp("unknown", DEMO);
        let e = run_args(&["sources", &f, "--var", "nope"]).unwrap_err();
        assert!(e.to_string().contains("unknown variable"));
        let e = run_args(&["may-alias", &f, "--pair", "p,q", "--at", "nofunc"]).unwrap_err();
        assert!(e.to_string().contains("unknown function"));
    }

    #[test]
    fn path_sensitive_flag_changes_verdict() {
        let f = write_temp(
            "ps",
            "int c; int a; int b; int *x; int *y;
             void main() {
                 if (c) { x = &a; } else { x = &b; }
                 if (c) { y = &b; } else { y = &a; }
             }",
        );
        let insensitive = run_args(&["may-alias", &f, "--pair", "x,y"]).unwrap();
        assert!(insensitive.contains("= true"));
        let sensitive = run_args(&["may-alias", &f, "--pair", "x,y", "--path-sensitive"]).unwrap();
        assert!(sensitive.contains("= false"), "{sensitive}");
    }

    fn temp_cache_dir(name: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("bootstrap_cli_cache_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn check_warm_starts_from_cache_dir() {
        let f = write_temp("check_cache", BUGGY);
        let dir = temp_cache_dir("check");
        let cold = run_args_full(&["check", &f, "--cache-dir", &dir]).unwrap();
        assert_eq!(cold.exit_code, 1);
        assert!(cold.text.contains("store: 0 hits"), "{}", cold.text);
        let warm = run_args_full(&["check", &f, "--cache-dir", &dir]).unwrap();
        assert_eq!(warm.exit_code, 1);
        assert!(!warm.text.contains("store: 0 hits"), "{}", warm.text);
        assert!(warm.text.contains("store: "), "{}", warm.text);
        // The findings themselves are identical, cold or warm.
        assert_eq!(finding_lines(&cold.text), finding_lines(&warm.text));
        // JSON output carries the counters too.
        let json = run_args_full(&["check", &f, "--cache-dir", &dir, "--format", "json"]).unwrap();
        assert!(count_at(&parse_json(&json.text), "store.hits") > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_cache_wins_over_cache_dir() {
        let f = write_temp("check_nocache", DEMO);
        let dir = temp_cache_dir("nocache");
        let out = run_args_full(&["check", &f, "--cache-dir", &dir, "--no-cache"]).unwrap();
        assert!(!out.text.contains("store: "), "{}", out.text);
        assert!(!std::path::Path::new(&dir).exists());
    }

    #[test]
    fn cache_subcommand_inspects_and_clears() {
        let f = write_temp("cache_cmd", DEMO);
        let dir = temp_cache_dir("subcmd");
        run_args_full(&["check", &f, "--cache-dir", &dir]).unwrap();
        let out = run_args(&["cache", "--cache-dir", &dir]).unwrap();
        assert!(out.contains("entries"), "{out}");
        assert!(!out.contains("cache {dir}: 0 entries"), "{out}");
        assert!(out.contains("lifetime counters:"), "{out}");
        let out = run_args(&["cache", "--cache-dir", &dir, "clear"]).unwrap();
        assert!(out.contains("cleared"), "{out}");
        let out = run_args(&["cache", "--cache-dir", &dir]).unwrap();
        assert!(out.contains("0 entries"), "{out}");
        let e = run_args(&["cache"]).unwrap_err();
        assert!(e.to_string().contains("--cache-dir"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_reports_store_when_cached() {
        // BUGGY has a dereference site, so the checker sweep behind
        // `stats` actually builds cluster engines and touches the store
        // (a site-free program never consults it).
        let f = write_temp("stats_cache", BUGGY);
        let dir = temp_cache_dir("stats");
        let cold = run_args(&["stats", &f, "--cache-dir", &dir]).unwrap();
        assert!(cold.contains("store: "), "{cold}");
        let warm = run_args(&["stats", &f, "--cache-dir", &dir, "--format", "json"]).unwrap();
        let warm = parse_json(&warm);
        assert!(
            count_at(&warm, "store.loads") > 0,
            "warm stats run should touch the store: {warm:#}"
        );
        assert!(count_at(&warm, "store.hits") > 0, "{warm:#}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    const DISPATCH: &str = "
        struct ops { void (*go)(int *a); };
        void f(int *a) { *a = 1; }
        void g(int *a) { }
        int x;
        void main() { struct ops s; s.go = &f; s.go(&x); g(&x); }
    ";

    #[test]
    fn fp_resolver_sweep_reports_ladder() {
        let f = write_temp("fp_sweep", DISPATCH);
        let mut installed = Vec::new();
        for stage in ["flta", "mlta", "pts"] {
            let out = run_args(&["stats", &f, "--fp-resolver", stage]).unwrap();
            assert!(out.contains(&format!("fp resolver [{stage}]")), "{out}");
            installed.push(installed_edges(&out));
        }
        // Precision ladder: installed edges never increase down the ladder.
        assert!(installed[0] >= installed[1] && installed[1] >= installed[2]);
        let e = run_args(&["stats", &f, "--fp-resolver", "bogus"]).unwrap_err();
        assert!(e.to_string().contains("unknown fp resolver"));
    }

    /// The edge count of a text report's `fp resolver` line.
    fn installed_edges(text: &str) -> u64 {
        let line = text
            .lines()
            .find(|l| l.starts_with("fp resolver"))
            .unwrap_or_else(|| panic!("no fp resolver line in: {text}"));
        line.split("edges installed")
            .next()
            .and_then(|head| head.split_whitespace().next_back())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no edge count in: {line}"))
    }

    #[test]
    fn check_and_stats_json_carry_the_text_counters() {
        let f = write_temp("fp_json", DISPATCH);
        let text = run_args(&["check", &f]).unwrap();
        let check = parse_json(&run_args(&["check", &f, "--format", "json"]).unwrap());
        assert_eq!(count_at(&check, "fp_resolver.sites"), 1);
        assert_eq!(
            count_at(&check, "fp_resolver.edges"),
            installed_edges(&text)
        );
        count_at(&check, "solver.dup_constraints");
        let stats = parse_json(&run_args(&["stats", &f, "--format", "json"]).unwrap());
        for path in [
            "degradation.queries.fscs",
            "fp_resolver.edges_flta",
            "fp_resolver.edges_mlta",
            "fp_resolver.edges_pts",
        ] {
            count_at(&stats, path);
        }
        assert_eq!(at(&stats, "fp_resolver.stage").as_str(), Some("pts"));
    }

    #[test]
    fn check_json_lists_the_text_findings_on_every_example() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files: Vec<_> = ["examples/c", "tests/fixtures"]
            .iter()
            .flat_map(|dir| std::fs::read_dir(root.join(dir)).expect("example directory"))
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "c"))
            .collect();
        files.sort();
        assert!(files.len() >= 8, "{files:?}");
        for path in files {
            let f = path.to_string_lossy();
            let text = run_args(&["check", &f]).unwrap();
            let json = parse_json(&run_args(&["check", &f, "--format", "json"]).unwrap());
            assert_eq!(
                findings_at(&json).len(),
                finding_lines(&text).len(),
                "{f}: {text}"
            );
        }
    }

    #[test]
    fn race_findings_render_in_json() {
        let f = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/racy.c");
        let out = run_args_full(&["check", f, "--only", "race", "--format", "json"]).unwrap();
        assert_eq!(out.exit_code, 1, "{}", out.text);
        let json = parse_json(&out.text);
        assert!(
            findings_at(&json).iter().any(|f| {
                at(f, "checker").as_str() == Some("race")
                    && at(f, "object").as_str() == Some("counter")
            }),
            "{json:#}"
        );
    }

    #[test]
    fn fuzz_smoke_run_is_clean() {
        let out = run_args_full(&["fuzz", "--seed", "3", "--iters", "5"]).unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.text);
        assert!(out.text.contains("5 iterations, seed 3"), "{}", out.text);
        assert!(out.text.contains("0 violation(s)"), "{}", out.text);
    }

    #[test]
    fn fuzz_faulted_smoke_run_is_clean() {
        let out = run_args_full(&["fuzz", "--seed", "3", "--iters", "3", "--faults"]).unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.text);
        assert!(out.text.contains("0 violation(s)"), "{}", out.text);
    }

    #[test]
    fn fuzz_rejects_bad_flags() {
        let e = run_args(&["fuzz", "--seed", "banana"]).unwrap_err();
        assert!(e.to_string().contains("invalid seed"));
        let e = run_args(&["fuzz", "--bogus"]).unwrap_err();
        assert!(e.to_string().contains("unknown option"));
    }

    #[test]
    fn every_command_survives_the_fuzz_corpus() {
        // Replaying the committed reproducers through the user-facing
        // commands must never panic: a CliError (diagnostic + exit 2) is
        // the only acceptable failure mode for malformed entries.
        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../fuzz/corpus");
        let mut entries: Vec<_> = std::fs::read_dir(&corpus)
            .expect("fuzz corpus exists")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "c"))
            .collect();
        entries.sort();
        assert!(!entries.is_empty());
        for path in entries {
            let f = path.to_string_lossy().into_owned();
            for cmd in ["partitions", "clusters", "check", "stats"] {
                let _ = run_args_full(&[cmd, &f]);
            }
        }
    }
}
