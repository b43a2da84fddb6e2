//! Diagnostic rendering: stable plain text and hand-rolled JSON.

use bootstrap_core::{
    FsciCacheStats, InternerStats, PhaseSnapshot, Precision, SolverStats, StoreCounters,
};

use crate::{CheckReport, Finding};

/// Renders findings as one diagnostic per line:
///
/// ```text
/// error[null-deref] main:5: dereference of `p` which is NULL
/// ```
///
/// The location is `func:line` when source lines are available and
/// `func@stmt` otherwise. Only findings are rendered (the output is
/// golden-file stable); callers append statistics separately.
pub fn render_text(report: &CheckReport, file: Option<&str>) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&render_finding(f, file));
        out.push('\n');
    }
    out
}

fn render_finding(f: &Finding, file: Option<&str>) -> String {
    let pos = match f.line {
        Some(line) => match file {
            Some(file) => format!("{file}:{line} ({})", f.func),
            None => format!("{}:{line}", f.func),
        },
        None => format!("{}@{}", f.func, f.loc.stmt),
    };
    let mut line = format!(
        "{}[{}] {}: {}",
        f.severity.label(),
        f.checker.name(),
        pos,
        f.message
    );
    // Full-precision findings render exactly as before (golden-file
    // stability); only degraded-confidence findings carry the tier tag.
    if f.precision != Precision::Fscs {
        line.push_str(&format!(" [confidence: {}]", f.precision.label()));
    }
    line
}

/// Renders the full report (findings, per-checker stats, cache counters)
/// as a JSON object. The encoder is hand-rolled because the workspace is
/// dependency-free; all strings pass through [`escape`].
pub fn render_json(report: &CheckReport, file: Option<&str>) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"checker\": \"{}\", ", f.checker.name()));
        out.push_str(&format!("\"severity\": \"{}\", ", f.severity.label()));
        if let Some(file) = file {
            out.push_str(&format!("\"file\": \"{}\", ", escape(file)));
        }
        out.push_str(&format!("\"function\": \"{}\", ", escape(&f.func)));
        match f.line {
            Some(line) => out.push_str(&format!("\"line\": {line}, ")),
            None => out.push_str("\"line\": null, "),
        }
        out.push_str(&format!("\"stmt\": {}, ", f.loc.stmt));
        out.push_str(&format!("\"var\": \"{}\", ", escape(&f.var)));
        match &f.object {
            Some(o) => out.push_str(&format!("\"object\": \"{}\", ", escape(o))),
            None => out.push_str("\"object\": null, "),
        }
        out.push_str(&format!("\"message\": \"{}\", ", escape(&f.message)));
        out.push_str(&format!("\"precision\": \"{}\"", f.precision.label()));
        out.push('}');
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"stats\": [");
    for (i, s) in report.stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"checker\": \"{}\", \"sites\": {}, \"queries\": {}, \"findings\": {}}}",
            s.kind.name(),
            s.sites,
            s.queries,
            s.findings
        ));
    }
    if !report.stats.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&render_json_counters(
        &report.cache,
        &report.interner,
        &report.store,
        &report.solver,
    ));
    out.push_str(&render_json_phases(&report.phases));
    out.push_str(",\n");
    let d = &report.degrade;
    out.push_str(&format!(
        concat!(
            "  \"degradation\": {{\"queries\": {{\"fscs\": {}, \"andersen\": {}, ",
            "\"steensgaard\": {}}}, \"degraded_queries\": {}, \"reasons\": ["
        ),
        d.fscs_queries,
        d.andersen_queries,
        d.steensgaard_queries,
        d.degraded_queries()
    ));
    for (i, (reason, count)) in d.reasons.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"reason\": \"{}\", \"count\": {count}}}",
            reason.label()
        ));
    }
    out.push_str("]}\n}\n");
    out
}

/// The counter members `check` and `stats` share in their JSON output:
/// `fsci_cache`, `interner`, `store` and `solver`, one line each, each
/// ending in a comma.
pub fn render_json_counters(
    cache: &FsciCacheStats,
    interner: &InternerStats,
    store: &StoreCounters,
    solver: &SolverStats,
) -> String {
    let mut out = format!(
        "  \"fsci_cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}}},\n",
        cache.hits, cache.misses, cache.entries
    );
    out.push_str(&format!(
        concat!(
            "  \"interner\": {{\"conds\": {}, \"deads\": {}, \"memo_entries\": {}, ",
            "\"hits\": {}, \"misses\": {}, \"max_ids\": {}, \"occupancy\": {:.6}}},\n"
        ),
        interner.conds,
        interner.deads,
        interner.memo_entries,
        interner.hits,
        interner.misses,
        interner.max_ids,
        interner_occupancy(interner),
    ));
    out.push_str(&format!(
        "  \"store\": {{\"hits\": {}, \"misses\": {}, \"invalidated\": {}, \"loads\": {}}},\n",
        store.hits,
        store.misses,
        store.invalidated,
        store.loads()
    ));
    out.push_str(&format!(
        concat!(
            "  \"solver\": {{\"pops\": {}, \"stale_pops\": {}, \"edges\": {}, ",
            "\"sccs_online\": {}, \"sccs_offline\": {}, \"wave_rounds\": {}, ",
            "\"edges_pruned\": {}}},\n"
        ),
        solver.pops,
        solver.stale_pops,
        solver.edges,
        solver.sccs_online,
        solver.sccs_offline,
        solver.wave_rounds,
        solver.edges_pruned
    ));
    out
}

/// The `phases` member `check` and `stats` share in their JSON output,
/// up to its closing `]`; the caller writes what follows it.
pub fn render_json_phases(phases: &PhaseSnapshot) -> String {
    let mut out = String::from("  \"phases\": [");
    for (i, (phase, stats)) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"phase\": \"{}\", \"wall_secs\": {:.6}, \"steps\": {}, \"invocations\": {}}}",
            phase.name(),
            stats.wall.as_secs_f64(),
            stats.steps,
            stats.invocations
        ));
    }
    out.push_str("\n  ]");
    out
}

/// Fraction of the arena's id space in use (conds + dead sets against
/// `max_ids`); approaches 1.0 as the session nears [`ArenaFull`]
/// degradation.
///
/// [`ArenaFull`]: bootstrap_core::ArenaFull
pub fn interner_occupancy(stats: &bootstrap_core::InternerStats) -> f64 {
    let used = (stats.conds + stats.deads) as f64;
    used / f64::from(stats.max_ids.max(1))
}

/// Escapes a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
