//! Diagnostic rendering as stable plain text.

use bootstrap_core::Precision;

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
