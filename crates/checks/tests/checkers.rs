//! Behavioral tests for the client checkers.

use bootstrap_checks::{run_checks, CheckReport, CheckerKind, Severity};
use bootstrap_core::{Config, DegradeReason, Precision, Session};

fn check(src: &str) -> CheckReport {
    let program = bootstrap_ir::parse_program(src).unwrap();
    let session = Session::new(&program, Config::default());
    run_checks(&session, &CheckerKind::ALL)
}

fn kinds(report: &CheckReport) -> Vec<CheckerKind> {
    report.findings.iter().map(|f| f.checker).collect()
}

#[test]
fn flags_definite_null_deref() {
    let r = check(
        "int *p; int x;
         void main() { p = NULL; x = *p; }",
    );
    assert_eq!(kinds(&r), vec![CheckerKind::NullDeref]);
    assert_eq!(r.findings[0].severity, Severity::Error);
    assert_eq!(r.findings[0].var, "p");
}

#[test]
fn branch_dependent_null_is_a_warning() {
    let r = check(
        "int *p; int a; int c; int x;
         void main() { if (c) { p = &a; } else { p = NULL; } x = *p; }",
    );
    assert_eq!(kinds(&r), vec![CheckerKind::NullDeref]);
    assert_eq!(r.findings[0].severity, Severity::Warning);
}

#[test]
fn strong_update_suppresses_null_deref() {
    // Flow-insensitively p may be NULL, but the reassignment kills it.
    let r = check(
        "int *p; int a; int x;
         void main() { p = NULL; p = &a; x = *p; }",
    );
    assert!(r.findings.is_empty(), "unexpected: {:?}", r.findings);
}

#[test]
fn store_through_null_is_flagged() {
    let r = check(
        "int *p; int a;
         void main() { p = NULL; *p = a; }",
    );
    assert_eq!(kinds(&r), vec![CheckerKind::NullDeref]);
}

#[test]
fn flags_use_after_free_through_alias() {
    let r = check(
        "int *h; int *q; int x;
         void main() { h = malloc(); q = h; free(h); x = *q; }",
    );
    let uaf: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.checker == CheckerKind::UseAfterFree)
        .collect();
    assert_eq!(uaf.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(uaf[0].var, "q");
    assert!(uaf[0].object.is_some());
}

#[test]
fn realloc_after_free_is_clean() {
    // h is reassigned before the dereference: no use-after-free.
    let r = check(
        "int *h; int a; int x;
         void main() { h = malloc(); free(h); h = &a; x = *h; }",
    );
    assert!(r.findings.is_empty(), "unexpected: {:?}", r.findings);
}

#[test]
fn reassignment_after_free_is_clean() {
    // `free(p); p = q; *p`: the dereference sees q's (live) object, not
    // the freed one — no use-after-free once p is reassigned.
    let r = check(
        "int *p; int *q; int x;
         void main() { p = malloc(); q = malloc(); free(p); p = q; x = *p; }",
    );
    assert!(r.findings.is_empty(), "unexpected: {:?}", r.findings);
}

#[test]
fn reassignment_after_free_on_both_branches_is_clean() {
    // Both arms free p and then reassign it before the join: the deref
    // below the conditional can only see the live replacement targets.
    let r = check(
        "int *p; int *q; int *r; int c; int x;
         void main() {
           p = malloc(); q = malloc(); r = malloc();
           if (c) { free(p); p = q; } else { free(p); p = r; }
           x = *p;
         }",
    );
    assert!(r.findings.is_empty(), "unexpected: {:?}", r.findings);
}

#[test]
fn branch_without_reassignment_still_flags_alias_uaf() {
    // Positive control for the two tests above: q keeps aliasing the
    // object the true arm frees, so dereferencing q after the join is a
    // (branch-dependent) use-after-free — the reassignment of p must not
    // mask it.
    let r = check(
        "int *p; int *q; int c; int x;
         void main() {
           p = malloc(); q = p;
           if (c) { free(p); p = malloc(); }
           x = *q;
         }",
    );
    let uaf: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.checker == CheckerKind::UseAfterFree)
        .collect();
    assert_eq!(uaf.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(uaf[0].var, "q");
}

#[test]
fn flags_double_free_through_alias() {
    let r = check(
        "int *h; int *q;
         void main() { h = malloc(); q = h; free(h); free(q); }",
    );
    assert_eq!(kinds(&r), vec![CheckerKind::DoubleFree]);
    assert_eq!(r.findings[0].var, "q");
}

#[test]
fn single_free_is_clean() {
    let r = check(
        "int *h;
         void main() { h = malloc(); free(h); }",
    );
    assert!(r.findings.is_empty(), "unexpected: {:?}", r.findings);
}

#[test]
fn interprocedural_use_after_free() {
    // The callee frees the global's target (nulling `g` but not its alias
    // `q`); the caller dereferences `q` after the call returns.
    let r = check(
        "int *g; int *q; int x;
         void release() { free(g); }
         void main() { g = malloc(); q = g; release(); x = *q; }",
    );
    let has_uaf = r
        .findings
        .iter()
        .any(|f| f.checker == CheckerKind::UseAfterFree && f.var == "q");
    assert!(has_uaf, "findings: {:?}", r.findings);
}

#[test]
fn interprocedural_double_free() {
    // The callee frees the heap object through `g`; the caller then frees
    // the same object again through the surviving alias `q`.
    let r = check(
        "int *g; int *q;
         void release() { free(g); }
         void main() { g = malloc(); q = g; release(); free(q); }",
    );
    let has_df = r
        .findings
        .iter()
        .any(|f| f.checker == CheckerKind::DoubleFree && f.var == "q");
    assert!(has_df, "findings: {:?}", r.findings);
}

#[test]
fn checker_selection_is_respected() {
    let src = "int *p; int *h; int *q; int x; int y;
         void main() { p = NULL; x = *p; h = malloc(); q = h; free(h); y = *q; free(q); }";
    let program = bootstrap_ir::parse_program(src).unwrap();
    let session = Session::new(&program, Config::default());
    let only_null = run_checks(&session, &[CheckerKind::NullDeref]);
    assert!(only_null
        .findings
        .iter()
        .all(|f| f.checker == CheckerKind::NullDeref));
    assert_eq!(only_null.stats.len(), 1);
    assert_eq!(only_null.stats[0].kind, CheckerKind::NullDeref);
    assert!(only_null.stats[0].queries > 0);
}

#[test]
fn report_carries_stats_and_cache_counters() {
    let r = check(
        "int *p; int x;
         void main() { p = NULL; x = *p; }",
    );
    assert_eq!(r.stats.len(), 4);
    let nd = r
        .stats
        .iter()
        .find(|s| s.kind == CheckerKind::NullDeref)
        .unwrap();
    assert_eq!(nd.findings, 1);
    assert!(nd.sites >= 1);
    assert_eq!(r.degrade.degraded_queries(), 0);
    assert!(r.degrade.fscs_queries > 0);
    assert!(r.degrade.reasons.is_empty());
    // The batch records its own work once, beside the FSCS resolutions.
    assert_eq!(r.phases.checkers.invocations, 1);
    assert!(r.phases.fscs.invocations > 0);
}

#[test]
fn degraded_budget_still_reports_seeded_uaf() {
    // A step budget too small for any FSCS walk: every site resolution
    // falls down the ladder, and the seeded use-after-free must still be
    // reported — at degraded confidence, not dropped.
    let src = "int *h; int *q; int x;
         void main() { h = malloc(); q = h; free(h); x = *q; }";
    let program = bootstrap_ir::parse_program(src).unwrap();
    let session = Session::new(
        &program,
        Config {
            query_step_budget: 1,
            ..Config::default()
        },
    );
    let r = run_checks(&session, &CheckerKind::ALL);
    let uaf: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.checker == CheckerKind::UseAfterFree)
        .collect();
    assert_eq!(uaf.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(uaf[0].var, "q");
    assert!(
        uaf[0].precision > Precision::Fscs,
        "expected a degraded-confidence finding, got {:?}",
        uaf[0].precision
    );
    assert!(r.degrade.degraded_queries() > 0);
    assert!(r
        .degrade
        .reasons
        .iter()
        .any(|(reason, _)| *reason == DegradeReason::BudgetSteps));
    // The degraded tier tag reaches the text rendering.
    let text = bootstrap_checks::render_text(&r, None);
    assert!(text.contains("[confidence:"), "text: {text}");
}

#[test]
fn findings_carry_source_lines() {
    let src = "int *p;\nint x;\nvoid main() {\n  p = NULL;\n  x = *p;\n}\n";
    let r = check(src);
    assert_eq!(kinds(&r), vec![CheckerKind::NullDeref]);
    assert_eq!(r.findings[0].line, Some(5));
    let text = bootstrap_checks::render_text(&r, Some("bug.c"));
    assert!(
        text.contains("error[null-deref] bug.c:5 (main):"),
        "text: {text}"
    );
}

#[test]
fn checker_kind_parsing() {
    assert_eq!(CheckerKind::parse("uaf"), Some(CheckerKind::UseAfterFree));
    assert_eq!(
        CheckerKind::parse("null-deref"),
        Some(CheckerKind::NullDeref)
    );
    assert_eq!(
        CheckerKind::parse("double-free"),
        Some(CheckerKind::DoubleFree)
    );
    assert_eq!(CheckerKind::parse("race"), Some(CheckerKind::Race));
    assert_eq!(CheckerKind::parse("data-race"), Some(CheckerKind::Race));
    assert_eq!(CheckerKind::parse("bogus"), None);
}
