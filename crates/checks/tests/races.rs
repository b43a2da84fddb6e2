//! Behavioral tests for the data-race checker: labeled racy and clean
//! programs, lockset suppression through aliases, and degradation
//! (budget / arena / panic faults) staying conservative.

use bootstrap_checks::{run_checks, CheckReport, CheckerKind, Severity};
use bootstrap_core::{Config, DegradeReason, FaultKind, FaultPhase, FaultPlan, Precision, Session};

fn check(src: &str) -> CheckReport {
    check_with(src, Config::default())
}

fn check_with(src: &str, config: Config) -> CheckReport {
    let program = bootstrap_ir::parse_program(src).unwrap();
    let session = Session::new(&program, config);
    run_checks(&session, &[CheckerKind::Race])
}

fn races(report: &CheckReport) -> Vec<&bootstrap_checks::Finding> {
    report
        .findings
        .iter()
        .filter(|f| f.checker == CheckerKind::Race)
        .collect()
}

/// Labeled racy preset: both threads update the shared counter through
/// aliasing pointers with no lock anywhere.
const RACY_COUNTER: &str = "int counter; int *p;
    void worker() { int t; t = *p; *p = t; }
    void main() { int s; p = &counter; spawn worker(); s = *p; *p = s; }";

/// Labeled clean preset: the same sharing, but every access is inside a
/// critical section on the same mutex.
const LOCKED_COUNTER: &str = "int counter; int m; int *p;
    void worker() { int t; lock(&m); t = *p; *p = t; unlock(&m); }
    void main() {
      int s;
      p = &counter; spawn worker();
      lock(&m); s = *p; *p = s; unlock(&m);
    }";

/// Labeled clean preset: the two threads name the mutex through different
/// pointers that must-alias the same lock object.
const ALIASED_LOCKS: &str = "int counter; int m; int *p; int *lk1; int *lk2;
    void worker() { int t; lock(lk1); t = *p; *p = t; unlock(lk1); }
    void main() {
      int s;
      p = &counter; lk1 = &m; lk2 = lk1;
      spawn worker();
      lock(lk2); s = *p; *p = s; unlock(lk2);
    }";

#[test]
fn unprotected_shared_counter_races() {
    let r = check(RACY_COUNTER);
    let races = races(&r);
    assert!(!races.is_empty(), "expected races, got {:?}", r.findings);
    for f in &races {
        assert_eq!(f.object.as_deref(), Some("counter"), "finding: {f:?}");
        assert_eq!(f.severity, Severity::Error, "finding: {f:?}");
        assert_eq!(f.precision, Precision::Fscs, "finding: {f:?}");
        assert!(f.message.contains("locks held: {}"), "finding: {f:?}");
    }
    // The report pairs the worker-side access with the main-side access.
    assert!(
        races
            .iter()
            .any(|f| f.func == "worker" && f.message.contains("main:")),
        "findings: {:?}",
        r.findings
    );
}

#[test]
fn lock_protected_counter_is_clean() {
    let r = check(LOCKED_COUNTER);
    assert!(races(&r).is_empty(), "unexpected: {:?}", r.findings);
}

#[test]
fn aliased_locks_suppress_via_must_alias() {
    let r = check(ALIASED_LOCKS);
    assert!(races(&r).is_empty(), "unexpected: {:?}", r.findings);
}

#[test]
fn unlock_ends_the_critical_section() {
    // main touches the counter *after* releasing the mutex: its lockset
    // there is empty, so the pair with worker's (protected) accesses has
    // no common lock.
    let r = check(
        "int counter; int m; int *p;
         void worker() { int t; lock(&m); t = *p; *p = t; unlock(&m); }
         void main() {
           int s;
           p = &counter; spawn worker();
           lock(&m); unlock(&m);
           s = *p; *p = s;
         }",
    );
    let races = races(&r);
    assert!(!races.is_empty(), "expected races, got {:?}", r.findings);
    assert!(
        races.iter().any(|f| f.message.contains("{m}")),
        "expected the worker-side lockset as evidence: {:?}",
        races
    );
}

#[test]
fn different_locks_do_not_protect() {
    let r = check(
        "int counter; int m1; int m2; int *p;
         void worker() { int t; lock(&m1); t = *p; *p = t; unlock(&m1); }
         void main() {
           int s;
           p = &counter; spawn worker();
           lock(&m2); s = *p; *p = s; unlock(&m2);
         }",
    );
    assert!(!races(&r).is_empty(), "expected races: {:?}", r.findings);
}

#[test]
fn spawn_in_loop_races_with_itself() {
    let r = check(
        "int counter; int *p; int c;
         void worker() { int t; t = *p; *p = t; }
         void main() { p = &counter; while (c) { spawn worker(); } }",
    );
    let races = races(&r);
    assert!(
        races
            .iter()
            .any(|f| f.func == "worker" && f.object.as_deref() == Some("counter")),
        "expected worker to race with itself: {:?}",
        r.findings
    );
}

#[test]
fn single_thread_program_has_no_races() {
    let r = check(
        "int g; int *p; int x;
         void main() { p = &g; x = *p; *p = x; }",
    );
    assert!(races(&r).is_empty(), "unexpected: {:?}", r.findings);
    let race_stats = r
        .stats
        .iter()
        .find(|s| s.kind == CheckerKind::Race)
        .unwrap();
    assert_eq!(race_stats.sites, 0);
    assert_eq!(race_stats.findings, 0);
}

#[test]
fn private_heap_per_thread_is_clean() {
    // Each thread dereferences only memory it allocated itself.
    let r = check(
        "void worker() { int *h; int x; h = malloc(); *h = x; }
         void main() { int *k; int y; spawn worker(); k = malloc(); *k = y; }",
    );
    assert!(races(&r).is_empty(), "unexpected: {:?}", r.findings);
}

#[test]
fn race_findings_render_in_text() {
    let r = check(RACY_COUNTER);
    let text = bootstrap_checks::render_text(&r, Some("racy.c"));
    assert!(text.contains("[race]"), "text: {text}");
    assert!(text.contains("races with"), "text: {text}");
}

#[test]
fn race_only_selection_reports_one_stats_row() {
    let r = check(RACY_COUNTER);
    assert_eq!(r.stats.len(), 1);
    assert_eq!(r.stats[0].kind, CheckerKind::Race);
    assert!(r.stats[0].sites > 0);
    assert!(r.stats[0].queries > 0);
}

/// Shared assertions for every degraded configuration: the clean,
/// lock-protected program may gain low-confidence findings (the ladder can
/// no longer prove the two lock names coincide) but each one must carry a
/// coarse precision tag and fall back to may-alias lockset evidence; and
/// the racy program's full-precision races must all survive.
fn assert_degradation_is_conservative(config: Config, expect_reason: DegradeReason) {
    let degraded_clean = check_with(LOCKED_COUNTER, config.clone());
    for f in races(&degraded_clean) {
        assert_eq!(f.severity, Severity::Warning, "finding: {f:?}");
        assert!(
            f.precision > Precision::Fscs,
            "expected low confidence: {f:?}"
        );
        // The must-set is empty (nothing provable), so the lock shows up
        // only as a may-alias candidate.
        assert!(
            f.message.contains("m?"),
            "expected may-lockset evidence: {f:?}"
        );
    }
    assert!(
        degraded_clean
            .degrade
            .reasons
            .iter()
            .any(|(reason, _)| *reason == expect_reason),
        "expected {expect_reason:?} in {:?}",
        degraded_clean.degrade
    );

    // Conservative: degradation never drops a full-precision race.
    let full = check(RACY_COUNTER);
    let degraded_racy = check_with(RACY_COUNTER, config);
    let key =
        |f: &&bootstrap_checks::Finding| (f.loc, f.var.clone(), f.object.clone(), f.func.clone());
    let degraded_keys: Vec<_> = races(&degraded_racy).iter().map(key).collect();
    for f in races(&full) {
        assert!(
            degraded_keys.contains(&key(&f)),
            "race dropped under degradation: {f:?}"
        );
    }
}

#[test]
fn budget_degraded_locksets_stay_conservative() {
    assert_degradation_is_conservative(
        Config {
            query_step_budget: 1,
            ..Config::default()
        },
        DegradeReason::BudgetSteps,
    );
}

#[test]
fn arena_full_degraded_locksets_stay_conservative() {
    assert_degradation_is_conservative(
        Config {
            fault_plan: Some(FaultPlan {
                phase: FaultPhase::Query,
                kind: FaultKind::ArenaFull,
                at_tick: 1,
                cluster: None,
            }),
            ..Config::default()
        },
        DegradeReason::ArenaFull,
    );
}

#[test]
fn panic_degraded_locksets_stay_conservative() {
    assert_degradation_is_conservative(
        Config {
            fault_plan: Some(FaultPlan {
                phase: FaultPhase::Query,
                kind: FaultKind::Panic,
                at_tick: 1,
                cluster: None,
            }),
            ..Config::default()
        },
        DegradeReason::Panicked {
            class: bootstrap_core::PanicClass::Injected,
        },
    );
}
