//! Golden files for the mini-C frontend (`parse` + `lower`).
//!
//! Every committed mini-C file that parses, plus two generated chain
//! programs, is lowered and rendered in full: the variable table in id
//! order (name, kind, pointer flag, abstract location), each function's
//! signature and exit, every statement's `Debug` form with its successors
//! and source line, the branch conditions, and the source line count.
//! Files that must not parse (`invalid_*.c` in the fuzz corpus) pin their
//! `ParseError` message, line and column instead. The renderings must
//! match `tests/frontend/*.golden` byte for byte (set `BLESS=1` to
//! regenerate), so a faster frontend is held to the same `Program`.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use bootstrap_ir::Program;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/frontend")
}

/// Renders everything lowering decides about `p`.
fn render(p: &Program) -> String {
    let mut out = String::new();
    writeln!(out, "source_lines {}", p.source_lines()).unwrap();
    writeln!(out, "vars {}", p.var_count()).unwrap();
    for v in p.var_ids() {
        let info = p.var(v);
        writeln!(
            out,
            "{v:?} {} {:?} ptr={} abs={:?}",
            info.name(),
            info.kind(),
            info.is_pointer(),
            info.abs_loc()
        )
        .unwrap();
    }
    for f in p.functions() {
        writeln!(
            out,
            "func {:?} {} params={:?} ret={:?} exit={}",
            f.id(),
            f.name(),
            f.params(),
            f.ret_var(),
            f.exit().stmt
        )
        .unwrap();
        for (i, s) in f.body().iter().enumerate() {
            let idx = i as u32;
            let line = f.line_of(idx).map_or("-".to_string(), |l| l.to_string());
            writeln!(out, "  {idx}: {s:?} -> {:?} @{line}", f.succs(idx)).unwrap();
        }
        for idx in 0..f.body().len() as u32 {
            if let Some(v) = f.branch_cond(idx) {
                writeln!(out, "  branch {idx} on {v:?}").unwrap();
            }
        }
    }
    out
}

fn check_golden(name: &str, rendered: &str) {
    let path = golden_dir().join(format!("{name}.golden"));
    if std::env::var_os("BLESS").is_some() {
        fs::create_dir_all(golden_dir()).expect("golden directory");
        fs::write(&path, rendered).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {path:?}; run with BLESS=1"));
    assert!(
        rendered == golden,
        "frontend output for {name} diverges from {path:?}"
    );
}

/// The committed `.c` files under `dir` (not recursive), sorted.
fn c_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{dir:?}: {e}"))
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "c"))
        .collect();
    files.sort();
    files
}

/// A golden name for `path`: its path from the repository root with `/`
/// replaced by `__`.
fn golden_name(path: &Path) -> String {
    let root = repo_root().canonicalize().expect("repository root");
    let rel = path
        .canonicalize()
        .expect("input path")
        .strip_prefix(&root)
        .expect("input under the repository root")
        .to_string_lossy()
        .replace('/', "__");
    rel.trim_end_matches(".c").to_string()
}

fn parseable_inputs() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in [
        "examples/c",
        "examples/real",
        "tests/fixtures",
        "tests/fixtures/edit/before",
        "tests/fixtures/edit/after",
        "crates/fuzz/corpus",
    ] {
        files.extend(c_files(&root.join(dir)).into_iter().filter(|p| {
            !p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("invalid_"))
        }));
    }
    files
}

#[test]
fn committed_sources_lower_to_their_golden_programs() {
    let files = parseable_inputs();
    assert!(files.len() >= 18, "expected every committed .c file");
    for path in files {
        let src = fs::read_to_string(&path).expect("readable source");
        let program = bootstrap_ir::parse_program(&src)
            .unwrap_or_else(|e| panic!("{path:?} must parse: {e}"));
        check_golden(&golden_name(&path), &render(&program));
    }
}

#[test]
fn chain_sources_lower_to_their_golden_programs() {
    for helpers in [0, 8] {
        let src = bootstrap_bench::chain_source(64, helpers);
        let program = bootstrap_ir::parse_program(&src).expect("chain source parses");
        check_golden(&format!("chain_64_{helpers}"), &render(&program));
    }
}

#[test]
fn invalid_corpus_entries_keep_their_parse_errors() {
    let corpus = repo_root().join("crates/fuzz/corpus");
    let invalid: Vec<PathBuf> = c_files(&corpus)
        .into_iter()
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("invalid_"))
        })
        .collect();
    assert!(!invalid.is_empty(), "the corpus keeps its invalid entries");
    for path in invalid {
        let src = fs::read_to_string(&path).expect("readable source");
        let err = match bootstrap_ir::parse::parse(&src) {
            Ok(_) => panic!("{path:?} must not parse"),
            Err(e) => e,
        };
        let rendered = format!("{}:{}: {}\n", err.line, err.col, err.msg);
        check_golden(&golden_name(&path), &rendered);
    }
}
