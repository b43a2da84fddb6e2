//! The daemon's resident source workspace.
//!
//! A workspace is a set of named mini-C files. Each file's **parse** is
//! an immutable per-file artifact: an `edit` re-parses only the touched
//! file and reuses every other file's cached [`Ast`] unchanged. The
//! derived whole-program [`Program`] is rebuilt per epoch by
//! concatenating the cached per-file ASTs in file-name order and
//! lowering once — the explicit boundary between immutable per-file
//! inputs and derived analysis state that incremental invalidation
//! diffs across.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bootstrap_ir::ast::Ast;
use bootstrap_ir::lower::lower;
use bootstrap_ir::parse::parse;
use bootstrap_ir::Program;

/// Why an edit or a lowering was rejected. The daemon reports these as
/// structured protocol errors; the resident epoch is never switched to
/// a workspace that fails validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkspaceError {
    /// The touched file does not parse.
    Parse {
        /// The offending file.
        file: String,
        /// Parser diagnostic with line/column.
        message: String,
    },
    /// Two files define the same function, global, or struct.
    Duplicate {
        /// What kind of definition collides ("function", "global", "struct").
        what: &'static str,
        /// The colliding name.
        name: String,
    },
    /// Lowering the merged program panicked (a defect, but one the
    /// daemon survives by rejecting the edit).
    Lower(String),
}

impl fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkspaceError::Parse { file, message } => write!(f, "{file}: {message}"),
            WorkspaceError::Duplicate { what, name } => {
                write!(f, "duplicate {what} `{name}` across workspace files")
            }
            WorkspaceError::Lower(msg) => write!(f, "lowering failed: {msg}"),
        }
    }
}

impl std::error::Error for WorkspaceError {}

/// One file's immutable artifacts: source text and its parse.
#[derive(Clone, Debug)]
struct FileArtifact {
    source: String,
    ast: Ast,
}

/// A set of named source files with cached per-file parses.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    files: BTreeMap<String, FileArtifact>,
}

impl Workspace {
    /// An empty workspace (lowers to the empty program).
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Builds a workspace from `(name, source)` pairs, parsing each file.
    /// Like [`Workspace::with_edit`], this does not validate across files:
    /// [`Workspace::lower`] does, and yields the program too.
    pub fn from_sources<'a>(
        sources: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<Workspace, WorkspaceError> {
        let mut ws = Workspace::new();
        for (name, source) in sources {
            ws = ws.with_edit(name, Some(source))?;
        }
        Ok(ws)
    }

    /// The file names and sources, for journaling.
    pub fn sources(&self) -> BTreeMap<String, String> {
        self.files
            .iter()
            .map(|(k, v)| (k.clone(), v.source.clone()))
            .collect()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// A copy of this workspace with one file replaced (or removed when
    /// `content` is `None`). Only the touched file is re-parsed; every
    /// other file's cached parse is reused. The result is **not** yet
    /// validated across files — call [`Workspace::lower`] to validate.
    pub fn with_edit(
        &self,
        file: &str,
        content: Option<&str>,
    ) -> Result<Workspace, WorkspaceError> {
        let mut next = self.clone();
        match content {
            None => {
                next.files.remove(file);
            }
            Some(source) => {
                let ast = parse(source).map_err(|e| WorkspaceError::Parse {
                    file: file.to_string(),
                    message: format!("{} at {}:{}", e.msg, e.line, e.col),
                })?;
                next.files.insert(
                    file.to_string(),
                    FileArtifact {
                        source: source.to_string(),
                        ast,
                    },
                );
            }
        }
        Ok(next)
    }

    /// Merges the cached per-file ASTs (in file-name order) and lowers
    /// the whole program. Cross-file name collisions and lowering panics
    /// are reported as errors, never propagated.
    pub fn lower(&self) -> Result<Program, WorkspaceError> {
        let mut merged = Ast::default();
        let mut funcs: HashSet<&str> = HashSet::new();
        let mut globals: HashSet<&str> = HashSet::new();
        let mut structs: HashSet<&str> = HashSet::new();
        for artifact in self.files.values() {
            let ast = &artifact.ast;
            for f in &ast.funcs {
                if !funcs.insert(&f.name) {
                    return Err(WorkspaceError::Duplicate {
                        what: "function",
                        name: f.name.clone(),
                    });
                }
            }
            for g in &ast.globals {
                if !globals.insert(&g.name) {
                    return Err(WorkspaceError::Duplicate {
                        what: "global",
                        name: g.name.clone(),
                    });
                }
            }
            for s in &ast.structs {
                if !structs.insert(&s.name) {
                    return Err(WorkspaceError::Duplicate {
                        what: "struct",
                        name: s.name.clone(),
                    });
                }
            }
            merged.structs.extend(ast.structs.iter().cloned());
            merged.globals.extend(ast.globals.iter().cloned());
            merged.funcs.extend(ast.funcs.iter().cloned());
            merged.source_lines += ast.source_lines;
        }
        catch_unwind(AssertUnwindSafe(|| lower(&merged)))
            .map_err(|p| WorkspaceError::Lower(panic_text(&p)))
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_touches_one_file_and_merges_in_name_order() {
        let ws = Workspace::from_sources([
            ("b.c", "int *idy(int *r) { return r; }"),
            ("a.c", "int a; int *x; void main() { x = idy(&a); }"),
        ])
        .unwrap();
        let p = ws.lower().unwrap();
        assert!(p.func_named("main").is_some());
        assert!(p.func_named("idy").is_some());

        let ws2 = ws
            .with_edit("b.c", Some("int *idy(int *r) { int *t; t = r; return t; }"))
            .unwrap();
        assert!(ws2.lower().is_ok());
        // The original is untouched (persistent-value semantics).
        assert_eq!(ws.file_count(), 2);
        let p1 = ws.lower().unwrap();
        assert!(p1.func_named("idy").is_some());
    }

    #[test]
    fn parse_errors_and_duplicates_are_structured() {
        let ws = Workspace::from_sources([("a.c", "int a; void main() { }")]).unwrap();
        let err = ws.with_edit("bad.c", Some("int *p = = 3;")).unwrap_err();
        assert!(matches!(err, WorkspaceError::Parse { .. }), "{err}");

        let dup = ws
            .with_edit("b.c", Some("void main() { }"))
            .unwrap()
            .lower()
            .unwrap_err();
        assert_eq!(
            dup,
            WorkspaceError::Duplicate {
                what: "function",
                name: "main".into()
            }
        );
    }

    #[test]
    fn removing_a_file_removes_its_functions() {
        let ws = Workspace::from_sources([
            ("a.c", "void main() { }"),
            ("b.c", "int *idy(int *r) { return r; }"),
        ])
        .unwrap();
        let ws2 = ws.with_edit("b.c", None).unwrap();
        let p = ws2.lower().unwrap();
        assert!(p.func_named("idy").is_none());
        assert!(p.func_named("main").is_some());
    }

    #[test]
    fn empty_workspace_lowers() {
        assert!(Workspace::new().lower().is_ok());
    }
}
