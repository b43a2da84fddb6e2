//! The daemon's resident source workspace.
//!
//! A workspace is a set of named mini-C files. Each file's source and
//! **parse** form an immutable per-file artifact behind an [`Arc`]: an
//! `edit` re-parses only the touched file, and the new workspace shares
//! every other file's artifact with the old one instead of copying it.
//! The derived whole-program [`Program`] is rebuilt per epoch by lowering
//! the per-file ASTs in file-name order in one pass — the explicit
//! boundary between immutable per-file inputs and derived analysis state
//! that incremental invalidation diffs across.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bootstrap_ir::ast::Ast;
use bootstrap_ir::lower::lower_files;
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
#[derive(Debug)]
struct FileArtifact {
    source: String,
    ast: Ast,
}

impl FileArtifact {
    fn parse(file: &str, source: &str) -> Result<Arc<FileArtifact>, WorkspaceError> {
        let ast = parse(source).map_err(|e| WorkspaceError::Parse {
            file: file.to_string(),
            message: format!("{} at {}:{}", e.msg, e.line, e.col),
        })?;
        Ok(Arc::new(FileArtifact {
            source: source.to_string(),
            ast,
        }))
    }
}

/// A set of named source files with cached per-file parses. Cloning a
/// workspace shares its files' artifacts.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    files: BTreeMap<String, Arc<FileArtifact>>,
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
            ws.files
                .insert(name.to_string(), FileArtifact::parse(name, source)?);
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
    /// other file's artifact is shared. The result is **not** yet
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
                next.files
                    .insert(file.to_string(), FileArtifact::parse(file, source)?);
            }
        }
        Ok(next)
    }

    /// Lowers the cached per-file ASTs, in file-name order, into one
    /// program: the program their merged AST gives. Cross-file name
    /// collisions and lowering panics are reported as errors, never
    /// propagated.
    pub fn lower(&self) -> Result<Program, WorkspaceError> {
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
        }
        let asts = self.files.values().map(|artifact| &artifact.ast);
        catch_unwind(AssertUnwindSafe(|| lower_files(asts)))
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

    #[test]
    fn an_edit_shares_every_untouched_file() {
        let ws = Workspace::from_sources([
            ("a.c", "void main() { }"),
            ("b.c", "int *idy(int *r) { return r; }"),
        ])
        .unwrap();
        let ws2 = ws
            .with_edit("b.c", Some("int *idy(int *r) { int *t; t = r; return t; }"))
            .unwrap();
        assert!(Arc::ptr_eq(&ws.files["a.c"], &ws2.files["a.c"]));
        assert!(!Arc::ptr_eq(&ws.files["b.c"], &ws2.files["b.c"]));
    }

    #[test]
    fn lowering_equals_lowering_the_merged_ast_in_name_order() {
        let files = [
            ("c.c", "void main() { int *p; p = idy(&g); s.fst = p; }"),
            ("a.c", "struct pair { int *fst; int *snd; };\nint g;"),
            (
                "b.c",
                "struct pair s;\nint *idy(int *r) { if (g) { return r; } return r; }",
            ),
        ];
        let ws = Workspace::from_sources(files).unwrap();
        let mut sorted = files;
        sorted.sort();
        let mut merged = Ast::default();
        for (_, source) in sorted {
            let ast = parse(source).unwrap();
            merged.structs.extend(ast.structs);
            merged.globals.extend(ast.globals);
            merged.funcs.extend(ast.funcs);
            merged.source_lines += ast.source_lines;
        }
        let (split, whole) = (ws.lower().unwrap(), bootstrap_ir::lower::lower(&merged));
        let names = |p: &Program| -> Vec<String> {
            p.var_ids().map(|v| p.var(v).name().to_string()).collect()
        };
        assert_eq!(names(&split), names(&whole));
        assert_eq!(split.to_string(), whole.to_string());
        assert_eq!(split.source_lines(), whole.source_lines());
    }
}
