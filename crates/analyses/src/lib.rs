//! Flow- and context-insensitive pointer analyses for the bootstrapping
//! cascade.
//!
//! The PLDI 2008 *Bootstrapping* paper applies "a series of increasingly
//! accurate but highly scalable alias analyses in a cascaded fashion". This
//! crate provides those stages:
//!
//! * [`steensgaard`] — unification-based, almost linear; produces the
//!   *Steensgaard partitions* (a disjoint alias cover) and the points-to
//!   hierarchy with its depth ordering;
//! * [`andersen`] — inclusion-based; bootstrapped by Steensgaard
//!   partitioning, it refines large partitions into *Andersen clusters*
//!   (a disjunctive alias cover);
//! * [`escape`] — thread-escape analysis over the spawn-extended IR,
//!   feeding the data-race detector;
//!
//! plus the shared substrates [`bitset`] (hybrid points-to sets) and
//! [`unionfind`].
//!
//! # Examples
//!
//! ```
//! let program = bootstrap_ir::parse_program(
//!     "int a; int *p; int *q; void main() { p = &a; q = p; }",
//! )
//! .unwrap();
//! let st = bootstrap_analyses::steensgaard::analyze(&program);
//! let an = bootstrap_analyses::andersen::analyze(&program);
//! let p = program.var_named("p").unwrap();
//! let q = program.var_named("q").unwrap();
//! // Both agree that p and q may alias.
//! assert_eq!(st.class_of(p), st.class_of(q));
//! assert!(an.may_alias(p, q));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod andersen;
pub mod bitset;
pub mod escape;
pub mod fpresolve;
pub mod steensgaard;
pub mod unionfind;

pub use andersen::{AndersenCluster, AndersenResult};
pub use bitset::VarSet;
pub use escape::{EscapeResult, Thread, ThreadId, MAIN_THREAD};
pub use fpresolve::{FpResolution, FpResolver};
pub use steensgaard::{ClassId, SteensgaardResult};
