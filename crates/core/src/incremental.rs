//! Incremental invalidation across program edit epochs.
//!
//! The paper's cluster-independence theorem (clusters of a disjoint alias
//! cover can be analyzed in isolation) is exactly an *invalidation
//! boundary*: after an edit, a cluster whose inputs are untouched needs no
//! recompute. This module derives that dirty set.
//!
//! The unit of tracking is the Steensgaard **alias partition** (every
//! cluster of the bootstrapped cover descends from exactly one). Each
//! partition gets a content **fingerprint** over everything its analyses
//! can observe:
//!
//! * its sorted member-variable names (membership change ⇒ new identity);
//! * the content digest (statements, edges, branch variables; DESIGN.md
//!   §12) of every function its relevant slice touches, *closed upward
//!   over the call graph* — the FSCS climb (Algorithm 3) walks backward
//!   through callers, so a caller body edit can change a warm query's
//!   answer even when the slice lines are untouched;
//! * the name and pointer-ness of every slice variable.
//!
//! Partitions also carry **dependency edges** to the partitions owning
//! their slice variables: summary fixpoints consult the cross-partition
//! FSCI oracle for those variables, and the oracle resolves through the
//! owner partition's engine. Dirtiness propagates backwards along these
//! edges, from each partition to every partition that depends on it, so a
//! clean partition's entire oracle closure is clean too.
//!
//! Between epochs, [`diff_and_adopt`] matches partitions by *canonical
//! id* (hash of sorted member names), compares fingerprints, closes the
//! changed set under dependencies, and grants the session's persistent
//! store an adoption: entries recorded under the previous whole-program
//! hash stay valid for clusters wholly inside the clean set, sidestepping
//! the store's whole-program gate exactly where it is provably too
//! coarse. The same fingerprint pass yields the new epoch's snapshot, so
//! an epoch fingerprints its partitions once.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::Hasher;

use bootstrap_analyses::ClassId;
use bootstrap_ir::{Program, VarId};
use bootstrap_store::{FxHasher64, FORMAT_VERSION};

use crate::cover::ClusterOrigin;
use crate::persist::{hash_str, write_names};
use crate::relevant::{modifying_functions, relevant_statements_indexed};
use crate::session::Session;

/// A per-partition content snapshot of one program epoch: canonical
/// partition id → fingerprint, plus the epoch's whole-program hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSnapshot {
    /// The whole-program content hash this snapshot was taken at.
    pub program_hash: u64,
    /// Canonical partition id → content fingerprint.
    pub fingerprints: BTreeMap<u64, u64>,
}

/// What an epoch diff concluded: how much of the partition space (and of
/// the cluster cover above it) survives the edit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirtyReport {
    /// Alias partitions in the new epoch.
    pub total_partitions: usize,
    /// Partitions whose fingerprint changed (or that are new), closed
    /// transitively under oracle dependencies.
    pub dirty_partitions: usize,
    /// Clusters in the new epoch's cover.
    pub total_clusters: usize,
    /// Clusters descending from a dirty partition (these recompute; the
    /// rest answer from resident engines or adopted store entries).
    pub dirty_clusters: usize,
    /// `true` when an adoption grant was installed on the session's store.
    pub adopted: bool,
}

impl DirtyReport {
    /// `true` when nothing survived (every partition recomputes).
    pub fn all_dirty(&self) -> bool {
        self.dirty_partitions == self.total_partitions
    }
}

/// One partition's derived tracking state within an epoch.
struct Unit {
    class: ClassId,
    fingerprint: u64,
    deps: Vec<u64>,
    /// `true` for units reached only as oracle dependencies (classes with
    /// no pointer members); they fingerprint and propagate but are not
    /// alias partitions of the cover.
    dep_only: bool,
}

/// Takes the partition snapshot of `session`'s epoch, for diffing against
/// a later epoch with [`diff_and_adopt`].
pub fn snapshot(session: &Session<'_>) -> PartitionSnapshot {
    snapshot_of(session, &build_units(session))
}

fn snapshot_of(session: &Session<'_>, units: &BTreeMap<u64, Unit>) -> PartitionSnapshot {
    PartitionSnapshot {
        program_hash: session.program_content_hash(),
        fingerprints: units.iter().map(|(id, u)| (*id, u.fingerprint)).collect(),
    }
}

/// Diffs `session`'s epoch against `prev`, arms the session's persistent
/// store to adopt the previous epoch's entries for clusters proven clean,
/// and reports the dirty footprint together with the epoch's own
/// snapshot (what [`snapshot`] would return) for the next epoch to diff
/// against.
///
/// Sound because a clean fingerprint pins the partition's members, its
/// relevant slice, and every function body its walks can traverse, edges
/// and branch variables included — so the store's content-addressed
/// cluster key and the recorded artifacts are byte-identical to what a
/// cold run of the new epoch would produce — and dirtiness closes
/// transitively over the partitions whose engines the FSCI oracle
/// consults.
pub fn diff_and_adopt(
    prev: &PartitionSnapshot,
    session: &Session<'_>,
) -> (DirtyReport, PartitionSnapshot) {
    let units = build_units(session);
    // Seed: new identity or changed content.
    let changed = units
        .iter()
        .filter(|(id, u)| prev.fingerprints.get(*id) != Some(&u.fingerprint))
        .map(|(id, _)| *id)
        .collect();
    let dirty = close_dirty(
        units.iter().map(|(id, u)| (*id, u.deps.as_slice())),
        changed,
    );

    let clean: HashSet<ClassId> = units
        .iter()
        .filter(|(id, _)| !dirty.contains(*id))
        .map(|(_, u)| u.class)
        .collect();
    let dirty_classes: HashSet<ClassId> = units
        .iter()
        .filter(|(id, _)| dirty.contains(*id))
        .map(|(_, u)| u.class)
        .collect();

    let partitions: Vec<&Unit> = units.values().filter(|u| !u.dep_only).collect();
    let total_partitions = partitions.len();
    let dirty_partitions = partitions
        .iter()
        .filter(|u| dirty_classes.contains(&u.class))
        .count();

    let clusters = session.cover().clusters();
    let total_clusters = clusters.len();
    let dirty_clusters = clusters
        .iter()
        .filter(|c| match cluster_class(&c.origin) {
            Some(class) => dirty_classes.contains(&class),
            // A whole-program cluster has no partition boundary to hide
            // behind: dirty unless nothing changed at all.
            None => !dirty_classes.is_empty(),
        })
        .count();

    let adopted = !clean.is_empty() && session.adopt_previous_epoch(prev.program_hash, clean);
    let report = DirtyReport {
        total_partitions,
        dirty_partitions,
        total_clusters,
        dirty_clusters,
        adopted,
    };
    (report, snapshot_of(session, &units))
}

/// Closes `dirty` under dependencies: a unit whose `deps` name a dirty
/// unit is dirty too. One breadth-first walk over the reverse edges.
fn close_dirty<'a>(
    deps: impl IntoIterator<Item = (u64, &'a [u64])>,
    mut dirty: HashSet<u64>,
) -> HashSet<u64> {
    let mut dependents: HashMap<u64, Vec<u64>> = HashMap::new();
    for (id, on) in deps {
        for &d in on {
            dependents.entry(d).or_default().push(id);
        }
    }
    let mut queue: VecDeque<u64> = dirty.iter().copied().collect();
    while let Some(id) = queue.pop_front() {
        for &up in dependents.get(&id).into_iter().flatten() {
            if dirty.insert(up) {
                queue.push_back(up);
            }
        }
    }
    dirty
}

/// The parent alias partition of a cluster, if it has one.
fn cluster_class(origin: &ClusterOrigin) -> Option<ClassId> {
    match origin {
        ClusterOrigin::Steensgaard(class) => Some(*class),
        ClusterOrigin::Andersen { partition, .. } => Some(*partition),
        ClusterOrigin::WholeProgram => None,
    }
}

/// Builds the epoch's tracking units: every alias partition, plus every
/// class reached as an oracle dependency, fingerprinted and linked.
fn build_units(session: &Session<'_>) -> BTreeMap<u64, Unit> {
    let program = session.program();
    let steens = session.steens();
    let digests = session.digests();
    let mut units: BTreeMap<u64, Unit> = BTreeMap::new();
    let mut seen: HashSet<ClassId> = HashSet::new();
    let mut queue: VecDeque<(ClassId, bool)> = steens
        .alias_partitions(program)
        .into_iter()
        .map(|(class, _)| (class, false))
        .collect();
    seen.extend(queue.iter().map(|(c, _)| *c));

    while let Some((class, dep_only)) = queue.pop_front() {
        let members = session.engine_members(class);
        if members.is_empty() {
            continue;
        }
        let id = canonical_id(program, members);
        let rel = relevant_statements_indexed(program, steens, session.relevant_index(), members);
        // The slice's functions closed upward over the call graph: the
        // climb visits callers, whose bodies feed the fingerprint.
        let funcs = modifying_functions(program, session.callgraph(), &rel);

        let mut h = FxHasher64::default();
        h.write_u64(u64::from(FORMAT_VERSION));
        h.write_u64(id);
        let mut slice_vars: Vec<(&str, bool)> = rel
            .vars()
            .map(|v| {
                let info = program.var(v);
                (info.name(), info.is_pointer())
            })
            .collect();
        slice_vars.sort_unstable();
        h.write_u64(slice_vars.len() as u64);
        for (name, ptr) in slice_vars {
            hash_str(&mut h, name);
            h.write_u64(u64::from(ptr));
        }
        digests.write_sorted(&mut h, funcs.into_iter());

        // Oracle dependencies: the owner partitions of every slice var.
        let mut dep_classes: Vec<ClassId> = rel
            .vars()
            .map(|v| steens.partition_key(v))
            .filter(|&k| k != class)
            .collect();
        dep_classes.sort();
        dep_classes.dedup();
        let mut deps = Vec::with_capacity(dep_classes.len());
        for dep in dep_classes {
            let dep_members = session.engine_members(dep);
            if dep_members.is_empty() {
                continue;
            }
            deps.push(canonical_id(program, dep_members));
            if seen.insert(dep) {
                queue.push_back((dep, true));
            }
        }

        units.insert(
            id,
            Unit {
                class,
                fingerprint: h.finish(),
                deps,
                dep_only,
            },
        );
    }
    units
}

/// Epoch-stable partition identity: hash of the sorted member names.
fn canonical_id(program: &Program, members: &[VarId]) -> u64 {
    let mut h = FxHasher64::default();
    write_names(&mut h, program, members);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Config;
    use bootstrap_ir::parse_program;

    const TWO_NETWORKS: &str = "int a; int b; int *x; int *y;
         int *idx(int *q) { return q; }
         int *idy(int *r) { return r; }
         void main() { x = idx(&a); y = idy(&b); }";

    #[test]
    fn snapshot_is_deterministic() {
        let p = parse_program(TWO_NETWORKS).unwrap();
        let s1 = Session::new(&p, Config::default());
        let s2 = Session::new(&p, Config::default());
        assert_eq!(snapshot(&s1), snapshot(&s2));
    }

    #[test]
    fn identical_programs_diff_clean() {
        let p = parse_program(TWO_NETWORKS).unwrap();
        let prev = snapshot(&Session::new(&p, Config::default()));
        let s = Session::new(&p, Config::default());
        let (report, _) = diff_and_adopt(&prev, &s);
        assert_eq!(report.dirty_partitions, 0);
        assert_eq!(report.dirty_clusters, 0);
        assert!(report.total_partitions > 0);
        // No store configured: nothing to adopt.
        assert!(!report.adopted);
    }

    #[test]
    fn touched_network_dirties_only_its_partitions() {
        let p1 = parse_program(TWO_NETWORKS).unwrap();
        let prev = snapshot(&Session::new(&p1, Config::default()));
        // Edit only y's network: route it through a fresh variable.
        let p2 = parse_program(
            "int a; int b; int *x; int *y;
             int *idx(int *q) { return q; }
             int *idy(int *r) { int *t; t = r; return t; }
             void main() { x = idx(&a); y = idy(&b); }",
        )
        .unwrap();
        let s2 = Session::new(&p2, Config::default());
        let (report, next) = diff_and_adopt(&prev, &s2);
        // The diff's own fingerprint pass is the next epoch's snapshot.
        assert_eq!(next, snapshot(&s2));
        assert_ne!(next, prev);
        assert!(report.dirty_partitions > 0, "y's partition must dirty");
        assert!(
            report.dirty_partitions < report.total_partitions,
            "x's untouched network must stay clean ({report:?})"
        );
        assert!(report.dirty_clusters < report.total_clusters);
    }

    #[test]
    fn caller_edit_dirties_callee_partition() {
        // main is a caller of idx; editing main's call structure must
        // dirty x's partition even though idx's body is untouched,
        // because the FSCS climb walks through main.
        let p1 = parse_program(TWO_NETWORKS).unwrap();
        let prev = snapshot(&Session::new(&p1, Config::default()));
        let p2 = parse_program(
            "int a; int b; int *x; int *y;
             int *idx(int *q) { return q; }
             int *idy(int *r) { return r; }
             void main() { x = idx(&b); y = idy(&b); }",
        )
        .unwrap();
        let s2 = Session::new(&p2, Config::default());
        let (report, _) = diff_and_adopt(&prev, &s2);
        assert!(report.all_dirty(), "a caller edit reaches every walk");
    }

    fn closed(deps: &[(u64, &[u64])], changed: &[u64]) -> Vec<u64> {
        let mut dirty: Vec<u64> =
            close_dirty(deps.iter().copied(), changed.iter().copied().collect())
                .into_iter()
                .collect();
        dirty.sort_unstable();
        dirty
    }

    #[test]
    fn dirtiness_climbs_every_dependency_edge() {
        // a depends on b, b on c: a change to c reaches a through b.
        let chain: &[(u64, &[u64])] = &[(1, &[2]), (2, &[3]), (3, &[]), (4, &[])];
        assert_eq!(closed(chain, &[3]), [1, 2, 3]);
        assert_eq!(closed(chain, &[1]), [1]);
        assert_eq!(closed(chain, &[]), Vec::<u64>::new());
        // A diamond: 1 depends on 2 and 3, both on 4; 5 on 3 alone.
        let diamond: &[(u64, &[u64])] = &[(1, &[2, 3]), (2, &[4]), (3, &[4]), (4, &[]), (5, &[3])];
        assert_eq!(closed(diamond, &[4]), [1, 2, 3, 4, 5]);
        assert_eq!(closed(diamond, &[2]), [1, 2]);
    }
}
