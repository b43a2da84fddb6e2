//! Andersen's inclusion-based points-to analysis.
//!
//! Unlike Steensgaard's analysis, assignments generate *directional*
//! subset constraints (`x = y` implies `pts(x) ⊇ pts(y)`), solved with a
//! worklist. The analysis is more precise but super-linear; in the paper's
//! cascade it is bootstrapped by Steensgaard partitioning: it runs
//! separately on the relevant-statement slice of each large partition,
//! breaking the partition into smaller **Andersen clusters** (the pointers
//! sharing a pointed-to object — a *disjunctive alias cover*, Theorem 7).

use bootstrap_ir::{Program, Stmt, VarId, VarKind};

use crate::bitset::VarSet;

/// The result of Andersen's analysis: one points-to set per variable.
///
/// # Examples
///
/// ```
/// let p = bootstrap_ir::parse_program(
///     "int a; int b; int *p; int *q; int *r;
///      void main() { p = &a; q = &b; q = p; r = &b; }",
/// )
/// .unwrap();
/// let an = bootstrap_analyses::andersen::analyze(&p);
/// let v = |n: &str| p.var_named(n).unwrap();
/// // q inherits a from p but p does not inherit b back (directional).
/// assert!(an.points_to(v("q")).contains(v("a").index() as u32));
/// assert!(!an.points_to(v("p")).contains(v("b").index() as u32));
/// ```
#[derive(Clone, Debug)]
pub struct AndersenResult {
    /// Points-to sets indexed by *class representative*: variables the
    /// solver merged share one physical set at their representative's
    /// slot (non-representative slots are empty). Accessors resolve
    /// through `class`, so collapsed classes of any size cost one set.
    pts: Vec<VarSet>,
    /// Final union-find class representative per variable. Variables the
    /// solver merged (cycle elimination) share a representative; a solver
    /// that merged nothing maps every variable to itself.
    class: Vec<u32>,
}

/// An Andersen cluster: the set of pointers that may point to a common
/// object. A pointer belongs to every cluster of every object it points
/// to, so clusters overlap (they form a disjunctive, not disjoint, cover).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AndersenCluster {
    /// The shared pointed-to object (`None` for the singleton cluster of a
    /// pointer with an empty points-to set).
    pub object: Option<VarId>,
    /// The pointers in the cluster, sorted.
    pub members: Vec<VarId>,
}

impl AndersenResult {
    /// The points-to set of `v` (object variable indices).
    pub fn points_to(&self, v: VarId) -> &VarSet {
        &self.pts[self.class[v.index()] as usize]
    }

    /// The points-to set of `v` as sorted [`VarId`]s.
    pub fn points_to_vars(&self, v: VarId) -> Vec<VarId> {
        self.points_to(v)
            .iter()
            .map(|i| VarId::new(i as usize))
            .collect()
    }

    /// Returns `true` if `p` and `q` may alias (their points-to sets
    /// intersect).
    pub fn may_alias(&self, p: VarId, q: VarId) -> bool {
        self.points_to(p).intersects(self.points_to(q))
    }

    /// Number of variables covered.
    pub fn var_count(&self) -> usize {
        self.class.len()
    }

    /// Builds the Andersen clusters over `pointers` (paper §2, "Computing
    /// Andersen Covers"): one cluster per pointed-to object, plus singleton
    /// clusters for pointers that point to nothing (so the clusters still
    /// cover every pointer, condition (i) of a disjunctive alias cover).
    pub fn clusters(&self, pointers: &[VarId]) -> Vec<AndersenCluster> {
        let mut by_object: std::collections::HashMap<u32, Vec<VarId>> =
            std::collections::HashMap::new();
        let mut singletons = Vec::new();
        for &p in pointers {
            let set = self.points_to(p);
            if set.is_empty() {
                singletons.push(p);
            } else {
                for o in set.iter() {
                    by_object.entry(o).or_default().push(p);
                }
            }
        }
        let mut out: Vec<AndersenCluster> = by_object
            .into_iter()
            .map(|(o, mut members)| {
                members.sort();
                members.dedup();
                AndersenCluster {
                    object: Some(VarId::new(o as usize)),
                    members,
                }
            })
            .collect();
        for p in singletons {
            out.push(AndersenCluster {
                object: None,
                members: vec![p],
            });
        }
        out.sort_by(|a, b| a.object.cmp(&b.object).then(a.members.cmp(&b.members)));
        out
    }

    /// The groups of variables the solver's cycle elimination merged into
    /// a single class (only groups with two or more members; each sorted).
    /// Every member of a group provably has the same points-to set — the
    /// oversharing property tests check exactly that against the naive
    /// oracle.
    pub fn merged_groups(&self) -> Vec<Vec<VarId>> {
        let mut by_class: std::collections::HashMap<u32, Vec<VarId>> =
            std::collections::HashMap::new();
        for (v, &c) in self.class.iter().enumerate() {
            by_class.entry(c).or_default().push(VarId::new(v));
        }
        let mut out: Vec<Vec<VarId>> = by_class
            .into_values()
            .filter(|g| g.len() > 1)
            .map(|mut g| {
                g.sort();
                g
            })
            .collect();
        out.sort();
        out
    }

    /// Resolves candidate targets of an indirect call through `fp`.
    pub fn fp_targets(&self, program: &Program, fp: VarId) -> Vec<bootstrap_ir::FuncId> {
        let mut out = Vec::new();
        for o in self.points_to(fp).iter() {
            if let VarKind::FuncObj(f) = program.var(VarId::new(o as usize)).kind() {
                out.push(*f);
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// Solver test hooks.
///
/// The default is the production solver: a plain difference-propagation
/// drain that engages cycle elimination *adaptively* — only when a
/// propagation-volume thrash detector says sets are circulating through
/// unresolved copy cycles does it run offline hybrid cycle detection
/// (HCD) and then wave-ordered propagation (sparse graphs that converge
/// in about one pass never pay for it). Both flags exist for tests and
/// benchmarks that compare against or force that pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverOptions {
    /// Use the pre-difference-propagation solver: full points-to sets
    /// re-propagated on every worklist pop, duplicate worklist pushes, and
    /// O(degree) duplicate-edge scans. Kept as a slow, obviously correct
    /// oracle for property tests and as the benchmark baseline. Overrides
    /// `eager_cycles`.
    pub naive: bool,
    /// Engage the cycle machinery (HCD, then wave rounds) from the first
    /// pop instead of adaptively. By default the solver runs a plain
    /// difference-propagation drain and brings the machinery in only when
    /// the thrash detector fires; workloads small enough to converge
    /// before the detector triggers then never merge anything. Tests that
    /// must exercise the merge paths set this.
    pub eager_cycles: bool,
}

impl SolverOptions {
    /// The slow, obviously correct oracle (full-set re-propagation).
    pub fn naive_oracle() -> Self {
        Self {
            naive: true,
            ..Self::default()
        }
    }
}

/// Work counters from one solver run (used by worklist-boundedness tests,
/// the naive-vs-delta benchmark, and the `stats` CLI subcommand).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Worklist pops (or wave node visits) that did propagation work.
    pub pops: usize,
    /// Worklist pops that found nothing to do — the node's delta was
    /// already drained by a merge or an earlier pop. Counted separately so
    /// scheduling overhead is visible instead of inflating `pops`.
    pub stale_pops: usize,
    /// Copy edges in the final constraint graph (including derived ones).
    pub edges: usize,
    /// Cycle components collapsed while solving (HCD pair merges and
    /// wave-round condensations).
    pub sccs_online: usize,
    /// Cycle components collapsed by the offline pre-solve pass over the
    /// static copy graph.
    pub sccs_offline: usize,
    /// Wave-propagation rounds run (0 when the adaptive drain reached the
    /// fixpoint on its own).
    pub wave_rounds: usize,
    /// Copy edges dropped because cycle collapsing turned them into
    /// self-loops or duplicates.
    pub edges_pruned: usize,
    /// Constraints dropped by the ingestion stream-dedup: repeat
    /// occurrences of a seed/copy/load/store already in the system (loop
    /// bodies and unrolled communities repeat the same four-form facts).
    pub dup_constraints: usize,
}

impl SolverStats {
    /// Field-wise accumulate `other` into `self` — used to aggregate the
    /// per-partition solver runs of a whole-program cascade.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.pops += other.pops;
        self.stale_pops += other.stale_pops;
        self.edges += other.edges;
        self.sccs_online += other.sccs_online;
        self.sccs_offline += other.sccs_offline;
        self.wave_rounds += other.wave_rounds;
        self.edges_pruned += other.edges_pruned;
        self.dup_constraints += other.dup_constraints;
    }
}

/// Runs Andersen's analysis over every statement of `program`.
pub fn analyze(program: &Program) -> AndersenResult {
    analyze_with(program, SolverOptions::default())
}

/// Runs Andersen's analysis with explicit solver options.
pub fn analyze_with(program: &Program, options: SolverOptions) -> AndersenResult {
    analyze_stmts_with(
        program.var_count(),
        program.all_locs().map(|(_, s)| s),
        options,
    )
}

/// Runs Andersen's analysis over an arbitrary statement slice — used by the
/// bootstrapping cascade to re-analyze a single Steensgaard partition's
/// relevant statements (`St_P`) in isolation.
pub fn analyze_stmts<'a, I>(n_vars: usize, stmts: I) -> AndersenResult
where
    I: IntoIterator<Item = &'a Stmt>,
{
    analyze_stmts_with(n_vars, stmts, SolverOptions::default())
}

/// Like [`analyze_stmts`], with explicit solver options.
pub fn analyze_stmts_with<'a, I>(n_vars: usize, stmts: I, options: SolverOptions) -> AndersenResult
where
    I: IntoIterator<Item = &'a Stmt>,
{
    analyze_stmts_with_stats(n_vars, stmts, options).0
}

/// Like [`analyze_stmts_with`], also returning solver work counters.
pub fn analyze_stmts_with_stats<'a, I>(
    n_vars: usize,
    stmts: I,
    options: SolverOptions,
) -> (AndersenResult, SolverStats)
where
    I: IntoIterator<Item = &'a Stmt>,
{
    let (result, stats, _) = analyze_stmts_profiled(n_vars, stmts, options);
    (result, stats)
}

/// Wall-clock phase breakdown of one solver run. The benchmark harness
/// reports these next to the totals so constraint construction (identical
/// for every solver configuration) is visible separately from the solving
/// fixpoint the configurations actually differ in.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverPhases {
    /// Table allocation plus the ingestion pass over the statement slice
    /// (points-to seeds, copy edges, load/store index).
    pub build_secs: f64,
    /// The constraint-solving fixpoint proper.
    pub solve_secs: f64,
    /// Result construction (class canonicalization).
    pub expand_secs: f64,
}

/// Like [`analyze_stmts_with_stats`], also returning the wall-clock phase
/// breakdown.
pub fn analyze_stmts_profiled<'a, I>(
    n_vars: usize,
    stmts: I,
    options: SolverOptions,
) -> (AndersenResult, SolverStats, SolverPhases)
where
    I: IntoIterator<Item = &'a Stmt>,
{
    let t0 = std::time::Instant::now();
    // Ingestion pre-pass: flatten the statement stream into compact
    // constraint tuples and count per-node degrees in one linear sweep, so
    // every per-node table is allocated at (close to) its final size
    // before the solver sees a constraint. Ingestion then stream-dedups:
    // a repeat of a copy edge is caught by the existing sorted-insert
    // probe, and repeats of load/store facts — which the old path pushed
    // blindly, making the fixpoint walk the same deref constraint once per
    // occurrence — by a short membership scan (per-node degrees are tiny,
    // so a linear probe beats hashing the whole stream). Duplicate counts
    // surface as `SolverStats::dup_constraints`.
    const K_ADDR: u8 = 0;
    const K_COPY: u8 = 1;
    const K_LOAD: u8 = 2;
    const K_STORE: u8 = 3;
    let tuples: Vec<(u8, u32, u32)> = stmts
        .into_iter()
        .filter_map(|stmt| match *stmt {
            Stmt::AddrOf { dst, obj } => Some((K_ADDR, dst.index() as u32, obj.index() as u32)),
            Stmt::Copy { dst, src } => Some((K_COPY, src.index() as u32, dst.index() as u32)),
            Stmt::Load { dst, src } => Some((K_LOAD, src.index() as u32, dst.index() as u32)),
            Stmt::Store { dst, src } => Some((K_STORE, dst.index() as u32, src.index() as u32)),
            Stmt::Null { .. }
            | Stmt::Free { .. }
            | Stmt::Call(_)
            | Stmt::Spawn(_)
            | Stmt::Lock { .. }
            | Stmt::Unlock { .. }
            | Stmt::Return
            | Stmt::Skip => None,
        })
        .collect();
    let mut edge_deg = vec![0u32; n_vars];
    let mut load_deg = vec![0u32; n_vars];
    let mut store_deg = vec![0u32; n_vars];
    for &(kind, a, _) in &tuples {
        match kind {
            K_COPY => edge_deg[a as usize] += 1,
            K_LOAD => load_deg[a as usize] += 1,
            K_STORE => store_deg[a as usize] += 1,
            _ => {}
        }
    }
    let mut solver = Solver::new(n_vars, options);
    solver.reserve(&edge_deg, &load_deg, &store_deg);
    for &(kind, a, b) in &tuples {
        match kind {
            K_ADDR => solver.add_points_to(a, b),
            K_COPY => {
                let edges_before: usize = solver.edges[a as usize].len();
                solver.add_copy(a, b);
                if a != b && solver.edges[a as usize].len() == edges_before {
                    solver.dup_constraints += 1;
                }
            }
            K_LOAD => {
                if solver.loads[a as usize].contains(&b) {
                    solver.dup_constraints += 1;
                } else {
                    solver.loads[a as usize].push(b);
                    solver.enqueue(a);
                }
            }
            K_STORE => {
                if solver.stores[a as usize].contains(&b) {
                    solver.dup_constraints += 1;
                } else {
                    solver.stores[a as usize].push(b);
                    solver.enqueue(a);
                }
            }
            _ => unreachable!(),
        }
    }
    let built = t0.elapsed();
    solver.solve();
    let solved = t0.elapsed();
    let stats = solver.stats();
    let result = solver.into_result();
    let phases = SolverPhases {
        build_secs: built.as_secs_f64(),
        solve_secs: (solved - built).as_secs_f64(),
        expand_secs: (t0.elapsed() - solved).as_secs_f64(),
    };
    (result, stats, phases)
}

struct Solver {
    pts: Vec<VarSet>,
    /// Per-node pending delta: elements added to `pts` that have not yet
    /// been propagated to successors / run through loads and stores.
    /// Invariant (difference path): `delta[n] ⊆ pts[n]`, and `n` is on the
    /// worklist whenever `delta[n]` is non-empty. Unused on the naive path.
    delta: Vec<VarSet>,
    /// Copy edges `src -> dst` (subset constraints), kept *sorted* so
    /// duplicate-edge checks are a binary search instead of an O(degree)
    /// scan; kept at class representatives when cycle collapsing is on.
    edges: Vec<Vec<u32>>,
    /// For `d = *s`: indexed by `s`, the destinations `d`.
    loads: Vec<Vec<u32>>,
    /// For `*d = s`: indexed by `d`, the sources `s`.
    stores: Vec<Vec<u32>>,
    worklist: Vec<u32>,
    /// Worklist membership bitmap: a node is pushed at most once until it
    /// is popped again, so duplicate pops never re-run propagation.
    in_worklist: Vec<bool>,
    /// False while constraints are being ingested, true once `solve` runs.
    /// During build `add_copy` skips the eager full-set carry over a new
    /// edge: pre-solve every node's delta *is* its full set and every node
    /// with a non-empty set is enqueued, so the first drain propagates it
    /// anyway — the eager union would do the same work twice.
    solving: bool,
    options: SolverOptions,
    /// Node -> representative (union-find, path-halved in `rep`).
    parent: Vec<u32>,
    /// Worklist pops since the start (collapse cadence + stats).
    pops: usize,
    /// Pops that found an already-drained delta (stats).
    stale_pops: usize,
    /// Constraints the ingestion pre-pass dropped as exact repeats (stats).
    dup_constraints: usize,
    /// HCD pairs: indexed by pointer `p`, the classes `v` to merge each
    /// newly arriving object of `pts(p)` with (offline-proven deref
    /// cycles). Moved to the class representative on merge, like `loads`.
    /// Empty (not per-node allocated) until `hcd_offline` runs — the
    /// adaptive path frequently never engages it.
    hcd: Vec<Vec<u32>>,
    sccs_online: usize,
    sccs_offline: usize,
    wave_rounds: usize,
    edges_pruned: usize,
    /// Tarjan scratch, generation-stamped so scoped wave-round sweeps do
    /// not pay an O(n) reset each. A slot is valid iff
    /// `scc_mark[v] == scc_gen`. Allocated on first use — a solve that
    /// never runs an SCC pass never pays the O(n) memset.
    scc_mark: Vec<u32>,
    scc_index: Vec<u32>,
    scc_low: Vec<u32>,
    /// Plain bool (not generation-stamped): every Tarjan pass pops all it
    /// pushes, so the array is all-false again at pass exit.
    scc_on_stack: Vec<bool>,
    scc_gen: u32,
}

impl Solver {
    fn new(n: usize, options: SolverOptions) -> Self {
        Self {
            pts: vec![VarSet::new(); n],
            delta: vec![VarSet::new(); n],
            edges: vec![Vec::new(); n],
            loads: vec![Vec::new(); n],
            stores: vec![Vec::new(); n],
            worklist: Vec::new(),
            in_worklist: vec![false; n],
            solving: false,
            options,
            parent: (0..n as u32).collect(),
            pops: 0,
            stale_pops: 0,
            dup_constraints: 0,
            hcd: Vec::new(),
            sccs_online: 0,
            sccs_offline: 0,
            wave_rounds: 0,
            edges_pruned: 0,
            scc_mark: Vec::new(),
            scc_index: Vec::new(),
            scc_low: Vec::new(),
            scc_on_stack: Vec::new(),
            scc_gen: 0,
        }
    }

    fn stats(&self) -> SolverStats {
        SolverStats {
            pops: self.pops,
            stale_pops: self.stale_pops,
            edges: self.edges.iter().map(Vec::len).sum(),
            sccs_online: self.sccs_online,
            sccs_offline: self.sccs_offline,
            wave_rounds: self.wave_rounds,
            edges_pruned: self.edges_pruned,
            dup_constraints: self.dup_constraints,
        }
    }

    /// Pre-sizes the per-node constraint tables from exact degree counts
    /// (see [`analyze_stmts_profiled`]'s ingestion pre-pass). Only nodes
    /// with a non-zero degree reserve — `Vec::new` is allocation-free, so
    /// touching the (typically vast) zero-degree majority would *add*
    /// allocator traffic, not remove it.
    fn reserve(&mut self, edge_deg: &[u32], load_deg: &[u32], store_deg: &[u32]) {
        for (v, &c) in edge_deg.iter().enumerate() {
            if c > 0 {
                self.edges[v].reserve_exact(c as usize);
            }
        }
        for (v, &c) in load_deg.iter().enumerate() {
            if c > 0 {
                self.loads[v].reserve_exact(c as usize);
            }
        }
        for (v, &c) in store_deg.iter().enumerate() {
            if c > 0 {
                self.stores[v].reserve_exact(c as usize);
            }
        }
    }

    fn rep(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    fn enqueue(&mut self, n: u32) {
        if self.options.naive {
            // The pre-optimization solver pushed unconditionally; duplicate
            // pops re-ran full-set propagation. Preserved so the oracle's
            // cost profile matches what the benchmark compares against.
            self.worklist.push(n);
        } else if !self.in_worklist[n as usize] {
            self.in_worklist[n as usize] = true;
            self.worklist.push(n);
        }
    }

    fn pop_node(&mut self) -> Option<u32> {
        let raw = self.worklist.pop()?;
        self.in_worklist[raw as usize] = false;
        Some(raw)
    }

    fn add_points_to(&mut self, x: u32, obj: u32) {
        let x = self.rep(x);
        if self.pts[x as usize].insert(obj) {
            if !self.options.naive {
                self.delta[x as usize].insert(obj);
            }
            self.enqueue(x);
        }
    }

    fn add_copy(&mut self, src: u32, dst: u32) {
        let src = self.rep(src);
        let dst = self.rep(dst);
        if src == dst {
            return;
        }
        if self.options.naive {
            // Seed behavior: O(degree) duplicate scan, unsorted edge list.
            if self.edges[src as usize].contains(&dst) {
                return;
            }
            self.edges[src as usize].push(dst);
            if !self.pts[src as usize].is_empty() {
                self.enqueue(src);
            }
        } else {
            match self.edges[src as usize].binary_search(&dst) {
                Ok(_) => return,
                Err(pos) => self.edges[src as usize].insert(pos, dst),
            }
            // Difference propagation: a brand-new edge is the one case that
            // must carry the source's *full* current set (the destination
            // has seen none of it); afterwards only deltas flow over it.
            // During build the carry is skipped: delta(src) still equals
            // pts(src) and src is enqueued, so the first pop of src carries
            // the set across this edge for free (see `solving`).
            if self.solving {
                let (src_pts, dst_pts) = index_two(&mut self.pts, src as usize, dst as usize);
                if dst_pts.union_into_delta(src_pts, &mut self.delta[dst as usize]) {
                    self.enqueue(dst);
                }
            }
        }
    }

    fn solve(&mut self) {
        self.solving = true;
        if self.options.naive {
            self.solve_naive();
            return;
        }
        // Adaptive engagement: cycle machinery (offline HCD, wave rounds)
        // pays for itself only on cycle-dense graphs where the plain
        // worklist thrashes. Run the cheap drain first; if it
        // reaches the fixpoint without the propagated volume exceeding
        // the thrash budget — the common case for sparse whole-program
        // graphs that converge in about one pass — the machinery never
        // runs at all.
        if !self.options.eager_cycles && self.drain_until_thrash() {
            return;
        }
        self.hcd_offline();
        self.solve_wave();
    }

    /// Difference-propagation drain with a thrash detector: pops nodes
    /// like the plain worklist solver (no cycle machinery) until either
    /// the fixpoint (returns `true`) or until the propagated *volume* —
    /// pending delta elements times out-degree, summed over pops —
    /// exceeds ~4 elements per node (returns `false` with all pending
    /// work still enqueued for the engaged solver). Pop counts cannot
    /// tell a thrashing graph from a sparse one that merely contains a
    /// small cyclic core: on sendmail the dense handle-table partition
    /// shows up in both the whole program and its partition slice with
    /// near-identical per-node pop profiles. Volume can: sets circulating
    /// through unresolved cycles grow element by element and get
    /// re-propagated wholesale, so cyclic cores push volume-per-node into
    /// the tens while one-pass graphs stay under ~2 end to end.
    fn drain_until_thrash(&mut self) -> bool {
        let budget = 4 * self.pts.len() + 64;
        let mut volume = 0usize;
        while let Some(raw) = self.pop_node() {
            let node = self.rep(raw) as usize;
            if self.delta[node].is_empty() {
                self.stale_pops += 1;
                continue;
            }
            volume += self.delta[node].len() * self.edges[node].len().max(1);
            if volume > budget {
                // Bail before processing: the delta is still pending, so
                // the node goes back on the worklist.
                self.enqueue(node as u32);
                return false;
            }
            self.pops += 1;
            self.process_delta(node);
        }
        true
    }

    /// Offline half of hybrid cycle detection, run once before solving:
    /// collapse the static copy-edge SCCs, then record the provable deref
    /// pairs. For a pointer `p` with a load `d = *p` and a store `*p = s`
    /// where `d` and `s` are already the same class `v`, any object `o`
    /// that later enters `pts(p)` gets the derived edges `o → v` and
    /// `v → o`, i.e. `pts(o) = pts(v)` at the fixpoint — so `(p, v)` is
    /// recorded and the merge is applied online the moment `o` arrives,
    /// without waiting for the cycle to materialize and be rediscovered.
    /// The class-equality restriction is what keeps the merge *provable*
    /// (full HCD on the ref graph can overshare; see DESIGN.md).
    fn hcd_offline(&mut self) {
        let n = self.pts.len();
        self.hcd.resize_with(n, Vec::new);
        self.sccs_offline += self.tarjan_collapse(0..n as u32, None);
        for p in 0..n {
            if self.loads[p].is_empty() || self.stores[p].is_empty() {
                continue;
            }
            let loads = std::mem::take(&mut self.loads[p]);
            let stores = std::mem::take(&mut self.stores[p]);
            let mut pairs: Vec<u32> = Vec::new();
            for &d in &loads {
                let rd = self.rep(d);
                if stores.iter().any(|&s| self.rep(s) == rd) {
                    pairs.push(rd);
                }
            }
            self.loads[p] = loads;
            self.stores[p] = stores;
            pairs.sort_unstable();
            pairs.dedup();
            self.hcd[p] = pairs;
        }
    }

    /// Wave propagation: condense the copy graph, then push every pending
    /// delta through it in topological order, so each edge carries a full
    /// wave of new objects once per round. Deltas created on predecessors
    /// mid-round (derived back-edges, cycle merges) roll over to the next
    /// round; the loop ends when a round finds nothing pending.
    fn solve_wave(&mut self) {
        let mut order: Vec<u32> = Vec::new();
        let mut starts: Vec<u32> = Vec::new();
        loop {
            // Pending classes for this round: exactly what build or the
            // previous round enqueued (the worklist doubles as the pending
            // set — it is never popped in wave mode). Scoping Tarjan to
            // the subgraph reachable from pending work keeps late rounds,
            // which touch a handful of nodes, from paying a full-graph
            // sweep each.
            starts.clear();
            starts.append(&mut self.worklist);
            for &w in &starts {
                self.in_worklist[w as usize] = false;
            }
            if starts.is_empty() {
                break;
            }
            order.clear();
            let merged = self.tarjan_collapse(starts.iter().copied(), Some(&mut order));
            self.sccs_online += merged;
            // Tarjan completes sink components first, so the completion
            // order reversed is topological (sources first) — exactly the
            // propagation order that moves a wave in one pass. Nodes with
            // nothing pending (reachable but not enqueued) are skipped.
            for i in (0..order.len()).rev() {
                let node = self.rep(order[i]) as usize;
                if self.delta[node].is_empty() {
                    continue;
                }
                self.pops += 1;
                self.process_delta(node);
            }
            self.wave_rounds += 1;
        }
    }

    /// One node's worth of solving: apply HCD merges for newly arrived
    /// objects, derive copy edges from loads/stores, then propagate the
    /// delta along copy edges. `n` must be a representative with a
    /// non-empty delta.
    fn process_delta(&mut self, n: usize) {
        let d = std::mem::take(&mut self.delta[n]);
        // HCD: each object newly in pts(n) provably shares its fixpoint
        // set with the recorded classes — merge now, before any edges are
        // derived through it.
        if !self.hcd.is_empty() && !self.hcd[n].is_empty() {
            let pairs = std::mem::take(&mut self.hcd[n]);
            for o in d.iter() {
                for &v in &pairs {
                    if self.union_classes(v, o) {
                        self.sccs_online += 1;
                    }
                }
            }
            let rn = self.rep(n as u32) as usize;
            if self.hcd[rn].is_empty() {
                self.hcd[rn] = pairs;
            } else {
                self.hcd[rn].extend(pairs);
                self.hcd[rn].sort_unstable();
                self.hcd[rn].dedup();
            }
            if rn != n {
                // n itself was absorbed: the root's delta was reset to its
                // full set, which subsumes d. Nothing left to do here.
                return;
            }
        }
        // Derive new copy edges from loads/stores through n — only for
        // the objects that newly arrived. The lists are *moved* out and
        // restored, not cloned: `add_copy` only touches edges, points-to
        // sets and deltas, never the load/store index, so taking them is
        // borrow-safe and costs nothing per pop.
        if !self.loads[n].is_empty() || !self.stores[n].is_empty() {
            let loads = std::mem::take(&mut self.loads[n]);
            let stores = std::mem::take(&mut self.stores[n]);
            for o in d.iter() {
                for &l in &loads {
                    self.add_copy(o, l);
                }
                for &s in &stores {
                    self.add_copy(s, o);
                }
            }
            self.loads[n] = loads;
            self.stores[n] = stores;
        }
        // Propagate the delta (not the full set) along copy edges. Nothing
        // can merge mid-loop (HCD merges all happened above, and
        // propagation itself never unions classes), so the adjacency list
        // is iterated in place. Entries that earlier collapses turned into
        // self-loops are dropped as they are encountered.
        let mut i = 0;
        while i < self.edges[n].len() {
            let raw = self.edges[n][i];
            let t = self.rep(raw);
            if t as usize == n {
                self.edges[n].remove(i);
                self.edges_pruned += 1;
                continue;
            }
            let changed = self.pts[t as usize].union_into_delta(&d, &mut self.delta[t as usize]);
            if changed {
                self.enqueue(t);
            }
            i += 1;
        }
    }

    /// Merges the classes of `a` and `b` (HCD online trigger). Returns
    /// `true` if they were distinct.
    fn union_classes(&mut self, a: u32, b: u32) -> bool {
        let ra = self.rep(a);
        let rb = self.rep(b);
        if ra == rb {
            return false;
        }
        self.merge_component(&[ra, rb]);
        true
    }

    /// The pre-difference-propagation solver: every pop re-derives edges
    /// from the node's full points-to set and re-unions the full set into
    /// every successor. Quadratic-ish re-propagation; kept as the oracle.
    fn solve_naive(&mut self) {
        while let Some(raw) = self.pop_node() {
            let n = self.rep(raw) as usize;
            self.pops += 1;
            // Derive new copy edges from loads/stores through n.
            if !self.loads[n].is_empty() || !self.stores[n].is_empty() {
                let objects: Vec<u32> = self.pts[n].iter().collect();
                let loads = self.loads[n].clone();
                let stores = self.stores[n].clone();
                for &o in &objects {
                    for &d in &loads {
                        self.add_copy(o, d);
                    }
                    for &s in &stores {
                        self.add_copy(s, o);
                    }
                }
            }
            // Propagate along copy edges.
            let targets = self.edges[n].clone();
            for d in targets {
                let d = self.rep(d);
                if d as usize == n {
                    continue;
                }
                let (src, dst) = index_two(&mut self.pts, n, d as usize);
                if dst.union_with(src) {
                    self.enqueue(d);
                }
            }
        }
    }

    /// Iterative Tarjan over the copy-edge subgraph reachable from
    /// `starts` (pass `0..n` for a full sweep); every multi-node SCC found
    /// is collapsed into its representative (cycle members provably end up
    /// with identical points-to sets, so collapsing is lossless — any node
    /// reachable from a start has its SCC fully contained in the reachable
    /// subgraph, so scoped sweeps find true SCCs too). When `order` is
    /// given, the surviving class representatives are appended in SCC
    /// completion order, i.e. reverse topological order of the condensed
    /// graph. Returns the number of components merged. Scratch arrays are
    /// generation-stamped so repeated scoped sweeps skip the O(n) reset.
    fn tarjan_collapse<I>(&mut self, starts: I, mut order: Option<&mut Vec<u32>>) -> usize
    where
        I: IntoIterator<Item = u32>,
    {
        if self.scc_mark.len() < self.pts.len() {
            let n = self.pts.len();
            self.scc_mark = vec![0; n];
            self.scc_index = vec![0; n];
            self.scc_low = vec![0; n];
            self.scc_on_stack = vec![false; n];
            self.scc_gen = 0;
        }
        if self.scc_gen == u32::MAX {
            self.scc_mark.fill(0);
            self.scc_gen = 0;
        }
        self.scc_gen += 1;
        let gen = self.scc_gen;
        let mut stack: Vec<u32> = Vec::new();
        let mut counter = 0u32;
        let mut merged = 0usize;
        let mut call: Vec<(u32, usize)> = Vec::new();
        for start in starts {
            let root = self.rep(start);
            if self.scc_mark[root as usize] == gen {
                continue;
            }
            call.push((root, 0));
            self.scc_mark[root as usize] = gen;
            self.scc_index[root as usize] = counter;
            self.scc_low[root as usize] = counter;
            counter += 1;
            stack.push(root);
            self.scc_on_stack[root as usize] = true;
            while let Some(&mut (v, ref mut ci)) = call.last_mut() {
                let next_child = self.edges[v as usize].get(*ci).copied();
                match next_child {
                    Some(w) => {
                        *ci += 1;
                        let w = self.rep(w);
                        if w == v {
                            continue;
                        }
                        if self.scc_mark[w as usize] != gen {
                            self.scc_mark[w as usize] = gen;
                            self.scc_index[w as usize] = counter;
                            self.scc_low[w as usize] = counter;
                            counter += 1;
                            stack.push(w);
                            self.scc_on_stack[w as usize] = true;
                            call.push((w, 0));
                        } else if self.scc_on_stack[w as usize] {
                            self.scc_low[v as usize] =
                                self.scc_low[v as usize].min(self.scc_index[w as usize]);
                        }
                    }
                    None => {
                        call.pop();
                        if let Some(&mut (p, _)) = call.last_mut() {
                            self.scc_low[p as usize] =
                                self.scc_low[p as usize].min(self.scc_low[v as usize]);
                        }
                        if self.scc_low[v as usize] == self.scc_index[v as usize] {
                            let mut comp = Vec::new();
                            loop {
                                let w = stack.pop().expect("tarjan stack");
                                self.scc_on_stack[w as usize] = false;
                                comp.push(w);
                                if w == v {
                                    break;
                                }
                            }
                            if comp.len() > 1 {
                                merged += 1;
                                self.merge_component(&comp);
                            }
                            if let Some(ord) = order.as_deref_mut() {
                                // comp[0] is the class representative
                                // `merge_component` keeps.
                                ord.push(comp[0]);
                            }
                        }
                    }
                }
            }
        }
        if merged > 0 {
            // Re-canonicalize pending work: clear the membership bitmap for
            // everything drained, then re-enqueue representatives (dedup'd).
            let pending: Vec<u32> = self.worklist.drain(..).collect();
            for &w in &pending {
                self.in_worklist[w as usize] = false;
            }
            for w in pending {
                let r = self.rep(w);
                self.enqueue(r);
            }
        }
        merged
    }

    fn merge_component(&mut self, comp: &[u32]) {
        let root = comp[0];
        for &other in &comp[1..] {
            self.parent[other as usize] = root;
            let pts = std::mem::take(&mut self.pts[other as usize]);
            self.pts[root as usize].union_with(&pts);
            // Deltas of absorbed members are subsumed by the full-set
            // re-propagation below; drop them.
            let _ = std::mem::take(&mut self.delta[other as usize]);
            let edges = std::mem::take(&mut self.edges[other as usize]);
            for e in edges {
                match self.edges[root as usize].binary_search(&e) {
                    Ok(_) => self.edges_pruned += 1,
                    Err(pos) => self.edges[root as usize].insert(pos, e),
                }
            }
            let loads = std::mem::take(&mut self.loads[other as usize]);
            self.loads[root as usize].extend(loads);
            let stores = std::mem::take(&mut self.stores[other as usize]);
            self.stores[root as usize].extend(stores);
            if !self.hcd.is_empty() {
                let hcd = std::mem::take(&mut self.hcd[other as usize]);
                if !hcd.is_empty() {
                    self.hcd[root as usize].extend(hcd);
                    self.hcd[root as usize].sort_unstable();
                    self.hcd[root as usize].dedup();
                }
            }
        }
        // The merged class gained members, edges, loads and stores; the
        // cheapest sound refresh is to treat its whole set as newly arrived
        // and let one pop re-run everything through it. Only the
        // difference solver merges, so the delta is always live here.
        self.delta[root as usize] = self.pts[root as usize].clone();
        self.enqueue(root);
    }

    /// Canonicalizes the union-find into the result's class table. The
    /// points-to sets are *moved*, not expanded: every set stays at its
    /// class representative's slot and the result's accessors resolve
    /// variables through the class table, so finishing costs O(n) however
    /// large the collapsed classes or their shared sets are (the old
    /// expansion cloned one set per class member).
    fn into_result(mut self) -> AndersenResult {
        let n = self.pts.len();
        let mut class = vec![0u32; n];
        for v in 0..n as u32 {
            class[v as usize] = self.rep(v);
        }
        AndersenResult {
            pts: self.pts,
            class,
        }
    }
}

/// Mutable access to two distinct indices of a slice.
fn index_two<T>(v: &mut [T], a: usize, b: usize) -> (&T, &mut T) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootstrap_ir::parse_program;

    fn an(src: &str) -> (Program, AndersenResult) {
        let p = parse_program(src).unwrap();
        let r = analyze(&p);
        (p, r)
    }

    fn pts_names(p: &Program, r: &AndersenResult, v: &str) -> Vec<String> {
        r.points_to_vars(p.var_named(v).unwrap())
            .into_iter()
            .map(|x| p.var(x).name().to_string())
            .collect()
    }

    #[test]
    fn figure2_directional_precision() {
        // Figure 2: p=&a; q=&b; r=&c; q=p; q=r.
        let (p, r) = an("int a; int b; int c; int *p; int *q; int *r;
             void main() { p = &a; q = &b; r = &c; q = p; q = r; }");
        assert_eq!(pts_names(&p, &r, "p"), vec!["a"]);
        assert_eq!(pts_names(&p, &r, "r"), vec!["c"]);
        assert_eq!(pts_names(&p, &r, "q"), vec!["a", "b", "c"]);
    }

    #[test]
    fn figure2_clusters_smaller_than_partition() {
        let (p, r) = an("int a; int b; int c; int *p; int *q; int *r;
             void main() { p = &a; q = &b; r = &c; q = p; q = r; }");
        let pointers: Vec<VarId> = ["p", "q", "r"]
            .iter()
            .map(|n| p.var_named(n).unwrap())
            .collect();
        let clusters = r.clusters(&pointers);
        // Clusters: {p,q} (via a), {q} (via b), {q,r} (via c).
        assert_eq!(clusters.len(), 3);
        let max = clusters.iter().map(|c| c.members.len()).max().unwrap();
        assert_eq!(
            max, 2,
            "largest Andersen cluster is smaller than the Steensgaard partition of size 3"
        );
    }

    #[test]
    fn load_store_through_pointer() {
        let (p, r) = an("int a; int b; int *x; int *y; int **z;
             void main() { x = &a; z = &x; *z = &b; y = *z; }");
        assert_eq!(pts_names(&p, &r, "x"), vec!["a", "b"]);
        assert_eq!(pts_names(&p, &r, "y"), vec!["a", "b"]);
        assert_eq!(pts_names(&p, &r, "z"), vec!["x"]);
    }

    #[test]
    fn may_alias_via_intersection() {
        let (p, r) = an("int a; int b; int *x; int *y; int *w;
             void main() { x = &a; y = &a; w = &b; }");
        let v = |n: &str| p.var_named(n).unwrap();
        assert!(r.may_alias(v("x"), v("y")));
        assert!(!r.may_alias(v("x"), v("w")));
    }

    #[test]
    fn empty_pointers_get_singleton_clusters() {
        let (p, r) = an("int *never; void main() { }");
        let never = p.var_named("never").unwrap();
        let clusters = r.clusters(&[never]);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].object, None);
        assert_eq!(clusters[0].members, vec![never]);
    }

    #[test]
    fn interprocedural_flow_via_param_binding() {
        let (p, r) = an("int a; int *g;
             int *id(int *q) { return q; }
             void main() { g = id(&a); }");
        assert_eq!(pts_names(&p, &r, "g"), vec!["a"]);
        assert_eq!(pts_names(&p, &r, "id::q"), vec!["a"]);
    }

    #[test]
    fn heap_objects_distinguished_by_site() {
        let (p, r) = an("int *x; int *y;
             void main() { x = malloc(4); y = malloc(4); }");
        let v = |n: &str| p.var_named(n).unwrap();
        assert!(!r.may_alias(v("x"), v("y")), "distinct alloc sites");
        assert_eq!(r.points_to(v("x")).len(), 1);
    }

    #[test]
    fn restricted_analysis_sees_only_given_stmts() {
        let p = parse_program(
            "int a; int b; int *x; int *y;
             void main() { x = &a; y = &b; }",
        )
        .unwrap();
        let f = p.func(p.func_named("main").unwrap());
        // Only the first real statement (x = &a).
        let stmts: Vec<&Stmt> = f
            .body()
            .iter()
            .filter(|s| matches!(s, Stmt::AddrOf { dst, .. } if *dst == p.var_named("x").unwrap()))
            .collect();
        let r = analyze_stmts(p.var_count(), stmts);
        assert_eq!(r.points_to(p.var_named("x").unwrap()).len(), 1);
        assert!(r.points_to(p.var_named("y").unwrap()).is_empty());
    }

    #[test]
    fn cyclic_points_to_terminates() {
        let (_, r) = an("int **p; int *q; void main() { p = &q; q = (p); *p = q; }");
        // Just ensure the solver converges; q in pts(p).
        assert!(r.var_count() > 0);
    }

    #[test]
    fn fp_targets() {
        let (p, r) = an("void f() { } void g() { }
             void (*fp)(); void (*fq)();
             void main() { fp = &f; fq = &g; fp = fq; }");
        let fp = p.var_named("fp").unwrap();
        let fq = p.var_named("fq").unwrap();
        assert_eq!(r.fp_targets(&p, fp).len(), 2);
        assert_eq!(r.fp_targets(&p, fq).len(), 1);
    }
}

#[cfg(test)]
mod worklist_tests {
    use super::*;
    use bootstrap_ir::VarId;

    /// Diamond copy graph a -> {b, c} -> d, with k objects seeded into a.
    /// With the in-worklist bitmap and difference propagation each node is
    /// processed a small constant number of times, so the pop count must
    /// stay bounded by the graph size — not grow with duplicate enqueues
    /// of d (reached twice) or with k.
    #[test]
    fn diamond_pop_count_is_bounded() {
        const K: usize = 40;
        // Vars 0..4 are the diamond (a, b, c, d); 4.. are address-taken objects.
        let n_vars = 4 + K;
        let v = |i: usize| VarId::new(i);
        let mut stmts: Vec<Stmt> = Vec::new();
        for o in 0..K {
            stmts.push(Stmt::AddrOf {
                dst: v(0),
                obj: v(4 + o),
            });
        }
        stmts.push(Stmt::Copy {
            dst: v(1),
            src: v(0),
        });
        stmts.push(Stmt::Copy {
            dst: v(2),
            src: v(0),
        });
        stmts.push(Stmt::Copy {
            dst: v(3),
            src: v(1),
        });
        stmts.push(Stmt::Copy {
            dst: v(3),
            src: v(2),
        });
        let (result, stats) =
            analyze_stmts_with_stats(n_vars, stmts.iter(), SolverOptions::default());
        for node in 0..4 {
            assert_eq!(result.points_to(v(node)).len(), K, "node {node}");
        }
        // One productive pop per node plus the second (empty-delta-free)
        // arrival at d; anything near K pops means dedup is broken.
        assert!(
            stats.pops <= 2 * 4,
            "expected bounded pops on a diamond, got {}",
            stats.pops
        );
    }

    /// Duplicate copy edges are detected (sorted + binary search) and do
    /// not double-propagate or grow the edge count.
    #[test]
    fn duplicate_edges_are_deduplicated() {
        let v = |i: usize| VarId::new(i);
        let mut stmts: Vec<Stmt> = Vec::new();
        stmts.push(Stmt::AddrOf {
            dst: v(0),
            obj: v(2),
        });
        for _ in 0..10 {
            stmts.push(Stmt::Copy {
                dst: v(1),
                src: v(0),
            });
        }
        let (result, stats) = analyze_stmts_with_stats(3, stmts.iter(), SolverOptions::default());
        assert_eq!(result.points_to(v(1)).len(), 1);
        assert_eq!(stats.edges, 1, "duplicate copy edges must collapse to one");
    }
}

#[cfg(test)]
mod cycle_tests {
    use super::*;
    use bootstrap_ir::parse_program;

    /// Solves `p` adaptively and eagerly and checks both against the
    /// naive oracle, variable by variable; returns the eager result.
    fn agrees_with_oracle(p: &Program) -> AndersenResult {
        let oracle = analyze_with(p, SolverOptions::naive_oracle());
        let adaptive = analyze_with(p, SolverOptions::default());
        let eager = analyze_with(
            p,
            SolverOptions {
                eager_cycles: true,
                ..Default::default()
            },
        );
        for v in p.var_ids() {
            let want = oracle.points_to_vars(v);
            let name = p.var(v).name();
            assert_eq!(adaptive.points_to_vars(v), want, "adaptive, {name}");
            assert_eq!(eager.points_to_vars(v), want, "eager, {name}");
        }
        eager
    }

    #[test]
    fn copy_cycle_members_share_points_to_sets() {
        // p -> q -> r -> p is a copy cycle seeded from two sides.
        let p = parse_program(
            "int a; int b; int *p; int *q; int *r;
             void main() { p = &a; r = &b; q = p; r = q; p = r; }",
        )
        .unwrap();
        let collapsed = agrees_with_oracle(&p);
        let v = |n: &str| p.var_named(n).unwrap();
        assert_eq!(collapsed.points_to(v("p")).len(), 2);
        assert_eq!(collapsed.points_to(v("q")).len(), 2);
        assert_eq!(collapsed.points_to(v("r")).len(), 2);
        assert!(
            collapsed
                .merged_groups()
                .iter()
                .any(|g| [v("p"), v("q"), v("r")].iter().all(|x| g.contains(x))),
            "the eager solver collapses the copy cycle"
        );
    }

    #[test]
    fn collapse_is_equivalent_on_load_store_programs() {
        let p = parse_program(
            "int a; int b; int *x; int *y; int **z; int **w;
             void main() { x = &a; z = &x; w = z; z = w; *z = &b; y = *w; }",
        )
        .unwrap();
        agrees_with_oracle(&p);
    }
}
