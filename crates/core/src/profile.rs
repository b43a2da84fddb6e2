//! Per-phase profiling for the cascade (Table 1's cost columns, live).
//!
//! A [`PhaseProfile`] lives on the session and accumulates wall time, engine
//! steps, and invocation counts for the four cascade phases: Steensgaard
//! partitioning, the Andersen (clustering) refinement, relevant-statement
//! slicing (Algorithm 1, engine construction), and the FSCS summarization
//! itself. All counters are atomics so parallel LPT workers record into the
//! shared profile without locking; snapshots are monotonic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The cascade phases the profile distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Steensgaard's unification analysis + initial partitioning.
    Steensgaard,
    /// The bootstrapped Andersen refinement of oversized partitions.
    Andersen,
    /// Relevant-statement slicing and engine setup (Algorithm 1).
    Relevant,
    /// The flow- and context-sensitive summarization and queries
    /// (Algorithms 2–5).
    Fscs,
}

impl Phase {
    /// All phases, in cascade order.
    pub const ALL: [Phase; 4] = [
        Phase::Steensgaard,
        Phase::Andersen,
        Phase::Relevant,
        Phase::Fscs,
    ];

    /// The phase's stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Steensgaard => "steensgaard",
            Phase::Andersen => "andersen",
            Phase::Relevant => "relevant",
            Phase::Fscs => "fscs",
        }
    }
}

/// A snapshot of one phase's accumulated counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Total wall-clock time spent in the phase.
    pub wall: Duration,
    /// Engine steps performed in the phase (zero for phases that do not
    /// run the walk).
    pub steps: u64,
    /// Number of recorded work units (cluster runs, queries, cascade
    /// stages).
    pub invocations: u64,
}

#[derive(Default)]
struct PhaseAccum {
    nanos: AtomicU64,
    steps: AtomicU64,
    invocations: AtomicU64,
}

impl PhaseAccum {
    fn record(&self, wall: Duration, steps: u64) {
        self.nanos
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        self.steps.fetch_add(steps, Ordering::Relaxed);
        self.invocations.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> PhaseStats {
        PhaseStats {
            wall: Duration::from_nanos(self.nanos.load(Ordering::Relaxed)),
            steps: self.steps.load(Ordering::Relaxed),
            invocations: self.invocations.load(Ordering::Relaxed),
        }
    }
}

/// Thread-safe accumulator of per-phase counters.
#[derive(Default)]
pub struct PhaseProfile {
    steensgaard: PhaseAccum,
    andersen: PhaseAccum,
    relevant: PhaseAccum,
    fscs: PhaseAccum,
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    fn accum(&self, phase: Phase) -> &PhaseAccum {
        match phase {
            Phase::Steensgaard => &self.steensgaard,
            Phase::Andersen => &self.andersen,
            Phase::Relevant => &self.relevant,
            Phase::Fscs => &self.fscs,
        }
    }

    /// Adds one work unit's wall time and steps to `phase`.
    pub fn record(&self, phase: Phase, wall: Duration, steps: u64) {
        self.accum(phase).record(wall, steps);
    }

    /// The accumulated counters of `phase`.
    pub fn get(&self, phase: Phase) -> PhaseStats {
        self.accum(phase).snapshot()
    }

    /// A snapshot of every phase, in cascade order.
    pub fn snapshot(&self) -> PhaseSnapshot {
        PhaseSnapshot {
            steensgaard: self.steensgaard.snapshot(),
            andersen: self.andersen.snapshot(),
            relevant: self.relevant.snapshot(),
            fscs: self.fscs.snapshot(),
        }
    }
}

/// Snapshot of every phase's counters (see [`crate::Session::phase_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Steensgaard partitioning.
    pub steensgaard: PhaseStats,
    /// Andersen refinement.
    pub andersen: PhaseStats,
    /// Relevant-statement slicing and engine setup.
    pub relevant: PhaseStats,
    /// FSCS summarization and queries.
    pub fscs: PhaseStats,
}

impl PhaseSnapshot {
    /// Iterates phases with their stats, in cascade order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, PhaseStats)> {
        [
            (Phase::Steensgaard, self.steensgaard),
            (Phase::Andersen, self.andersen),
            (Phase::Relevant, self.relevant),
            (Phase::Fscs, self.fscs),
        ]
        .into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_phase() {
        let p = PhaseProfile::new();
        p.record(Phase::Fscs, Duration::from_millis(2), 10);
        p.record(Phase::Fscs, Duration::from_millis(3), 5);
        p.record(Phase::Relevant, Duration::from_millis(1), 0);
        let snap = p.snapshot();
        assert_eq!(snap.fscs.wall, Duration::from_millis(5));
        assert_eq!(snap.fscs.steps, 15);
        assert_eq!(snap.fscs.invocations, 2);
        assert_eq!(snap.relevant.invocations, 1);
        assert_eq!(snap.steensgaard, PhaseStats::default());
        assert_eq!(snap.iter().count(), 4);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let p = PhaseProfile::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = &p;
                scope.spawn(move || {
                    for _ in 0..100 {
                        p.record(Phase::Fscs, Duration::from_nanos(10), 1);
                    }
                });
            }
        });
        let snap = p.get(Phase::Fscs);
        assert_eq!(snap.steps, 400);
        assert_eq!(snap.invocations, 400);
        assert_eq!(snap.wall, Duration::from_nanos(4000));
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["steensgaard", "andersen", "relevant", "fscs"]);
    }
}
