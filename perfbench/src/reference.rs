//! A fixed reference workload, independent of the code under test, timed
//! around every sample so that the benchmark can report its times at one
//! nominal machine speed.
//!
//! On a shared machine the same code runs at different speeds from one
//! second to the next, in phases that last from seconds to minutes, and
//! the level drifts over hours with the neighbours' load. Thread CPU time
//! drifts with wall time, so the slowdown is in the cores, not in
//! scheduling, and it does not hit all code alike: a dependent-load chase
//! through DRAM and a register-only arithmetic chain keep their speed,
//! while code that allocates, merges small vectors and walks a few
//! megabytes of heap (what the analysis does) slows down by up to 1.6x.
//! So the reference is a small inclusion-constraint solver of that kind:
//! a worklist propagates points-to sets, kept as sorted vectors, along
//! the copy edges of a fixed random graph. It is built from `std` only,
//! so no change to the repository's crates makes it faster or slower.
//!
//! [`Reference::run`] runs one solver on each of the machine's threads at
//! once, because the analysis's work lands on any of them (summarization
//! and the daemon use all of them), and returns the harmonic mean of
//! their times, the time at the threads' mean speed.

use std::hint::black_box;
use std::time::Instant;

use crate::gen::Rng;

/// The reference's time on the machine the benchmark was tuned on (two
/// 2.1 GHz Xeon vCPUs), in a fast phase: at this speed a normalized time
/// equals the wall time.
pub const NOMINAL_S: f64 = 0.0025;

/// Nodes of the constraint graph.
const NODES: usize = 10_000;
/// Every `SEEDED`-th node starts with one abstract object.
const SEEDED: usize = 10;
/// Distinct abstract objects.
const OBJECTS: usize = 8;

pub struct Reference {
    /// Copy edges: `edges[v]` receives everything `v` points to.
    edges: Vec<Vec<u32>>,
    threads: usize,
}

impl Reference {
    pub fn new(threads: usize) -> Reference {
        let mut rng = Rng::new(0x5eed);
        let edges = (0..NODES)
            .map(|v| {
                let fanout = if v % 7 == 0 { 3 } else { 1 };
                (0..fanout)
                    .map(|_| {
                        let w = if rng.below(4) == 0 {
                            rng.below(NODES)
                        } else {
                            v + 1 + rng.below(50)
                        };
                        (w % NODES) as u32
                    })
                    .collect()
            })
            .collect();
        Reference { edges, threads }
    }

    /// One solve on the calling thread; returns its seconds.
    fn solve(&self) -> f64 {
        let t = Instant::now();
        let mut pts: Vec<Vec<u32>> = (0..NODES)
            .map(|v| {
                if v % SEEDED == 0 {
                    vec![(v / SEEDED % OBJECTS) as u32]
                } else {
                    Vec::new()
                }
            })
            .collect();
        let mut queued: Vec<bool> = (0..NODES).map(|v| v % SEEDED == 0).collect();
        let mut work: Vec<u32> = (0..NODES as u32).filter(|&v| queued[v as usize]).collect();
        while let Some(v) = work.pop() {
            queued[v as usize] = false;
            let src = pts[v as usize].clone();
            for &w in &self.edges[v as usize] {
                let dst = &mut pts[w as usize];
                let merged = merge(dst, &src);
                if merged.len() != dst.len() {
                    *dst = merged;
                    if !queued[w as usize] {
                        queued[w as usize] = true;
                        work.push(w);
                    }
                }
            }
        }
        black_box(&pts);
        t.elapsed().as_secs_f64()
    }

    /// One solve on every thread at once; the harmonic mean of their
    /// seconds.
    pub fn run(&self) -> f64 {
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| s.spawn(|| self.solve()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread"))
                .collect()
        });
        times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
    }
}

/// The union of two sorted, duplicate-free vectors.
fn merge(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}
