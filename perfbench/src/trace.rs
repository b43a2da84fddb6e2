//! Spans recorded by the benchmark around its calls into each layer,
//! and the order statistics the report is made of.
//!
//! A span has a name, a parent, a start and an end. Spans of one
//! operation live in one [`Trace`], kept in memory until the operation
//! ends. A layer's self time is its span's duration minus the durations
//! of its children; children never overlap, because every traced chain
//! runs on one thread. An extra span holds work the traced chain does
//! but the plain operation does not: it is reported, but it is not part
//! of the operation's traced total.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    extra: bool,
    start: Instant,
    dur: Option<Duration>,
}

/// The spans of one traced operation.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Opens a root span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        self.spans.push(Span {
            name,
            parent: None,
            extra: false,
            start: Instant::now(),
            dur: None,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let span = &mut self.spans[id];
        span.dur = Some(span.start.elapsed());
    }

    /// Runs `f` inside a root span of its own.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` inside an extra root span: work the plain operation does
    /// not do, kept out of [`Trace::total_s`].
    pub fn time_extra<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        self.spans[id].extra = true;
        let out = f();
        self.close(id);
        out
    }

    /// A child span whose duration a layer's public timer reported (its
    /// start is not known, only that it lies inside `parent`).
    pub fn reported(&mut self, name: &'static str, parent: usize, dur: Duration) {
        self.spans.push(Span {
            name,
            parent: Some(parent),
            extra: self.spans[parent].extra,
            start: self.spans[parent].start,
            dur: Some(dur),
        });
    }

    fn dur(&self, id: usize) -> Duration {
        self.spans[id].dur.expect("every span is closed")
    }

    /// The traced operation's end-to-end seconds: its root spans, extra
    /// spans excluded.
    pub fn total_s(&self) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && !s.extra)
            .map(|(i, _)| self.dur(i).as_secs_f64())
            .sum()
    }

    /// Self seconds per layer name (spans of one name are summed), for
    /// the spans that are (`extra == false`) or are not part of the
    /// operation.
    pub fn self_times(&self, extra: bool) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = (0..self.spans.len())
            .map(|i| self.dur(i).as_secs_f64())
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= self.dur(i).as_secs_f64();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.extra == extra {
                *out.entry(s.name).or_insert(0.0) += own[i];
            }
        }
        out
    }
}

/// Nearest-rank percentile of `values` (`q` in `0..=1`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}
