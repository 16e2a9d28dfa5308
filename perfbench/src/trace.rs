//! Span recording around the benchmark's calls into each layer.
//!
//! A span is a layer name, a start and an end, the operation it belongs
//! to and the span that caused it. Spans stay in memory and are written
//! out once, when the run ends. When tracing is off nothing is recorded
//! and no clock is read.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An open span, closed by [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// The span log and per-layer counters of one run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    traced_ops: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            op: 0,
            traced_ops: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Switches recording on or off from the next operation on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts the next operation; its spans share its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
        if self.on {
            self.traced_ops += 1;
        }
    }

    /// Operations begun while tracing was on.
    pub fn traced_ops(&self) -> u64 {
        self.traced_ops
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close in reverse order");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Adds `n` to the counter `name` (only while tracing).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Keeps the largest value seen for the counter `name`.
    pub fn max(&mut self, name: &'static str, n: u64) {
        if self.on {
            let slot = self.counts.entry(name).or_insert(0);
            *slot = (*slot).max(n);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Total busy seconds of every span named `name` (inclusive of the
    /// spans it caused).
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Busy microseconds of `name` per traced operation.
    pub fn busy_us_per_op(&self, name: &str) -> f64 {
        if self.traced_ops == 0 {
            return 0.0;
        }
        self.busy_s(name) * 1e6 / self.traced_ops as f64
    }

    /// The span log as tab-separated lines: id, parent, op, name, start
    /// and end in nanoseconds since the run began, and self time (the
    /// span's duration minus what its child spans cover).
    pub fn render(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
