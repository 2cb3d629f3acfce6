//! In-memory span recorder for the traced run.
//!
//! A span brackets one call from the benchmark into a public function of
//! a layer: name, start, end, the enclosing span, and the cell it ran
//! for. Spans stay in memory and are written out once, at exit. A
//! disabled recorder makes every call a no-op, so untraced repetitions
//! pay nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span (times in nanoseconds since the recorder's epoch).
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub cell: usize,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { on: false, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Turn recording on or off (between repetitions only).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle spans only between repetitions");
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span; returns its index when recording.
    pub fn begin(&mut self, name: &'static str, cell: usize) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let idx = self.spans.len();
        self.spans.push(Span { name, start, end: start, parent: self.stack.last().copied(), cell });
        self.stack.push(idx);
        Some(idx)
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("end without begin");
        self.spans[idx].end = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, cell: usize, f: impl FnOnce() -> R) -> R {
        self.begin(name, cell);
        let r = f();
        self.end();
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn dur(&self, i: usize) -> u64 {
        self.spans[i].end - self.spans[i].start
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = (0..self.spans.len()).map(|i| self.dur(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(self.dur(i));
            }
        }
        own
    }

    /// Self time per span name over the subtree rooted at `root`.
    pub fn subtree_self(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let own = self.self_times();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(root) {
            if self.in_subtree(i, root) {
                *out.entry(s.name).or_insert(0) += own[i];
            }
        }
        out
    }

    fn in_subtree(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) if p >= root => i = p,
                _ => return false,
            }
        }
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self, cell_labels: &[String]) -> String {
        let own = self.self_times();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {}, \"cell\": \"{}\"}}",
                s.name,
                s.start,
                s.end,
                own[i],
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                cell_labels.get(s.cell).map_or("", String::as_str),
            );
        }
        out
    }
}
