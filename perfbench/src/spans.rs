//! In-memory spans recorded around the benchmark's own calls into the
//! workspace crates.
//!
//! A span has a name (`<layer>.<call>`), start and end in nanoseconds
//! since the recorder's origin, a parent and an op id. Spans stay in
//! memory while the run measures and are written out when it ends. A
//! layer's self time is its spans' durations minus the part their child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Op id of a replay span: a layer call the benchmark repeats outside
/// the measured ops to attribute their time.
pub const REPLAY: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Op the span belongs to, or [`REPLAY`].
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled recorder records nothing and reads no
/// clock, so untraced runs pay only a branch.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool, origin: Instant) -> Spans {
        Spans {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span `name` of op `op`, nested under the span
    /// currently open.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a finished span named after the fact (e.g. by the call's
    /// result), nested under the span currently open.
    pub fn push(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this recorder (same origin assumed),
    /// re-basing parent indices.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration (ns) and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + s.dur_ns(), n + 1))
    }

    /// Mean duration of the spans named `name`, in ms (0 when none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (t, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            t as f64 / n as f64 / 1e6
        }
    }

    /// Self time per span name, ns: duration minus the children's.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// The spans as a JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + header.len() + 32);
        let _ = write!(out, "{{\"host\": {header}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == REPLAY {
                "\"replay\"".to_string()
            } else {
                s.op.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {op}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true, Instant::now());
        spans.time("outer", 0, |s| {
            s.time("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let self_ns = spans.self_ns();
        let (outer, _) = spans.total("outer");
        let (inner, _) = spans.total("inner");
        assert_eq!(self_ns["outer"] + self_ns["inner"], outer);
        assert_eq!(self_ns["inner"], inner);
        assert_eq!(spans.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false, Instant::now());
        assert_eq!(spans.time("x", 0, |_| 7), 7);
        assert!(spans.spans().is_empty());
    }
}
