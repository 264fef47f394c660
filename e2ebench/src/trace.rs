//! In-memory spans recorded by the benchmark around its calls into
//! each layer, and counter deltas read from the program's obs registry.
//!
//! A span's self time is its duration minus its direct children's, so
//! the self times of every span under one root add up to the root's
//! duration exactly; the root's own self time is the `unattributed`
//! remainder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder. When off, every call is a no-op apart from
/// running the wrapped closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records only if `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span that later spans nest under until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if self.on {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if self.on {
            let index = self.open.pop().expect("close matches an open");
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Per span name: (self time ns summed, span count).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += span.end_ns - span.start_ns - children;
            entry.1 += 1;
        }
        out
    }

    /// Durations in ns of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Total duration of the root spans, in ns.
    pub fn root_total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Every span as one JSON line `{"name","parent","start_ns","dur_ns"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns - span.start_ns
            );
        }
        out
    }
}

/// A snapshot of obs counters, for deltas around a stretch of work.
#[derive(Debug, Clone)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    /// Reads `names` from the process-wide obs registry (absent = 0).
    pub fn read(names: &[&'static str]) -> Self {
        let registry = coldtall_obs::global();
        Self(
            names
                .iter()
                .map(|&n| (n, registry.counter_value(n).unwrap_or(0)))
                .collect(),
        )
    }

    /// How far `name` moved since `earlier`.
    pub fn delta(&self, earlier: &Self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0) - earlier.0.get(name).copied().unwrap_or(0)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        for _ in 0..3 {
            t.open("root");
            t.time("a", || std::hint::black_box((0..1000).sum::<u64>()));
            t.open("b");
            t.time("c", || std::hint::black_box((0..1000).sum::<u64>()));
            t.close();
            t.close();
        }
        let total: u64 = t.self_times().values().map(|&(ns, _)| ns).sum();
        assert_eq!(total, t.root_total_ns());
        assert_eq!(t.self_times()["c"].1, 3);
        assert_eq!(t.to_jsonl().lines().count(), 12);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("root");
        assert_eq!(t.time("a", || 7), 7);
        t.close();
        assert!(t.self_times().is_empty());
    }
}
