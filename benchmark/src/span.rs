//! In-memory span recorder owned by the benchmark.
//!
//! Every host time the benchmark reports is the duration of a span
//! opened round one call into a layer. With the recorder off (`run`)
//! a span is just a pair of clock reads; with it on (`trace`) each span
//! is also kept — name, start, end, the span that was open when it
//! started, the program it worked on — and written once, at exit, as
//! chrome-trace JSON. No file outside `benchmark/` is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub program: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; closing it yields its duration.
pub struct Open {
    started: Instant,
    index: Option<usize>,
}

pub struct Recorder {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, program: &str) -> Open {
        let started = Instant::now();
        let index = self.on.then(|| {
            self.spans.push(Span {
                name,
                program: program.to_owned(),
                start_ns: (started - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, index }
    }

    /// Closes `open` (spans close in the reverse of the order they were
    /// opened) and returns its duration in nanoseconds.
    pub fn close(&mut self, open: Open) -> u64 {
        let ns = open.started.elapsed().as_nanos() as u64;
        if let Some(i) = open.index {
            assert_eq!(self.stack.pop(), Some(i), "spans must nest");
            self.spans[i].end_ns = self.spans[i].start_ns + ns;
        }
        ns
    }

    /// Runs `f` inside a span and returns its result and duration (ns).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        program: &str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let open = self.open(name, program);
        let out = f();
        (out, self.close(open))
    }

    /// Durations (ns) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Per span name: calls, total and self time. Self time is the
    /// span's duration minus that of the spans opened directly inside
    /// it, so the self times of all spans sum to the root's duration.
    pub fn summary(&self) -> BTreeMap<&'static str, NameSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.durs.push(s.dur_ns());
            e.self_ns += s.dur_ns().saturating_sub(kids);
        }
        for e in out.values_mut() {
            e.durs.sort_unstable();
        }
        out
    }

    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{workload}\",\"program\":\"{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.program,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[derive(Default)]
pub struct NameSummary {
    /// Sorted durations (ns).
    pub durs: Vec<u64>,
    pub self_ns: u64,
}

impl NameSummary {
    pub fn total_ns(&self) -> u64 {
        self.durs.iter().sum()
    }
}

/// Nearest-rank percentile of sorted values (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest of p90 / p99 / p99.9 that still has at least ten samples
/// beyond it, or `None` under 100 samples.
pub fn high_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut r = Recorder::new(true);
        let root = r.open("root", "");
        for _ in 0..3 {
            let a = r.open("a", "p");
            r.time("b", "p", || std::hint::black_box((0..1000).sum::<u64>()));
            r.close(a);
        }
        let wall = r.close(root);
        let sum: u64 = r.summary().values().map(|s| s.self_ns).sum();
        assert_eq!(sum, wall);
        assert_eq!(r.spans[2].parent, Some(1));
        assert!(r.chrome_trace("w").contains("\"name\":\"b\""));
    }

    #[test]
    fn off_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let (v, _) = r.time("x", "", || 5);
        assert_eq!(v, 5);
        assert!(r.spans.is_empty());
    }

    #[test]
    fn percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(high_percentile(1000), Some(99.0));
        assert_eq!(high_percentile(150), Some(90.0));
        assert_eq!(high_percentile(50), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
