//! Spans around every call the benchmark makes into a layer.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! live in memory until the run ends and are written out once. They are
//! recorded from the benchmark's side of each call, so a span's self time
//! is the time the callee spent outside the benchmark's nested calls — not
//! a profile of the program's internals.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// Per-name totals over every closed span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the parts their children cover.
    pub self_ns: u64,
}

/// A thread-safe, in-memory span recorder.
pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so nested calls can name it as their parent.
    pub fn time<T>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce(SpanId) -> T) -> T {
        let id = {
            let start_ns = self.now_ns();
            let mut spans = self.lock();
            spans.push(Span {
                name: name.to_string(),
                parent,
                start_ns,
                end_ns: None,
            });
            spans.len() - 1
        };
        let value = f(id);
        let end = self.now_ns();
        self.lock()[id].end_ns = Some(end);
        value
    }

    /// Totals per span name. Children that ran in parallel can cover more
    /// than their parent's duration; self time is then clamped at zero.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let spans = self.lock();
        let dur = |s: &Span| s.end_ns.map_or(0, |e| e - s.start_ns);
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += dur(s);
            t.self_ns += dur(s).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Every span as a JSON array of `{id, name, parent, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let spans = self.lock();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end_ns.map_or("null".to_string(), |e| e.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {end}}}{sep}",
                crate::json::string(&s.name),
                s.start_ns
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::default();
        spans.time("outer", None, |id| {
            spans.time("inner", Some(id), |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let t = spans.totals();
        let outer = t["outer"];
        let inner = t["inner"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 5_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(spans.to_json().contains("\"parent\": 0"));
    }
}
