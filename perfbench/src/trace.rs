//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it; spans
/// of one request share `request`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record `[start, end)` and return its index, for children.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: self.ns(end).max(start_ns),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Each span's self time: its duration minus the part of it that
    /// its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.clamp(reach, s.end_ns), b.clamp(reach, s.end_ns));
                    covered += b - a;
                    reach = reach.max(b);
                }
                s.end_ns - s.start_ns - covered
            })
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            by_name.entry(s.name).or_default().push(t);
        }
        by_name
    }

    /// JSON lines: `header` first, then one object per span.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut trace = Trace::new(t0);
        let root = trace.record("root", at(0), at(10), None, 1);
        trace.record("a", at(1), at(4), Some(root), 1);
        trace.record("b", at(3), at(6), Some(root), 1);
        let leaf = trace.record("c", at(8), at(12), Some(root), 1);
        trace.record("d", at(9), at(10), Some(leaf), 1);
        let ms = |ns: u64| ns / 1_000_000;
        let times: Vec<u64> = trace.self_times().into_iter().map(ms).collect();
        // root: 10 − [1,6) − [8,10) = 3; c: 4 − 1 = 3.
        assert_eq!(times, [3, 3, 3, 3, 1]);
        let jsonl = trace.to_jsonl("{}");
        assert_eq!(jsonl.lines().count(), 6);
        assert!(jsonl.contains("\"name\":\"d\",\"start_ns\":9000000"));
    }
}
