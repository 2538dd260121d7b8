//! In-memory spans recorded around calls into each layer, written at the
//! end as a Chrome `trace_event` document (the format `PipelineTrace`
//! exports: `ph:"X"` duration events in microseconds under `traceEvents`).

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `runtime.submit`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Request the call served, when it served one.
    pub req: Option<u64>,
    /// Timeline row (thread) the call ran on.
    pub tid: u32,
}

/// Append-only span log with a shared epoch.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds from the epoch to now.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index (to parent later spans).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span that ends when [`SpanLog::close`] is called.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: Option<u64>,
        tid: u32,
    ) -> usize {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
            tid,
        })
    }

    /// Close a span opened with [`SpanLog::open`].
    pub fn close(&mut self, idx: usize) {
        let now = self.now_ns();
        self.spans[idx].end_ns = now;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the part of it that its
    /// child spans cover (overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per span name, sorted by name.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let mut out: std::collections::BTreeMap<&'static str, (u64, usize)> = Default::default();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += t;
            e.1 += 1;
        }
        out.into_iter().map(|(k, (t, n))| (k, t, n)).collect()
    }

    /// The log as a Chrome `trace_event` JSON document.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let us = |ns: u64| ns as f64 / 1e3;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{i},\"parent\":{},\"req\":{}}}}}",
                s.name,
                s.tid,
                us(s.start_ns),
                us(s.end_ns - s.start_ns),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req.map_or("null".to_string(), |r| r.to_string()),
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: None,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push(span("root", 0, 100, None));
        log.push(span("a", 10, 40, Some(root)));
        log.push(span("b", 30, 50, Some(root))); // overlaps a by 10
        log.push(span("c", 90, 120, Some(root))); // sticks out of the root
        assert_eq!(log.self_times_ns(), vec![100 - 40 - 10, 30, 20, 30]);
        let by_name = log.self_time_by_name();
        assert_eq!(by_name[0], ("a", 30, 1));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.open("root", None, None, 0);
        log.push(span("child", 1, 2, Some(root)));
        log.spans[1].req = Some(7);
        log.close(root);
        let doc: serde_json::Value =
            serde_json::from_str(&log.to_chrome_trace()).expect("valid JSON");
        let text = doc.to_string();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"req\":7"));
    }
}
