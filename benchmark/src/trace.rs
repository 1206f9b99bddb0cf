//! Span recorder of the traced run.
//!
//! The harness wraps every call it makes into a layer in a span (name,
//! start, end, the span that caused it, the operation it belongs to, the
//! workload) and records the amount of work done at the same boundary.
//! Spans stay in memory and are written as JSON lines when the run ends.
//! With tracing off `span` is one branch around the call, so the untraced
//! run measures the program, not the recorder.

use std::io::Write;
use std::time::Instant;

use crate::json::quote;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based; 0 is "no span".
    pub id: u32,
    pub parent: u32,
    /// Spans of one operation (a pass, a request) share this.
    pub op: u32,
    pub name: &'static str,
    /// Which instance of `name` this is (an experiment id, a request class).
    pub detail: &'static str,
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work units done inside the span (points, lines, bytes, requests).
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    stack: Vec<u32>,
    ops: u32,
}

impl Tracer {
    /// A recorder for `workload`'s spans, recording if `on`.
    pub fn new(on: bool, workload: &'static str) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            workload,
            // Reserved up front so that growing the list does not show up
            // in the first traced passes' times and allocation counts.
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::new(),
            ops: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false, "")
    }

    /// Run `f` inside a span.  A span opened while no other is open starts
    /// a new operation.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.span_counted(name, detail, |t| (f(t), 0))
    }

    /// `span` whose closure also reports the work units it did.
    pub fn span_counted<T>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> T {
        if !self.on {
            return f(self).0;
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        if parent == 0 {
            self.ops += 1;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op: self.ops,
            name,
            detail,
            workload: self.workload,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            count: 0,
        });
        self.stack.push(id);
        let (value, count) = f(self);
        self.stack.pop();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        span.count = count;
        value
    }

    /// Record a span measured elsewhere (a client thread's request).
    pub fn record(
        &mut self,
        name: &'static str,
        detail: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        self.ops += 1;
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: 0,
            op: self.ops,
            name,
            detail,
            workload: self.workload,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            count: 1,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name` with this `detail`.
    pub fn durations(&self, name: &str, detail: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.detail == detail)
            .map(|s| s.ns() as f64)
            .collect()
    }

    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"workload\":{},\"name\":{},\"detail\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id,
                s.parent,
                s.op,
                quote(s.workload),
                quote(s.name),
                quote(s.detail),
                s.start_ns,
                s.end_ns,
                s.count
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children count once).  Indexed
/// like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Share of the time of `workload`'s operations that no child span
/// accounts for: root self time over root duration, over the roots that
/// have children at all (a request answered by another process has
/// nothing below it to attribute).
pub fn unattributed_share(spans: &[Span], workload: &str) -> f64 {
    let selfs = self_times(spans);
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if s.parent != 0 {
            has_child[s.parent as usize - 1] = true;
        }
    }
    let (mut own, mut total) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.parent == 0 && s.workload == workload && has_child[i] {
            own += selfs[i];
            total += s.ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "x",
            detail: "",
            workload: "w",
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // root 0..100; children 10..30 and 20..50 overlap (cover 10..50),
        // child 60..70; grandchild 12..20 under the first child.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 60, 70),
            span(5, 2, 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 10, 8]);
        assert_eq!(unattributed_share(&spans, "w"), 0.5);
        assert_eq!(unattributed_share(&spans, "other"), 0.0);
    }

    #[test]
    fn childless_roots_do_not_count_as_unattributed() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 0, 100, 200),
            span(3, 2, 100, 180),
        ];
        assert_eq!(unattributed_share(&spans, "w"), 0.2);
    }

    #[test]
    fn recorder_nests_and_numbers_operations() {
        let mut t = Tracer::new(true, "w");
        let v = t.span("outer", "a", |t| {
            t.span_counted("inner", "", |_| (1, 7));
            t.span("inner", "", |_| 2)
        });
        assert_eq!(v, 2);
        t.span("outer", "b", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (0, 1, 1));
        assert_eq!((s[0].op, s[1].op, s[3].op), (1, 1, 2));
        assert_eq!(s[1].count, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(t.durations("inner", "").len(), 2);
        assert_eq!(t.durations("outer", "b").len(), 1);

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", "", |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
