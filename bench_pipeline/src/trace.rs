//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, op}`: `parent` is the
//! index of the span that caused it, `op` the operation (or replay
//! repetition) both belong to. Spans stay in memory until the run ends
//! and are then written out as `trace.json`. A layer's *self time* is
//! its span's duration minus the part of that interval its child spans
//! cover.
//!
//! A disabled tracer records nothing, so the untraced half of a traced
//! run (and every end-to-end run) pays one branch per call site.

use std::time::{Duration, Instant};

/// Index of a span within its [`Tracer`].
pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when tracing is off.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Records a child that ended at `end` after running for `elapsed`
    /// — the shape a `StageObserver` callback reports.
    pub fn child_ended_at(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        end: Instant,
        elapsed: Duration,
    ) {
        if !self.enabled {
            return;
        }
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(elapsed.as_nanos() as u64),
            end_ns,
            parent,
            op,
        });
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self times (ns) of every span called `name`.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        let all = self_times(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// The spans as a JSON array, one object per span, self time
    /// included so a reader need not recompute it.
    pub fn to_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.op
            ));
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, each clipped to the parent (children
/// may overlap one another, and a child reconstructed from a reported
/// elapsed time may poke past its parent's start by clock granularity).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_with_nested_children() {
        // root 0..100, child 10..40 with grandchild 20..30, child 50..70.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 70, Some(0)),
        ];
        // The grandchild counts against its parent only.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // Children 10..50 and 30..80 cover 10..80 = 70, not 40 + 50.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 50]);
        // A child fully inside a sibling adds nothing.
        let spans = [
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(100, 200, None),
            span(90, 150, Some(0)),
            span(190, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
        // A child wholly outside covers nothing.
        let spans = [span(100, 200, None), span(10, 50, Some(0))];
        assert_eq!(self_times(&spans)[0], 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a", None, 1);
        t.end(id);
        t.child_ended_at("b", id, 1, Instant::now(), Duration::from_nanos(5));
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let id = t.begin("a", None, 2);
        t.child_ended_at("b", id, 2, Instant::now(), Duration::ZERO);
        t.end(id);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.to_json().contains("\"name\":\"b\""));
    }
}
