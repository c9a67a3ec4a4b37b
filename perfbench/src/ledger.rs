//! Spans and the stage ledger of the traced replay.
//!
//! A span records one call into a layer: name, start, end, the span that
//! caused it, and the request it belongs to. Spans stay in memory and are
//! written out when the run ends. A span's self time is its duration minus
//! the part of that interval its child spans cover; the ledger closes when
//! the stage self times add up to the engine's own time for the same
//! requests.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the tracer's list.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
    /// Stage name (`layer.call`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// One JSON object per span, for the spans file.
    pub fn to_json(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.id, self.request, self.name, self.start_ns, self.end_ns
        )
    }
}

/// In-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            request: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags the spans recorded from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Records an interval measured elsewhere (phase timings the library
    /// reports) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            id: self.spans.len(),
            parent: self.open.last().copied(),
            request: self.request,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self times and the parent-to-children index of a finished span list.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Self time of every span, indexed like the span list.
    pub self_ns: Vec<u64>,
    children: Vec<Vec<usize>>,
}

impl Ledger {
    /// Computes every span's self time: its duration minus the union of its
    /// children's intervals, clipped to its own interval.
    pub fn new(spans: &[Span]) -> Ledger {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push(s.id);
            }
        }
        let self_ns = spans
            .iter()
            .map(|s| {
                let mut covered: Vec<(u64, u64)> = children[s.id]
                    .iter()
                    .map(|&c| {
                        let c = &spans[c];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                covered.sort_unstable();
                let mut union = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in covered {
                    let a = a.max(reach);
                    if b > a {
                        union += b - a;
                        reach = b;
                    }
                }
                s.duration_ns().saturating_sub(union)
            })
            .collect();
        Ledger { self_ns, children }
    }

    /// Sum of the self times of every descendant of span `root`: the time
    /// the named stages account for inside it.
    pub fn stage_sum(&self, root: usize) -> u64 {
        let mut total = 0;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for &c in &self.children[id] {
                total += self.self_ns[c];
                stack.push(c);
            }
        }
        total
    }
}

/// Share of engine time the stages do not account for, in percent:
/// `(engine − stages) / engine · 100`. Negative when the staged calls took
/// longer than the engine did.
pub fn unattributed_pct(engine_ns: u64, stages_ns: u64) -> f64 {
    assert!(engine_ns > 0, "ledger closure needs engine time");
    (engine_ns as f64 - stages_ns as f64) / engine_ns as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),  // overlaps span 1: covered is 10..50
            span(3, Some(1), 15, 20),  // grandchild: only span 1 loses it
            span(4, Some(0), 90, 120), // runs past its parent: clipped to 90..100
        ];
        assert_eq!(
            Ledger::new(&spans).self_ns,
            vec![100 - 40 - 10, 20 - 5, 30, 5, 30]
        );
    }

    #[test]
    fn tracer_nests_spans_and_self_times_add_up_to_the_root() {
        let mut t = Tracer::new();
        t.set_request(7);
        t.span("root", |t| {
            t.span("a", |t| t.span("a.inner", |_| std::hint::black_box(1 + 1)));
            let now = t.now();
            t.record("b", now, now + 1_000);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let ledger = Ledger::new(spans);
        // The recorded child may run past the root's end: the root's self
        // time clips it, the stage sum counts it whole.
        let inside = ledger.self_ns[0] + ledger.stage_sum(0);
        assert!(inside >= spans[0].duration_ns());
        assert_eq!(ledger.stage_sum(1), ledger.self_ns[2]);
    }

    #[test]
    fn ledger_closure_is_the_unattributed_share() {
        assert_eq!(unattributed_pct(1_000, 900), 10.0);
        assert_eq!(unattributed_pct(1_000, 1_100), -10.0);
        assert_eq!(unattributed_pct(1_000, 1_000), 0.0);
        // Stage sum of a closed ledger equals the root minus its self time.
        let spans = vec![
            span(0, None, 0, 1_000),
            span(1, Some(0), 0, 400),
            span(2, Some(0), 400, 900),
            span(3, Some(2), 500, 700),
        ];
        let ledger = Ledger::new(&spans);
        assert_eq!(ledger.stage_sum(0), 900);
        assert_eq!(unattributed_pct(1_000, ledger.stage_sum(0)), 10.0);
    }

    #[test]
    fn spans_serialise_with_parent_and_request() {
        let s = Span {
            id: 3,
            parent: Some(1),
            request: 42,
            name: "core.decode",
            start_ns: 5,
            end_ns: 9,
        };
        assert_eq!(
            s.to_json(),
            "{\"id\":3,\"parent\":1,\"request\":42,\"name\":\"core.decode\",\"start_ns\":5,\"end_ns\":9}"
        );
    }
}
