//! In-memory spans recorded around calls into each layer's public
//! functions.
//!
//! The program itself is not instrumented: the benchmark opens a span,
//! calls the layer, and closes the span. A span knows its layer name, its
//! interval, the span that caused it and the request it belongs to; a
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `dataset.query.plan`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
    /// Whether the call returned an error.
    pub failed: bool,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
            failed: false,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, marking whether its call failed.
    pub fn close(&mut self, id: usize, failed: bool) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
            span.failed = failed;
        }
    }

    /// Runs `call` inside a leaf span.
    pub fn leaf<T, E>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        call: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let id = self.open(name, parent, request);
        let result = call();
        self.close(id, result.is_err());
        result
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// union of its children's intervals clipped to its own.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len() && p != i) {
            children[parent].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let start = spans[k].start_ns.clamp(span.start_ns, span.end_ns);
                    let end = spans[k].end_ns.clamp(span.start_ns, span.end_ns);
                    (start, end)
                })
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Spans whose call failed.
    pub failed: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean self time per call, microseconds (`0` without calls).
    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Sums spans by layer name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.failed += u64::from(span.failed);
        entry.self_ns += self_ns;
    }
    out
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
            request: 0,
            failed: false,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("plan", 10, 20, Some(0)),
            span("model", 30, 80, Some(0)),
            span("kernel", 40, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 10, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("batch", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 120, 170, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100, 170) and [190, 200) = 80 of 100.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn layer_totals_sum_self_time_calls_and_failures() {
        let mut spans = vec![
            span("request", 0, 100, None),
            span("plan", 0, 30, Some(0)),
            span("request", 100, 150, None),
            span("plan", 100, 110, Some(2)),
        ];
        spans[3].failed = true;
        let layers = by_layer(&spans);
        let request = layers["request"];
        assert_eq!((request.calls, request.failed), (2, 0));
        assert_eq!(request.self_ns, 70 + 40);
        let plan = layers["plan"];
        assert_eq!((plan.calls, plan.failed, plan.self_ns), (2, 1, 40));
        assert_eq!(plan.mean_self_us(), 0.02);
        assert_eq!(LayerTotals::default().mean_self_us(), 0.0);
    }

    #[test]
    fn tracer_records_nesting_and_failures() {
        let mut tracer = Tracer::default();
        let root = tracer.open("request", None, 7);
        let ok: Result<u32, ()> = tracer.leaf("plan", Some(root), 7, || Ok(3));
        let err: Result<u32, &str> = tracer.leaf("model", Some(root), 7, || Err("boom"));
        tracer.close(root, false);
        assert_eq!(ok, Ok(3));
        assert!(err.is_err());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert!(!spans[1].failed && spans[2].failed);
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }
}
