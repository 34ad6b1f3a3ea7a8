//! The per-request span tracer.
//!
//! The [`Tracer`] records **spans** — named virtual-time intervals with a
//! stream label and a parent — so one logical request (`read` → `getpage` → cluster read →
//! disk queue wait → disk service) nests end to end across layers. Spans
//! export to Chrome trace-event JSON (see `iobench --trace`) and feed the
//! latency-attribution analyzer.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::executor::{Sim, TimeHandle};
use crate::time::SimTime;

/// Identifies one span within a [`Tracer`].
///
/// Ids are handed out in creation order starting at 1. `SpanId::NONE` (0)
/// means "no span": it is what every tracing call returns while the tracer
/// is disabled, and it is a valid parent (a root span). Call sites thread
/// span ids unconditionally — no `Option` plumbing, no branching beyond the
/// tracer's own enabled check.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SpanId(u64);

impl SpanId {
    /// The "no span" sentinel: returned when tracing is disabled, and the
    /// parent of root spans.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the [`SpanId::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Raw id (0 for `NONE`).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// One span: a named interval of virtual time attributed to a stream,
/// optionally nested under a parent span.
#[derive(Clone, Debug)]
pub struct Span {
    /// This span's id (never `NONE` in a recorded span).
    pub id: SpanId,
    /// Enclosing span, or `SpanId::NONE` for a root.
    pub parent: SpanId,
    /// What the span covers (e.g. `"disk.service"`). Static so the hot
    /// path never allocates.
    pub name: &'static str,
    /// The [`vfs` stream](crate::stats::StatsRegistry::alloc_stream) the
    /// work is attributed to; 0 is untagged/background.
    pub stream: u32,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time; `None` while the span is still open.
    pub end: Option<SimTime>,
    /// Optional numeric arguments (`("lbn", 42)`), shown in trace viewers.
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// The span's duration, or `None` while it is open.
    pub fn duration(&self) -> Option<crate::time::SimDuration> {
        self.end.map(|e| e.duration_since(self.start))
    }
}

struct TracerInner {
    time: TimeHandle,
    enabled: Cell<bool>,
    spans: RefCell<Vec<Span>>,
}

/// The per-[`Sim`] span tracer (`sim.tracer()`); cheap to clone.
///
/// **Zero-cost when disabled** (the default): every recording method checks
/// one `Cell<bool>` and returns [`SpanId::NONE`] without touching the span
/// store, so instrumented code costs a predictable branch and nothing else
/// — benchmark numbers with tracing off are identical to an untraced build.
/// Like the stats registry, the tracer holds only a
/// [`TimeHandle`], never a full `Sim`, so the executor can own it without
/// an `Rc` cycle.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<TracerInner>,
}

impl Tracer {
    pub(crate) fn with_time(time: TimeHandle) -> Tracer {
        Tracer {
            inner: Rc::new(TracerInner {
                time,
                enabled: Cell::new(false),
                spans: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Creates a tracer stamping spans with `sim`'s clock (standalone use;
    /// normally you want the shared `sim.tracer()`).
    pub fn new(sim: &Sim) -> Tracer {
        Tracer::with_time(sim.time_handle())
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Turns recording on or off. Disabling does not discard already
    /// recorded spans.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.set(on);
    }

    /// Opens a span starting now. Returns [`SpanId::NONE`] (and records
    /// nothing) while disabled.
    pub fn start(&self, name: &'static str, stream: u32, parent: SpanId) -> SpanId {
        if !self.inner.enabled.get() {
            return SpanId::NONE;
        }
        let now = self.inner.time.now();
        let mut spans = self.inner.spans.borrow_mut();
        let id = SpanId(spans.len() as u64 + 1);
        spans.push(Span {
            id,
            parent,
            name,
            stream,
            start: now,
            end: None,
            args: Vec::new(),
        });
        id
    }

    /// Closes `span` at the current virtual time. Ignores `NONE`; panics
    /// on a double close (that's an instrumentation bug worth hearing
    /// about).
    pub fn end(&self, span: SpanId) {
        if span.is_none() {
            return;
        }
        let now = self.inner.time.now();
        let mut spans = self.inner.spans.borrow_mut();
        let s = &mut spans[span.0 as usize - 1];
        assert!(s.end.is_none(), "span {:?} ({}) closed twice", span, s.name);
        s.end = Some(now);
    }

    /// Records a span whose bounds are already known — used where an
    /// interval is only discovered after the fact (a throttle stall, a
    /// disk request's queue wait). Returns the id, or `NONE` while
    /// disabled.
    pub fn record(
        &self,
        name: &'static str,
        stream: u32,
        parent: SpanId,
        start: SimTime,
        end: SimTime,
    ) -> SpanId {
        if !self.inner.enabled.get() {
            return SpanId::NONE;
        }
        debug_assert!(start <= end, "span {name} ends before it starts");
        let mut spans = self.inner.spans.borrow_mut();
        let id = SpanId(spans.len() as u64 + 1);
        spans.push(Span {
            id,
            parent,
            name,
            stream,
            start,
            end: Some(end),
            args: Vec::new(),
        });
        id
    }

    /// Attaches a numeric argument to an open or closed span (no-op for
    /// `NONE`).
    pub fn arg(&self, span: SpanId, key: &'static str, value: u64) {
        if span.is_none() {
            return;
        }
        self.inner.spans.borrow_mut()[span.0 as usize - 1]
            .args
            .push((key, value));
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.spans.borrow().len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out all spans recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.spans.borrow().clone()
    }

    /// Drains and returns all recorded spans in id order. Span ids restart
    /// from 1 afterwards.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.inner.spans.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let sim = Sim::new();
        let tr = sim.tracer().clone();
        assert!(!tr.enabled(), "tracing is off by default");
        let id = tr.start("read", 1, SpanId::NONE);
        assert!(id.is_none());
        tr.end(id); // No-op, no panic.
        tr.arg(id, "lbn", 7);
        let r = tr.record("stall", 1, SpanId::NONE, SimTime::ZERO, SimTime::ZERO);
        assert!(r.is_none());
        assert!(tr.is_empty());
    }

    #[test]
    fn spans_nest_and_stamp_virtual_time() {
        let sim = Sim::new();
        sim.tracer().set_enabled(true);
        let tr = sim.tracer().clone();
        let s = sim.clone();
        sim.run_until(async move {
            let root = tr.start("read", 3, SpanId::NONE);
            let child = tr.start("disk.service", 3, root);
            tr.arg(child, "lba", 128);
            s.sleep(SimDuration::from_millis(2)).await;
            tr.end(child);
            tr.end(root);
        });
        let spans = sim.tracer().take_spans();
        assert_eq!(spans.len(), 2);
        let (root, child) = (&spans[0], &spans[1]);
        assert_eq!(root.name, "read");
        assert_eq!(root.parent, SpanId::NONE);
        assert_eq!(child.parent, root.id);
        assert_eq!(child.stream, 3);
        assert_eq!(child.args, vec![("lba", 128)]);
        assert_eq!(child.duration(), Some(SimDuration::from_millis(2)));
        assert_eq!(root.start, SimTime::ZERO);
        assert_eq!(root.end, Some(SimTime::ZERO + SimDuration::from_millis(2)));
        assert!(sim.tracer().is_empty(), "take drains");
    }

    #[test]
    fn retroactive_record_keeps_given_bounds() {
        let sim = Sim::new();
        sim.tracer().set_enabled(true);
        let t0 = SimTime::ZERO + SimDuration::from_micros(5);
        let t1 = SimTime::ZERO + SimDuration::from_micros(9);
        let id = sim.tracer().record("disk.queue", 2, SpanId::NONE, t0, t1);
        assert!(!id.is_none());
        let spans = sim.tracer().spans();
        assert_eq!(spans[0].start, t0);
        assert_eq!(spans[0].end, Some(t1));
    }

    #[test]
    #[should_panic(expected = "closed twice")]
    fn double_end_panics() {
        let sim = Sim::new();
        sim.tracer().set_enabled(true);
        let id = sim.tracer().start("x", 0, SpanId::NONE);
        sim.tracer().end(id);
        sim.tracer().end(id);
    }
}
