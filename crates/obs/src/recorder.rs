//! The per-thread recorder: one [`Registry`] plus one [`SpanTree`],
//! installed into a thread-local slot so instrumented code never threads a
//! handle through its call graph.
//!
//! Recording is strictly opt-in: with no recorder installed every probe
//! ([`counter_add`], [`span`], …) is a thread-local load and a branch.
//! Callers that want a report wrap the workload in [`observe`]:
//!
//! ```
//! use rfp_obs::{MetricDef, recorder};
//!
//! static METRICS: &[MetricDef] = &[MetricDef::counter("work.items", "items processed")];
//!
//! let ((), rec) = recorder::observe(METRICS, || {
//!     let _stage = rfp_obs::span!("stage_a");
//!     recorder::counter_add(0, 3);
//! });
//! assert_eq!(rec.metrics.counter(0), 3);
//! assert_eq!(rec.spans.nodes()[0].name, "stage_a");
//! ```
//!
//! Worker threads each install their own recorder and hand it back to the
//! coordinator, which merges them **in worker-index order** into its own
//! ([`absorb`] / [`Recorder::merge_at_current`]) — fixed merge order plus
//! commutative counter addition is what makes multi-worker reports
//! deterministic in everything but wall-clock timings.

use crate::journal::Journal;
use crate::metrics::{MetricDef, Registry};
use crate::span::SpanTree;
use std::cell::RefCell;
use std::time::Instant;

/// A metrics registry, a span tree, and an event journal — everything one
/// thread records.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    /// Counter/gauge/histogram storage.
    pub metrics: Registry,
    /// Aggregated stage timings.
    pub spans: SpanTree,
    /// Bounded structured event ring (see [`Journal`]).
    pub journal: Journal,
}

impl Recorder {
    /// A fresh recorder over the descriptor table `defs`, with the
    /// default journal capacity.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self::with_journal_capacity(defs, Journal::DEFAULT_CAPACITY)
    }

    /// A fresh recorder whose journal retains at most `capacity` events.
    pub fn with_journal_capacity(defs: &'static [MetricDef], capacity: usize) -> Self {
        Recorder {
            metrics: Registry::new(defs),
            spans: SpanTree::new(),
            journal: Journal::new(capacity),
        }
    }

    /// Merges another recorder produced from the same descriptor table:
    /// metrics merge per [`Registry::merge`]; the other's span forest is
    /// grafted under this recorder's innermost open span (or at top level
    /// if none is open); journal events are re-recorded in order (see
    /// [`Journal::merge`]).
    pub fn merge_at_current(&mut self, other: &Recorder) {
        self.metrics.merge(&other.metrics);
        self.spans.merge_at(self.spans.current(), &other.spans);
        self.journal.merge(&other.journal);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs `rec` as this thread's recorder, runs `f`, and returns `f`'s
/// result together with the recorder. A previously-installed recorder is
/// saved and restored, so scopes nest.
pub fn observe_with<R>(rec: Recorder, f: impl FnOnce() -> R) -> (R, Recorder) {
    let saved = CURRENT.with(|c| c.borrow_mut().replace(rec));
    let out = f();
    let rec = CURRENT.with(|c| {
        std::mem::replace(&mut *c.borrow_mut(), saved).expect("recorder still installed")
    });
    (out, rec)
}

/// [`observe_with`] against a fresh recorder over `defs`.
pub fn observe<R>(defs: &'static [MetricDef], f: impl FnOnce() -> R) -> (R, Recorder) {
    observe_with(Recorder::new(defs), f)
}

/// Whether a recorder is installed on this thread (i.e. probes record).
#[inline]
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Runs `f` against the installed recorder; does nothing when none is.
#[inline]
pub fn with_current<F: FnOnce(&mut Recorder)>(f: F) {
    CURRENT.with(|c| {
        if let Some(rec) = c.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Adds `n` to counter `idx` of the installed recorder, if any.
#[inline]
pub fn counter_add(idx: usize, n: u64) {
    with_current(|r| r.metrics.add(idx, n));
}

/// Sets gauge `idx` of the installed recorder, if any.
#[inline]
pub fn gauge_set(idx: usize, v: f64) {
    with_current(|r| r.metrics.set(idx, v));
}

/// Records `v` into histogram `idx` of the installed recorder, if any.
#[inline]
pub fn observe_value(idx: usize, v: f64) {
    with_current(|r| r.metrics.observe(idx, v));
}

/// Records a structured event into the installed recorder's journal, if
/// any; see [`Journal::record`].
#[inline]
pub fn journal_record(kind: &'static str, key: u64, value: u64) {
    with_current(|r| r.journal.record(kind, key, value));
}

/// Sets the tick stamped onto subsequent journal events of the installed
/// recorder, if any; see [`Journal::set_tick`].
#[inline]
pub fn journal_tick(tick: u64) {
    with_current(|r| r.journal.set_tick(tick));
}

/// Merges a worker's recorder into this thread's recorder (no-op when
/// none is installed); see [`Recorder::merge_at_current`].
pub fn absorb(other: &Recorder) {
    with_current(|r| r.merge_at_current(other));
}

/// RAII guard of one open span; created by [`span`] or [`timed_span`].
/// Closes and credits the span on drop, and records its duration into the
/// guard's latency histograms. Inert (and free beyond one thread-local
/// check) when no recorder was installed at creation.
#[must_use = "a span guard records on drop; binding it to _ closes it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when no recorder was active at creation.
    open: Option<(usize, Instant)>,
    /// Histograms that also receive the span's duration, in microseconds.
    histograms: &'static [usize],
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((idx, start)) = self.open.take() {
            let elapsed = start.elapsed();
            let us = elapsed.as_secs_f64() * 1e6;
            with_current(|r| {
                r.spans.exit(idx, elapsed);
                for &h in self.histograms {
                    r.metrics.observe(h, us);
                }
            });
        }
    }
}

/// Opens span `name` on this thread's recorder and returns the guard that
/// closes it. With no recorder installed the guard is inert.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    timed_span(name, &[])
}

/// [`span`] that also records the span's duration, in microseconds, into
/// each histogram in `histograms` on close — one pair of clock reads
/// where a span and [`time_histogram`] guards over the same scope would
/// each read the clock twice.
#[inline]
pub fn timed_span(name: &'static str, histograms: &'static [usize]) -> SpanGuard {
    let mut open = None;
    with_current(|r| open = Some(r.spans.enter(name)));
    SpanGuard { open: open.map(|idx| (idx, Instant::now())), histograms }
}

/// RAII guard that records its lifetime, in microseconds, into histogram
/// `idx` on drop; created by [`time_histogram`]. Inert when no recorder
/// was installed at creation.
#[must_use = "a timer guard records on drop; binding it to _ stops it immediately"]
#[derive(Debug)]
pub struct TimerGuard {
    start: Option<(usize, Instant)>,
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some((idx, start)) = self.start.take() {
            let us = start.elapsed().as_secs_f64() * 1e6;
            observe_value(idx, us);
        }
    }
}

/// Starts timing into histogram `idx` (microseconds, recorded on drop).
#[inline]
pub fn time_histogram(idx: usize) -> TimerGuard {
    let start = if active() { Some((idx, Instant::now())) } else { None };
    TimerGuard { start }
}

/// Opens a named span on the thread-local recorder, returning its RAII
/// guard — sugar for [`recorder::span`](crate::recorder::span).
///
/// ```
/// # use rfp_obs::{MetricDef, recorder};
/// # static METRICS: &[MetricDef] = &[];
/// # let (_, rec) = recorder::observe(METRICS, || {
/// let _guard = rfp_obs::span!("solve_2d");
/// # });
/// # assert_eq!(rec.spans.nodes()[0].name, "solve_2d");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::recorder::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricKind;

    static DEFS: &[MetricDef] = &[
        MetricDef::counter("t.count", "counter"),
        MetricDef::histogram("t.lat", "latency", &[10.0, 100.0]),
    ];

    #[test]
    fn probes_without_recorder_are_no_ops() {
        assert!(!active());
        counter_add(0, 1);
        observe_value(1, 5.0);
        let _g = span("orphan");
        // Nothing to assert beyond "did not panic / did not record":
        let ((), rec) = observe(DEFS, || {});
        assert_eq!(rec.metrics.counter(0), 0);
        assert!(rec.spans.nodes().is_empty());
    }

    #[test]
    fn observe_scopes_nest_and_restore() {
        let ((), outer) = observe(DEFS, || {
            counter_add(0, 1);
            let ((), inner) = observe(DEFS, || counter_add(0, 10));
            assert_eq!(inner.metrics.counter(0), 10);
            counter_add(0, 2);
        });
        assert_eq!(outer.metrics.counter(0), 3);
    }

    #[test]
    fn span_guards_nest_through_the_tls() {
        let ((), rec) = observe(DEFS, || {
            let _a = span("outer");
            {
                let _b = span("inner");
            }
        });
        let mut seen = Vec::new();
        rec.spans.walk(&mut |d, n| seen.push((d, n.name, n.count)));
        assert_eq!(seen, vec![(0, "outer", 1), (1, "inner", 1)]);
    }

    #[test]
    fn timer_guard_lands_in_histogram() {
        let ((), rec) = observe(DEFS, || {
            let _t = time_histogram(1);
        });
        assert_eq!(rec.metrics.histogram(1).unwrap().count(), 1);
        assert_eq!(DEFS[1].kind, MetricKind::Histogram);
    }

    /// One clock pair serves the span and its histograms: each records
    /// once, with the same duration.
    #[test]
    fn timed_span_credits_span_and_histograms() {
        let ((), rec) = observe(DEFS, || {
            let _s = timed_span("timed", &[1]);
        });
        let node = &rec.spans.nodes()[rec.spans.roots()[0]];
        assert_eq!((node.name, node.count), ("timed", 1));
        let h = rec.metrics.histogram(1).unwrap();
        assert_eq!(h.count(), 1);
        assert!((h.sum() - node.total_ns as f64 / 1e3).abs() < 1e-3);
    }

    #[test]
    fn journal_probes_record_and_merge() {
        let ((), rec) = observe(DEFS, || {
            journal_tick(4);
            journal_record("refit_fallback", 2, 1);
        });
        let ev = rec.journal.events().next().unwrap();
        assert_eq!((ev.tick, ev.kind, ev.key, ev.value), (4, "refit_fallback", 2, 1));

        let ((), merged) = observe(DEFS, || absorb(&rec));
        assert_eq!(merged.journal.len(), 1);
        assert_eq!(merged.journal.events().next().unwrap().tick, 4);
    }

    #[test]
    fn absorb_merges_worker_into_current() {
        let mut worker = Recorder::new(DEFS);
        worker.metrics.add(0, 5);
        let s = worker.spans.enter("sense");
        worker.spans.exit(s, std::time::Duration::from_millis(1));
        let ((), rec) = observe(DEFS, || {
            let _batch = span("batch");
            absorb(&worker);
            absorb(&worker);
        });
        assert_eq!(rec.metrics.counter(0), 10);
        let mut seen = Vec::new();
        rec.spans.walk(&mut |d, n| seen.push((d, n.name, n.count)));
        assert_eq!(seen, vec![(0, "batch", 1), (1, "sense", 2)]);
    }
}
