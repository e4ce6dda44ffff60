//! The telemetry recorder: metric registry plus span stack.
//!
//! A [`Telemetry`] value is shared by reference (or `Arc`) across the
//! instrumented stack; call sites need only `&self`. Each metric family
//! (counters, gauges, histograms) is a map from name to label to series,
//! behind a registration lock that only resolution takes; recording goes
//! through the resolved series (see [`crate::handle`]). The maps are
//! `BTreeMap`s, so every snapshot iterates in one deterministic
//! `(name, label)` order — a precondition for the fingerprinting scheme.
//! The slow-decision log and the span trace each have a lock of their
//! own.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::clock::ClockKind;
pub use crate::handle::GaugeStat;
use crate::handle::{
    lock, Clock, Counter, CounterSeries, Gauge, GaugeSeries, HistSeries, Histogram,
};
use crate::report::TelemetrySnapshot;
use crate::slowlog::{SlowDecision, SlowLog};
use crate::window::DEFAULT_WINDOW_SECS;

/// Hard cap on the span trace buffer; spans beyond it are counted in
/// `dropped_spans` instead of recorded, bounding memory on long runs.
pub const MAX_SPANS: usize = 1 << 16;

/// One recorded span: a named region of (wall or simulated) time with an
/// optional parent, forming a forest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Position in the trace buffer (stable identifier).
    pub id: u32,
    /// Enclosing span at the time this one started.
    pub parent: Option<u32>,
    /// Static span name (e.g. `"train.epoch"`).
    pub name: &'static str,
    /// Clock seconds when the span opened.
    pub start: f64,
    /// Clock seconds when the span closed (`NaN` while open).
    pub end: f64,
}

impl SpanRecord {
    /// Span duration in seconds; 0 for still-open spans.
    pub fn duration(&self) -> f64 {
        if self.end.is_finite() {
            (self.end - self.start).max(0.0)
        } else {
            0.0
        }
    }
}

/// One metric name's series. The unlabeled series is kept apart: it
/// sorts before every labeled one, and its lookup compares no strings.
/// (Looking `""` up in a `String`-keyed map compares empty strings, which
/// cost ~150 ns a lookup on a 2-vCPU x86-64 host.)
#[derive(Debug)]
struct Labels<T> {
    unlabeled: Option<Arc<T>>,
    labeled: BTreeMap<String, Arc<T>>,
}

impl<T> Default for Labels<T> {
    fn default() -> Self {
        Labels {
            unlabeled: None,
            labeled: BTreeMap::new(),
        }
    }
}

impl<T> Labels<T> {
    fn get(&self, label: &str) -> Option<&Arc<T>> {
        if label.is_empty() {
            self.unlabeled.as_ref()
        } else {
            self.labeled.get(label)
        }
    }

    fn get_or_insert(&mut self, label: &str, make: impl FnOnce() -> T) -> &Arc<T> {
        let make = || Arc::new(make());
        if label.is_empty() {
            self.unlabeled.get_or_insert_with(make)
        } else {
            self.labeled.entry(label.to_string()).or_insert_with(make)
        }
    }

    /// `(label, series)` in label order.
    fn iter(&self) -> impl Iterator<Item = (&str, &Arc<T>)> {
        let unlabeled = self.unlabeled.iter().map(|s| ("", s));
        unlabeled.chain(self.labeled.iter().map(|(l, s)| (l.as_str(), s)))
    }
}

/// name → label → series. Nested maps iterate in exactly the order of a
/// map keyed by the `(name, label)` tuple, and let a lookup borrow both
/// keys as `&str` without allocating.
type Family<T> = RwLock<BTreeMap<String, Labels<T>>>;

/// Runs `f` on the series `(name, label)` of `family`, registering it
/// with `make` on first use. A hit takes only the read side of the
/// registration lock and allocates nothing.
fn with_series<T, R>(
    family: &Family<T>,
    name: &str,
    label: &str,
    make: impl FnOnce() -> T,
    f: impl FnOnce(&Arc<T>) -> R,
) -> R {
    // Registration only inserts whole entries, so a poisoned map is
    // still consistent.
    {
        let map = family.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = map.get(name).and_then(|labels| labels.get(label)) {
            return f(s);
        }
    }
    let mut map = family.write().unwrap_or_else(PoisonError::into_inner);
    let labels = map.entry(name.to_string()).or_default();
    f(labels.get_or_insert(label, make))
}

/// Every series of `family` in `(name, label)` order.
fn series<T>(family: &Family<T>) -> Vec<(String, String, Arc<T>)> {
    let map = family.read().unwrap_or_else(PoisonError::into_inner);
    map.iter()
        .flat_map(|(n, labels)| {
            labels
                .iter()
                .map(move |(l, s)| (n.clone(), l.to_string(), Arc::clone(s)))
        })
        .collect()
}

#[derive(Debug, Default)]
struct Trace {
    spans: Vec<SpanRecord>,
    open: Vec<u32>,
    dropped: u64,
}

/// The recorder. See the crate docs for the clock semantics; a disabled
/// recorder turns every call into a cheap early return and hands out
/// no-op handles.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    clock: Arc<Clock>,
    counters: Family<CounterSeries>,
    gauges: Family<GaugeSeries>,
    hists: Family<HistSeries>,
    slow: Mutex<SlowLog>,
    trace: Mutex<Trace>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    fn build(enabled: bool, clock: ClockKind) -> Self {
        Telemetry {
            enabled,
            clock: Arc::new(Clock::new(clock)),
            counters: Family::default(),
            gauges: Family::default(),
            hists: Family::default(),
            slow: Mutex::default(),
            trace: Mutex::default(),
        }
    }

    /// An enabled recorder on the wall clock (seconds since creation).
    pub fn new() -> Self {
        Telemetry::build(true, ClockKind::Wall)
    }

    /// An enabled recorder on the manual (simulated) clock: time only
    /// moves via [`Telemetry::set_time`], so identical computations
    /// record bit-identical telemetry.
    pub fn with_manual_clock() -> Self {
        Telemetry::build(true, ClockKind::Manual)
    }

    /// A no-op recorder: every call returns immediately. Instrumented
    /// code can take `&Telemetry` unconditionally and stay near-zero-cost
    /// when observability is off (the bench suite measures the residue).
    pub fn disabled() -> Self {
        Telemetry::build(false, ClockKind::Wall)
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Which clock the recorder reads.
    pub fn clock_kind(&self) -> ClockKind {
        self.clock.kind
    }

    /// Current clock reading in seconds; takes no lock. A disabled
    /// recorder always reads 0 so timing arithmetic around it stays
    /// finite.
    pub fn now(&self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        self.clock.now()
    }

    /// Advances the manual clock to `t` simulated seconds (no-op on the
    /// wall clock; the simulators call this unconditionally as their
    /// event clock moves).
    pub fn set_time(&self, t: f64) {
        if self.enabled && self.clock.kind == ClockKind::Manual {
            self.clock.set(t);
        }
    }

    /// Resolves the `label` series of counter `name` (label `""` is the
    /// unlabeled series) to a handle whose adds take no lock. Resolve
    /// once, outside the loop that records.
    pub fn counter(&self, name: &str, label: &str) -> Counter {
        if !self.enabled {
            return Counter::noop();
        }
        with_series(
            &self.counters,
            name,
            label,
            CounterSeries::default,
            Counter::attach,
        )
    }

    /// Resolves gauge `name` to a handle (see [`Gauge`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge::noop();
        }
        with_series(&self.gauges, name, "", GaugeSeries::default, Gauge::attach)
    }

    /// Resolves the `label` series of histogram `name` to a handle (see
    /// [`Histogram`]).
    pub fn histogram(&self, name: &str, label: &str) -> Histogram {
        if !self.enabled {
            return Histogram::noop();
        }
        self.with_hist(name, label, Histogram::attach)
    }

    fn with_hist<R>(&self, name: &str, label: &str, f: impl FnOnce(&Arc<HistSeries>) -> R) -> R {
        with_series(&self.hists, name, label, || HistSeries::new(&self.clock), f)
    }

    /// Opens a span; it closes (and is recorded) when the returned guard
    /// drops. Spans nest by scope: a span opened while another is open
    /// becomes its child.
    #[must_use = "a span closes when its guard drops"]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tel: self,
                id: u32::MAX,
            };
        }
        let mut trace = lock(&self.trace);
        if trace.spans.len() >= MAX_SPANS {
            trace.dropped += 1;
            return SpanGuard {
                tel: self,
                id: u32::MAX,
            };
        }
        let id = trace.spans.len() as u32;
        let start = self.clock.now();
        let parent = trace.open.last().copied();
        trace.spans.push(SpanRecord {
            id,
            parent,
            name,
            start,
            end: f64::NAN,
        });
        trace.open.push(id);
        SpanGuard { tel: self, id }
    }

    /// Records an already-finished span directly, bypassing the scoped
    /// span stack. This is the replay API for parallel regions: worker
    /// threads cannot share the scope-based stack (their nesting is
    /// concurrent, not lexical), so they log timings privately and the
    /// coordinator replays them here after joining, in a deterministic
    /// order, wiring parents explicitly.
    ///
    /// Returns the new span's id, or `None` if the recorder is disabled
    /// or the trace buffer is full (counted in `dropped_spans`).
    pub fn record_closed_span(
        &self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<u32>,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let mut trace = lock(&self.trace);
        if trace.spans.len() >= MAX_SPANS {
            trace.dropped += 1;
            return None;
        }
        let id = trace.spans.len() as u32;
        trace.spans.push(SpanRecord {
            id,
            parent,
            name,
            start,
            end,
        });
        Some(id)
    }

    fn finish_span(&self, id: u32) {
        let mut trace = lock(&self.trace);
        let end = self.clock.now();
        // Guards drop LIFO under normal scoping; if an outer guard is
        // dropped early, close any still-open descendants with it.
        if let Some(pos) = trace.open.iter().rposition(|&x| x == id) {
            let closing: Vec<u32> = trace.open.split_off(pos);
            for sid in closing {
                let rec = &mut trace.spans[sid as usize];
                if !rec.end.is_finite() {
                    rec.end = end;
                }
            }
        }
    }

    /// Adds `delta` to the counter `name`.
    pub fn add(&self, name: &'static str, delta: u64) {
        self.add_labeled(name, "", delta);
    }

    /// Adds `delta` to the `label` series of counter `name` (e.g.
    /// `add_labeled("ci.faults", "outage", 1)`). Resolves the series on
    /// every call; hot paths hold a [`Telemetry::counter`] handle instead.
    pub fn add_labeled(&self, name: &'static str, label: &str, delta: u64) {
        if self.enabled {
            with_series(&self.counters, name, label, CounterSeries::default, |s| {
                s.add(delta)
            });
        }
    }

    /// Sets gauge `name` to `v`, tracking last/min/max. Non-finite values
    /// are ignored.
    pub fn gauge_set(&self, name: &'static str, v: f64) {
        if self.enabled {
            with_series(&self.gauges, name, "", GaugeSeries::default, |s| s.set(v));
        }
    }

    /// Records `v` into the log-bucketed histogram `name`.
    pub fn observe(&self, name: &'static str, v: f64) {
        self.observe_labeled(name, "", v);
    }

    /// Records `v` into the `label` series of histogram `name` (e.g.
    /// `observe_labeled("serve.stage_seconds", "inference", dt)`).
    pub fn observe_labeled(&self, name: &'static str, label: &str, v: f64) {
        if self.enabled {
            self.with_hist(name, label, |s| s.observe(v, None));
        }
    }

    /// Records `v` like [`Telemetry::observe_labeled`] and additionally
    /// attaches `trace_id` as the exemplar of the bucket the sample lands
    /// in (each bucket remembers the *minimum* trace id it has seen, so
    /// the exemplar set is independent of observation order and therefore
    /// bit-identical across worker counts).
    pub fn observe_traced(&self, name: &'static str, label: &str, v: f64, trace_id: u64) {
        if self.enabled {
            self.with_hist(name, label, |s| s.observe(v, Some(trace_id)));
        }
    }

    /// Registers (idempotently) an SLO on the `label` series of histogram
    /// `name`: at least `objective` of observed samples must land at or
    /// under `threshold` seconds. Subsequent observations of that series
    /// feed the tracker; re-registering keeps the accumulated counts.
    pub fn set_slo(&self, name: &'static str, label: &str, threshold: f64, objective: f64) {
        if self.enabled {
            self.with_hist(name, label, |s| s.set_slo(threshold, objective));
        }
    }

    /// Records a candidate entry into the bounded slow-decision log (the
    /// log itself decides retention; see [`crate::slowlog::SlowLog`]).
    pub fn slow_decision(&self, entry: SlowDecision) {
        if self.enabled {
            lock(&self.slow).record(entry);
        }
    }

    /// A point-in-time copy of everything recorded so far. Only closed
    /// spans are exported (still-open ones are counted), so a snapshot
    /// taken after the instrumented region is a complete, deterministic
    /// artefact.
    ///
    /// Each series is read under its own lock, one after another: a
    /// counter includes every add that happened before the snapshot
    /// began, but a snapshot taken while other threads record is not one
    /// atomic cut across series.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = series(&self.counters)
            .into_iter()
            .filter_map(|(n, l, s)| s.total().map(|v| (n, l, v)))
            .collect();
        let gauges = series(&self.gauges)
            .into_iter()
            .filter_map(|(n, l, s)| s.stat().map(|g| (n, l, g)))
            .collect();
        let (mut histograms, mut windows, mut exemplars, mut slos) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (n, l, s) in series(&self.hists) {
            let view = s.view();
            if let Some((h, w)) = view.hist {
                histograms.push((n.clone(), l.clone(), h));
                windows.push((n.clone(), l.clone(), w));
            }
            if let Some(ex) = view.exemplars {
                exemplars.push((n.clone(), l.clone(), ex));
            }
            if let Some(slo) = view.slo {
                slos.push((n, l, slo));
            }
        }
        let trace = lock(&self.trace);
        TelemetrySnapshot {
            clock: self.clock.kind,
            counters,
            gauges,
            histograms,
            window_secs: DEFAULT_WINDOW_SECS,
            windows,
            exemplars,
            slos,
            slow: lock(&self.slow).entries().to_vec(),
            spans: trace
                .spans
                .iter()
                .filter(|s| s.end.is_finite())
                .copied()
                .collect(),
            open_spans: trace.open.len(),
            dropped_spans: trace.dropped,
        }
    }
}

/// RAII guard returned by [`Telemetry::span`]; records the span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tel: &'a Telemetry,
    id: u32,
}

impl SpanGuard<'_> {
    /// The recorded span's id, for use as an explicit parent in
    /// [`Telemetry::record_closed_span`]; `None` when the guard is a
    /// no-op (disabled recorder or full trace buffer).
    pub fn id(&self) -> Option<u32> {
        (self.id != u32::MAX).then_some(self.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id != u32::MAX {
            self.tel.finish_span(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label() {
        let tel = Telemetry::with_manual_clock();
        tel.add("frames", 3);
        tel.add("frames", 4);
        tel.add_labeled("faults", "outage", 2);
        tel.add_labeled("faults", "timeout", 1);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("frames"), Some(7));
        assert_eq!(snap.counter_labeled("faults", "outage"), Some(2));
        assert_eq!(snap.counter_total("faults"), 3);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn gauges_track_last_min_max() {
        let tel = Telemetry::with_manual_clock();
        tel.gauge_set("depth", 5.0);
        tel.gauge_set("depth", 2.0);
        tel.gauge_set("depth", 9.0);
        tel.gauge_set("depth", f64::NAN); // ignored
        let g = tel.snapshot().gauge("depth").unwrap();
        assert_eq!((g.last, g.min, g.max, g.samples), (9.0, 2.0, 9.0, 3));
    }

    #[test]
    fn spans_nest_and_record_on_manual_clock() {
        let tel = Telemetry::with_manual_clock();
        tel.set_time(1.0);
        {
            let _outer = tel.span("outer");
            tel.set_time(2.0);
            {
                let _inner = tel.span("inner");
                tel.set_time(5.0);
            }
            tel.set_time(7.0);
        }
        let spans = tel.snapshot().spans;
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!((outer.start, outer.end), (1.0, 7.0));
        assert_eq!((inner.start, inner.end), (2.0, 5.0));
        assert_eq!(inner.duration(), 3.0);
    }

    #[test]
    fn open_spans_are_excluded_from_snapshots() {
        let tel = Telemetry::with_manual_clock();
        let _open = tel.span("still.open");
        let snap = tel.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.open_spans, 1);
    }

    #[test]
    fn dropping_outer_guard_first_closes_descendants() {
        let tel = Telemetry::with_manual_clock();
        let outer = tel.span("outer");
        let inner = tel.span("inner");
        tel.set_time(3.0);
        drop(outer); // out of order: inner must still end up closed
        drop(inner);
        let spans = tel.snapshot().spans;
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.end == 3.0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let tel = Telemetry::disabled();
        let _g = tel.span("never");
        tel.add("c", 1);
        tel.gauge_set("g", 1.0);
        tel.observe("h", 1.0);
        tel.set_time(9.0);
        assert_eq!(tel.now(), 0.0);
        let snap = tel.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn span_buffer_is_capped() {
        let tel = Telemetry::with_manual_clock();
        for _ in 0..MAX_SPANS + 10 {
            let _s = tel.span("s");
        }
        let snap = tel.snapshot();
        assert_eq!(snap.spans.len(), MAX_SPANS);
        assert_eq!(snap.dropped_spans, 10);
    }

    #[test]
    fn record_closed_span_bypasses_the_scope_stack() {
        let tel = Telemetry::with_manual_clock();
        let _open = tel.span("ambient");
        let root = tel.record_closed_span("pool.run", 1.0, 4.0, None).unwrap();
        let child = tel
            .record_closed_span("pool.worker", 1.5, 3.5, Some(root))
            .unwrap();
        let snap = tel.snapshot();
        // The ambient scoped span is still open and must not have
        // adopted the replayed spans.
        let run = snap.spans.iter().find(|s| s.id == root).unwrap();
        let worker = snap.spans.iter().find(|s| s.id == child).unwrap();
        assert_eq!(run.parent, None);
        assert_eq!(worker.parent, Some(root));
        assert_eq!((run.start, run.end), (1.0, 4.0));
        assert_eq!(snap.open_spans, 1);
        assert!(Telemetry::disabled()
            .record_closed_span("x", 0.0, 1.0, None)
            .is_none());
    }

    #[test]
    fn span_guard_exposes_its_id() {
        let tel = Telemetry::with_manual_clock();
        let g = tel.span("a");
        assert!(g.id().is_some());
        let disabled = Telemetry::disabled();
        assert!(disabled.span("b").id().is_none());
    }

    #[test]
    fn wall_clock_moves_forward() {
        let tel = Telemetry::new();
        let a = tel.now();
        let b = tel.now();
        assert!(b >= a && a >= 0.0);
    }

    #[test]
    fn observations_feed_windowed_series() {
        let tel = Telemetry::with_manual_clock();
        tel.observe("lat", 0.010);
        tel.set_time(2.5);
        tel.observe_labeled("lat", "read", 0.020);
        tel.observe_labeled("lat", "read", 0.040);
        let snap = tel.snapshot();
        let w0 = snap.window_series("lat", "").unwrap();
        assert_eq!((w0[0].index, w0[0].count), (0, 1));
        let w1 = snap.window_series("lat", "read").unwrap();
        assert_eq!((w1[0].index, w1[0].count), (2, 2));
        assert!((w1[0].sum - 0.060).abs() < 1e-12);
        assert!(snap.window_series("lat", "missing").is_none());
    }

    #[test]
    fn exemplars_keep_the_minimum_trace_id_per_bucket() {
        let tel = Telemetry::with_manual_clock();
        // Same bucket, different traces: min wins regardless of order.
        tel.observe_traced("lat", "", 0.010, 900);
        tel.observe_traced("lat", "", 0.010, 7);
        tel.observe_traced("lat", "", 0.010, 55);
        // A different bucket keeps its own exemplar.
        tel.observe_traced("lat", "", 100.0, 3);
        // Non-finite samples never produce exemplars.
        tel.observe_traced("lat", "", f64::NAN, 1);
        let snap = tel.snapshot();
        let ex = snap.exemplar("lat", "").unwrap();
        assert_eq!(ex.len(), 2);
        assert!(ex.iter().any(|&(_, t)| t == 7));
        assert!(ex.iter().any(|&(_, t)| t == 3));
        assert!(!ex.iter().any(|&(_, t)| t == 1));
    }

    #[test]
    fn slo_counts_only_its_registered_series() {
        let tel = Telemetry::with_manual_clock();
        tel.set_slo("lat", "", 0.050, 0.99);
        tel.observe("lat", 0.010);
        tel.observe("lat", 0.500); // violation
        tel.observe_labeled("lat", "other", 9.0); // different series: ignored
        let snap = tel.snapshot();
        let slo = snap.slo("lat", "").unwrap();
        assert_eq!((slo.total, slo.violations), (2, 1));
        assert!(slo.burn_rate() > 1.0);
        assert!(snap.slo("lat", "other").is_none());
    }

    #[test]
    fn slow_decisions_flow_into_snapshots() {
        let tel = Telemetry::with_manual_clock();
        tel.slow_decision(SlowDecision {
            duration_seconds: 0.2,
            stream_id: 1,
            anchor: 16,
            trace_id: 42,
            stages: vec![("inference", 0.15)],
        });
        let snap = tel.snapshot();
        assert_eq!(snap.slow.len(), 1);
        assert_eq!(snap.slow[0].trace_id, 42);
    }

    #[test]
    fn disabled_recorder_ignores_observability_plane_calls() {
        let tel = Telemetry::disabled();
        tel.observe_labeled("lat", "x", 1.0);
        tel.observe_traced("lat", "x", 1.0, 9);
        tel.set_slo("lat", "x", 0.05, 0.99);
        tel.slow_decision(SlowDecision {
            duration_seconds: 1.0,
            stream_id: 0,
            anchor: 0,
            trace_id: 0,
            stages: Vec::new(),
        });
        let snap = tel.snapshot();
        assert!(snap.windows.is_empty());
        assert!(snap.exemplars.is_empty());
        assert!(snap.slos.is_empty());
        assert!(snap.slow.is_empty());
    }

    #[test]
    fn handle_counters_are_exact_across_interleaved_threads_and_drops() {
        use std::sync::Barrier;
        const N: u64 = 50_000;
        let tel = Telemetry::new();
        let dropped = tel.counter("frames", "");
        dropped.add(7);
        let dropped = Mutex::new(Some(dropped));
        // Three parties: two adders and the dropper. Each adder does half
        // its adds, the third handle is dropped while both are mid-run,
        // then the adders finish.
        let barrier = Barrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let h = tel.counter("frames", "");
                    for _ in 0..N / 2 {
                        h.add(1);
                    }
                    barrier.wait();
                    barrier.wait();
                    for _ in N / 2..N {
                        h.add(1);
                    }
                });
            }
            barrier.wait();
            drop(dropped.lock().unwrap().take());
            tel.add("frames", 3);
            barrier.wait();
        });
        assert_eq!(tel.snapshot().counter("frames"), Some(2 * N + 7 + 3));
    }

    #[test]
    fn string_api_and_handles_record_byte_identical_snapshots() {
        fn by_name(tel: &Telemetry) {
            tel.add("frames", 3);
            tel.add_labeled("rejected", "queue_full", 0);
            tel.gauge_set("depth", 4.0);
            tel.set_slo("lat", "", 0.05, 0.99);
            tel.observe("lat", 0.01);
            tel.set_time(2.5);
            tel.observe_traced("lat", "", 0.2, 9);
            tel.observe_traced("lat", "", 0.2, 4);
            tel.observe_labeled("stage", "read", 0.003);
            tel.add("frames", 4);
            tel.gauge_set("depth", 1.0);
        }
        fn by_handle(tel: &Telemetry) {
            let frames = tel.counter("frames", "");
            let rejected = tel.counter("rejected", "queue_full");
            let depth = tel.gauge("depth");
            let lat = tel.histogram("lat", "");
            let read = tel.histogram("stage", "read");
            // Resolved but never recorded into: must not appear.
            let _idle = (tel.counter("idle", ""), tel.histogram("idle", "x"));
            frames.add(3);
            rejected.add(0);
            depth.set(4.0);
            tel.set_slo("lat", "", 0.05, 0.99);
            lat.observe(0.01);
            tel.set_time(2.5);
            lat.observe_traced(0.2, Some(9));
            lat.observe_traced(0.2, Some(4));
            read.observe(0.003);
            frames.clone().add(4);
            depth.set(1.0);
        }
        let (a, b) = (
            Telemetry::with_manual_clock(),
            Telemetry::with_manual_clock(),
        );
        by_name(&a);
        by_handle(&b);
        let (a, b) = (a.snapshot(), b.snapshot());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(b.counter("frames"), Some(7));
        assert_eq!(b.counter_labeled("rejected", "queue_full"), Some(0));
        assert_eq!(b.counter("idle"), None);
    }

    #[test]
    fn disabled_recorder_hands_out_noop_handles() {
        let tel = Telemetry::disabled();
        tel.counter("c", "").add(1);
        tel.gauge("g").set(1.0);
        tel.histogram("h", "").observe(1.0);
        let snap = tel.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }
}
