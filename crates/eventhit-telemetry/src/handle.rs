//! Resolved metric handles and the per-series storage behind them.
//!
//! A series is one `(name, label)` pair of a metric family. Resolving a
//! series ([`crate::Telemetry::counter`], [`crate::Telemetry::gauge`],
//! [`crate::Telemetry::histogram`]) looks the pair up once, under the
//! family's registration lock, and returns a handle that reaches the
//! series' storage directly:
//!
//! * a [`Counter`] owns a cache-line-padded atomic cell of its own, so an
//!   add is one uncontended `Relaxed` add; a snapshot sums the series'
//!   live cells plus a retired total that dropped handles fold into;
//! * a [`Gauge`] and a [`Histogram`] (with its window ring, exemplars and
//!   SLO) sit behind one small lock per series.
//!
//! Nothing on the recording path takes a lock shared by two series. A
//! series registered but never recorded into is absent from snapshots,
//! exactly as if it had never been resolved.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::clock::ClockKind;
use crate::hist::LogHistogram;
use crate::slo::SloStat;
use crate::window::{WindowStat, WindowedSeries, DEFAULT_WINDOW_SECS};

/// Every update leaves the guarded series valid, so a poisoned lock (a
/// panic elsewhere while it was held) still guards consistent data.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The recorder's clock, shared with every histogram series so handles
/// can timestamp window samples without reaching back to the recorder.
#[derive(Debug)]
pub(crate) struct Clock {
    pub(crate) kind: ClockKind,
    epoch: Instant,
    /// Manual-clock seconds as `f64` bits. `Relaxed`: the reading
    /// publishes no other data; simulators set and read it on one thread.
    manual: AtomicU64,
}

impl Clock {
    pub(crate) fn new(kind: ClockKind) -> Self {
        Clock {
            kind,
            epoch: Instant::now(),
            manual: AtomicU64::new(0f64.to_bits()),
        }
    }

    pub(crate) fn now(&self) -> f64 {
        match self.kind {
            ClockKind::Wall => self.epoch.elapsed().as_secs_f64(),
            ClockKind::Manual => f64::from_bits(self.manual.load(Ordering::Relaxed)),
        }
    }

    pub(crate) fn set(&self, t: f64) {
        self.manual.store(t.to_bits(), Ordering::Relaxed);
    }
}

/// One counter cell on its own cache line, so two threads adding
/// through two handles never share a line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Cell {
    value: AtomicU64,
    /// Set by the first add, even `add(0)`: a touched series exists in
    /// snapshots with whatever value it holds.
    touched: AtomicBool,
}

impl Cell {
    #[inline]
    fn add(&self, delta: u64) {
        // `Relaxed` throughout: the cell is a statistic and publishes no
        // other data. A snapshot racing an add may miss it; one taken
        // after the adder is joined sees every add.
        if !self.touched.load(Ordering::Relaxed) {
            self.touched.store(true, Ordering::Relaxed);
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    fn read(&self) -> Option<u64> {
        let v = self.value.load(Ordering::Relaxed);
        (v > 0 || self.touched.load(Ordering::Relaxed)).then_some(v)
    }
}

#[derive(Debug, Default)]
struct Cells {
    live: Vec<Arc<Cell>>,
    /// Sum of dropped handles' cells; `None` until one touched cell is
    /// retired.
    retired: Option<u64>,
}

/// One counter series: the string API's own cell plus every live
/// handle's cell and the retired total.
#[derive(Debug, Default)]
pub(crate) struct CounterSeries {
    shared: Cell,
    cells: Mutex<Cells>,
}

impl CounterSeries {
    /// The string API's update: the series' own cell.
    pub(crate) fn add(&self, delta: u64) {
        self.shared.add(delta);
    }

    fn attach(self: &Arc<Self>) -> CounterCell {
        let cell = Arc::new(Cell::default());
        lock(&self.cells).live.push(Arc::clone(&cell));
        CounterCell {
            series: Arc::clone(self),
            cell,
        }
    }

    /// The series total, or `None` if nothing was ever added.
    pub(crate) fn total(&self) -> Option<u64> {
        let cells = lock(&self.cells);
        let parts = std::iter::once(self.shared.read())
            .chain(cells.live.iter().map(|c| c.read()))
            .chain(std::iter::once(cells.retired));
        parts
            .flatten()
            .fold(None, |acc, v| Some(acc.unwrap_or(0) + v))
    }
}

#[derive(Debug)]
struct CounterCell {
    series: Arc<CounterSeries>,
    cell: Arc<Cell>,
}

impl Drop for CounterCell {
    fn drop(&mut self) {
        let mut cells = lock(&self.series.cells);
        cells.live.retain(|c| !Arc::ptr_eq(c, &self.cell));
        if let Some(v) = self.cell.read() {
            cells.retired = Some(cells.retired.unwrap_or(0) + v);
        }
    }
}

/// A resolved counter series. Each handle, clones included, owns its own
/// cell; dropping it folds the cell into the series total, so nothing a
/// handle added is ever lost. A handle from a disabled recorder does
/// nothing.
#[derive(Debug)]
pub struct Counter(Option<CounterCell>);

impl Counter {
    pub(crate) fn attach(series: &Arc<CounterSeries>) -> Self {
        Counter(Some(series.attach()))
    }

    /// A handle that records nothing.
    pub(crate) fn noop() -> Self {
        Counter(None)
    }

    /// Adds `delta` to the series: one `Relaxed` atomic add on this
    /// handle's own cell.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(c) = &self.0 {
            c.cell.add(delta);
        }
    }
}

impl Clone for Counter {
    /// A new handle on the same series with a fresh cell of its own.
    fn clone(&self) -> Self {
        Counter(self.0.as_ref().map(|c| c.series.attach()))
    }
}

/// Last/min/max/sample-count summary of a gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStat {
    /// Most recently set value.
    pub last: f64,
    /// Smallest value ever set.
    pub min: f64,
    /// Largest value ever set.
    pub max: f64,
    /// Number of times the gauge was set.
    pub samples: u64,
}

/// One gauge series: last writer wins under the series lock.
#[derive(Debug, Default)]
pub(crate) struct GaugeSeries(Mutex<Option<GaugeStat>>);

impl GaugeSeries {
    pub(crate) fn set(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let mut g = lock(&self.0);
        let stat = g.get_or_insert(GaugeStat {
            last: v,
            min: v,
            max: v,
            samples: 0,
        });
        stat.last = v;
        stat.min = stat.min.min(v);
        stat.max = stat.max.max(v);
        stat.samples += 1;
    }

    pub(crate) fn stat(&self) -> Option<GaugeStat> {
        *lock(&self.0)
    }
}

/// A resolved gauge series. Clones share the series; a handle from a
/// disabled recorder does nothing.
#[derive(Debug, Clone)]
pub struct Gauge(Option<Arc<GaugeSeries>>);

impl Gauge {
    pub(crate) fn attach(series: &Arc<GaugeSeries>) -> Self {
        Gauge(Some(Arc::clone(series)))
    }

    /// A handle that records nothing.
    pub(crate) fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the gauge to `v`, tracking last/min/max. Non-finite values
    /// are ignored.
    pub fn set(&self, v: f64) {
        if let Some(s) = &self.0 {
            s.set(v);
        }
    }
}

#[derive(Debug, Default)]
struct HistState {
    /// Cumulative histogram and its window ring, created by the first
    /// observation.
    observed: Option<(LogHistogram, WindowedSeries)>,
    /// Bucket index → minimum trace id seen, created by the first traced
    /// observation that lands in a bucket.
    exemplars: Option<BTreeMap<usize, u64>>,
    slo: Option<SloStat>,
}

/// What one histogram series contributes to a snapshot.
pub(crate) struct HistView {
    pub(crate) hist: Option<(LogHistogram, Vec<WindowStat>)>,
    pub(crate) exemplars: Option<Vec<(usize, u64)>>,
    pub(crate) slo: Option<SloStat>,
}

/// One histogram series: the cumulative histogram, its window ring, its
/// exemplars and its SLO tracker, behind one lock.
#[derive(Debug)]
pub(crate) struct HistSeries {
    clock: Arc<Clock>,
    state: Mutex<HistState>,
}

impl HistSeries {
    pub(crate) fn new(clock: &Arc<Clock>) -> Self {
        HistSeries {
            clock: Arc::clone(clock),
            state: Mutex::default(),
        }
    }

    pub(crate) fn observe(&self, v: f64, trace: Option<u64>) {
        let now = self.clock.now();
        let mut st = lock(&self.state);
        let (hist, window) = st.observed.get_or_insert_with(|| {
            (
                LogHistogram::default(),
                WindowedSeries::new(DEFAULT_WINDOW_SECS),
            )
        });
        hist.observe(v);
        window.observe(now, v);
        if let (Some(trace), Some(bucket)) = (trace, LogHistogram::bucket_index(v)) {
            let slot = st
                .exemplars
                .get_or_insert_with(BTreeMap::new)
                .entry(bucket)
                .or_insert(trace);
            *slot = (*slot).min(trace);
        }
        if let Some(slo) = &mut st.slo {
            slo.observe(v);
        }
    }

    /// Registers the SLO unless one is already registered.
    pub(crate) fn set_slo(&self, threshold: f64, objective: f64) {
        lock(&self.state)
            .slo
            .get_or_insert_with(|| SloStat::new(threshold, objective));
    }

    pub(crate) fn view(&self) -> HistView {
        let st = lock(&self.state);
        HistView {
            hist: st.observed.as_ref().map(|(h, w)| (h.clone(), w.stats())),
            exemplars: st
                .exemplars
                .as_ref()
                .map(|ex| ex.iter().map(|(&b, &t)| (b, t)).collect()),
            slo: st.slo,
        }
    }
}

/// A resolved histogram series. Clones share the series; a handle from a
/// disabled recorder does nothing.
#[derive(Debug, Clone)]
pub struct Histogram(Option<Arc<HistSeries>>);

impl Histogram {
    pub(crate) fn attach(series: &Arc<HistSeries>) -> Self {
        Histogram(Some(Arc::clone(series)))
    }

    /// A handle that records nothing.
    pub(crate) fn noop() -> Self {
        Histogram(None)
    }

    /// Records `v` into the histogram and its window ring, and feeds the
    /// series' SLO if one is registered.
    pub fn observe(&self, v: f64) {
        self.observe_traced(v, None);
    }

    /// [`Histogram::observe`], additionally attaching `trace` (when set)
    /// as the exemplar of the bucket `v` lands in. Each bucket keeps the
    /// *minimum* trace id it has seen, so the exemplar set does not
    /// depend on observation order.
    pub fn observe_traced(&self, v: f64, trace: Option<u64>) {
        if let Some(s) = &self.0 {
            s.observe(v, trace);
        }
    }
}
