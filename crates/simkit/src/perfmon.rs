//! Host-side performance observatory.
//!
//! Everything else in `simkit` explains *virtual* nanoseconds; this module
//! explains *wall-clock* ones — where the host process actually spends its
//! time when it executes a simulation, which is the question behind "why
//! does `--jobs N` run slower than `--jobs 1`". Two independent halves:
//!
//! 1. **Wall-clock phase profiler** (process-global, off by default):
//!    [`phase`] opens a named wall-clock span on the current thread;
//!    records land in a per-thread buffer (no locking on the record path)
//!    that moves to the process-wide collector when the thread's outermost
//!    phase closes, and are merged post-run by [`take_records`]. Each
//!    record also carries the thread's allocation delta over the span (see
//!    [`CountingAlloc`]) so allocation churn can be attributed to phases.
//!    [`timed_lock`] is a contention probe: it times a `Mutex` acquisition
//!    and records the wait, but only when the lock was actually contended.
//!
//! 2. **Virtual-time telemetry sampler** ([`Telemetry`], per-[`Sim`]):
//!    a simulated task that periodically snapshots every numeric metric in
//!    the registry into per-run time series — cache occupancy, dirty
//!    pages, disk queue depth, throttle stalls — the continuous view the
//!    end-of-run snapshot can't give. Sampling only *reads* the registry
//!    and only *observes* virtual time, so enabling it must not (and does
//!    not — tests pin this) change a single byte of the stats snapshot,
//!    the trace, or the rendered tables.
//!
//! The profiler deliberately never touches virtual time and the sampler
//! deliberately never touches the wall clock: the paper's numbers stay a
//! pure function of the simulation with the observatory fully armed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::executor::Sim;
use crate::stats::StatsRegistry;
use crate::time::SimDuration;

// ---------------------------------------------------------------------------
// Wall-clock phase profiler
// ---------------------------------------------------------------------------

/// Worker id reported for threads that never called [`set_worker`] (the
/// process's main/orchestrating thread).
pub const MAIN_THREAD: u32 = u32::MAX;

/// Cap on records buffered per thread; once full, further records are
/// counted in [`PhaseRecord`]-less `dropped` tallies instead of growing
/// without bound (a ring that drops the newest — by the time a run
/// overflows it, the report is already saturated with detail).
const THREAD_BUF_CAP: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Total records dropped on full thread buffers, surfaced in reports so a
/// truncated profile never masquerades as a complete one.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// One closed wall-clock phase span recorded on some thread.
#[derive(Clone, Debug)]
pub struct PhaseRecord {
    /// Phase name (`"run.drive"`, `"runner.pickup"`, `"lock.outcome"`...).
    pub name: &'static str,
    /// Optional free-form label (e.g. the run id a `run.drive` executed).
    pub label: Option<Box<str>>,
    /// Worker id ([`set_worker`]), or [`MAIN_THREAD`].
    pub worker: u32,
    /// Wall-clock bounds in nanoseconds since the profiler epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap allocations performed by this thread while the span was open.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl PhaseRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct ThreadBuf {
    worker: Cell<u32>,
    /// Armed phases open on this thread. Records stay buffered while it is
    /// non-zero and are flushed the moment it returns to zero, so a
    /// thread's records reach the collector before its closure returns —
    /// and so before `thread::scope` (or `join`) reports it finished. A
    /// thread-exit destructor cannot give that guarantee: std runs TLS
    /// destructors after the scope has already observed the thread done.
    depth: Cell<u32>,
    records: RefCell<Vec<PhaseRecord>>,
}

impl ThreadBuf {
    const fn new() -> ThreadBuf {
        ThreadBuf {
            worker: Cell::new(MAIN_THREAD),
            depth: Cell::new(0),
            records: RefCell::new(Vec::new()),
        }
    }
}

thread_local! {
    static BUF: ThreadBuf = const { ThreadBuf::new() };
}

fn collector() -> &'static Mutex<Vec<PhaseRecord>> {
    static COLLECTOR: OnceLock<Mutex<Vec<PhaseRecord>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

/// Arms (or disarms) the wall-clock profiler for the whole process. The
/// epoch is pinned on the first enable so record timestamps from every
/// thread share one origin. Cheap to call; recording while disabled is a
/// single relaxed atomic load.
pub fn set_enabled(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    ALLOC_COUNTING.store(on, Ordering::Relaxed);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the profiler is recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH
        .get()
        .map(|e| e.elapsed().as_nanos() as u64)
        .unwrap_or(0)
}

/// Tags the current thread as worker `k` for subsequent records. Threads
/// that never call this report as [`MAIN_THREAD`].
pub fn set_worker(k: u32) {
    BUF.with(|b| b.worker.set(k));
}

/// An open wall-clock phase on the current thread; recording happens on
/// drop. Returned by [`phase`] / [`phase_labeled`].
pub struct PhaseGuard {
    name: &'static str,
    label: Option<Box<str>>,
    start_ns: u64,
    allocs0: u64,
    bytes0: u64,
    /// Disarmed guards (profiler off at open) record nothing on drop.
    armed: bool,
}

/// Opens the wall-clock phase `name` on this thread, closed when the
/// returned guard drops. Zero-cost (one atomic load) while the profiler
/// is disabled.
pub fn phase(name: &'static str) -> PhaseGuard {
    phase_inner(name, None)
}

/// Like [`phase`], with a free-form label attached to the record (e.g.
/// the id of the run a `run.drive` phase executed).
pub fn phase_labeled(name: &'static str, label: &str) -> PhaseGuard {
    phase_inner(name, Some(label.into()))
}

fn phase_inner(name: &'static str, label: Option<Box<str>>) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard {
            name,
            label: None,
            start_ns: 0,
            allocs0: 0,
            bytes0: 0,
            armed: false,
        };
    }
    let (allocs0, bytes0) = thread_alloc_counts();
    let _ = BUF.try_with(|b| b.depth.set(b.depth.get() + 1));
    PhaseGuard {
        name,
        label,
        // Snapshot the clock *after* the label allocation so the span
        // excludes the guard's own setup.
        start_ns: now_ns(),
        allocs0,
        bytes0,
        armed: true,
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end_ns = now_ns();
        let (allocs1, bytes1) = thread_alloc_counts();
        let rec = PhaseRecord {
            name: self.name,
            label: self.label.take(),
            worker: 0, // stamped below with the thread's tag
            start_ns: self.start_ns,
            end_ns,
            allocs: allocs1.saturating_sub(self.allocs0),
            alloc_bytes: bytes1.saturating_sub(self.bytes0),
        };
        let _ = BUF.try_with(|b| b.depth.set(b.depth.get().saturating_sub(1)));
        push_record(rec);
    }
}

/// Buffers `rec` on this thread, flushing the buffer to the collector when
/// no phase is open any more (the outermost phase just closed, or `rec`
/// was recorded outside every phase).
fn push_record(mut rec: PhaseRecord) {
    // `try_with`: never panic if the thread is already tearing down.
    let outermost = BUF
        .try_with(|b| {
            rec.worker = b.worker.get();
            let mut records = b.records.borrow_mut();
            if records.len() >= THREAD_BUF_CAP {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            } else {
                records.push(rec);
            }
            b.depth.get() == 0
        })
        .unwrap_or(false);
    if outermost {
        flush_thread();
    }
}

/// Records an already-measured interval (used by [`timed_lock`] and by
/// callers that discover a phase only after the fact).
pub fn record(name: &'static str, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    push_record(PhaseRecord {
        name,
        label: None,
        worker: 0,
        start_ns,
        end_ns,
        allocs: 0,
        alloc_bytes: 0,
    });
}

/// Pushes the current thread's buffered records into the global collector.
/// Closing a thread's outermost phase already does this; [`take_records`]
/// calls it too, for records still buffered under a phase that is open.
pub fn flush_thread() {
    let drained: Vec<PhaseRecord> = BUF
        .try_with(|b| std::mem::take(&mut *b.records.borrow_mut()))
        .unwrap_or_default();
    if drained.is_empty() {
        return;
    }
    collector()
        .lock()
        .expect("perfmon collector poisoned")
        .extend(drained);
}

/// Flushes the calling thread and drains every record collected so far,
/// sorted by `(worker, start)` so reports are stable regardless of which
/// thread flushed first. Also returns the number of records dropped on
/// full buffers (0 for a trustworthy profile).
pub fn take_records() -> (Vec<PhaseRecord>, u64) {
    flush_thread();
    let mut records = std::mem::take(&mut *collector().lock().expect("perfmon collector poisoned"));
    records.sort_by_key(|r| (r.worker, r.start_ns, r.end_ns));
    (records, DROPPED.swap(0, Ordering::Relaxed))
}

/// Contention probe: acquires `m`, and if the lock was contended (the
/// uncontended `try_lock` failed), records the wait as a `name` phase
/// record. The uncontended fast path adds one `try_lock` and, while the
/// profiler is disabled, nothing else.
pub fn timed_lock<'a, T>(m: &'a Mutex<T>, name: &'static str) -> MutexGuard<'a, T> {
    if let Ok(g) = m.try_lock() {
        return g;
    }
    let start = now_ns();
    let g = m.lock().expect("timed_lock: mutex poisoned");
    record(name, start, now_ns());
    g
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static ALLOC_COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `(allocations, bytes)` performed by this thread since it started, as
/// counted by [`CountingAlloc`]. Zeros unless the binary installed the
/// counting allocator and the profiler has been enabled at least once.
pub fn thread_alloc_counts() -> (u64, u64) {
    let count = ALLOC_COUNT.try_with(Cell::get).unwrap_or(0);
    let bytes = ALLOC_BYTES.try_with(Cell::get).unwrap_or(0);
    (count, bytes)
}

/// A [`std::alloc::System`] wrapper that counts per-thread allocation
/// traffic for the profiler. Install it in a binary's root:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: simkit::perfmon::CountingAlloc = simkit::perfmon::CountingAlloc;
/// ```
///
/// Until the profiler is first enabled the counting branch is a single
/// relaxed load, so uninstrumented runs pay nothing measurable. Counters
/// are plain thread-local `Cell`s (no allocation, no locking), safe to
/// bump from inside the allocator itself.
pub struct CountingAlloc;

// SAFETY: delegates allocation to `System` verbatim; the bookkeeping
// touches only const-initialized thread-local `Cell`s, which never
// allocate or unwind.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
            let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        }
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
            let grown = new_size.saturating_sub(layout.size()) as u64;
            let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + grown));
        }
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

// ---------------------------------------------------------------------------
// Virtual-time telemetry sampler
// ---------------------------------------------------------------------------

/// One metric's sampled time series: `(virtual ns, value)` points, sparse
/// (a point is recorded only when the value changed since the previous
/// sample, plus the first sighting), ascending in time.
pub type Series = (String, Vec<(u64, f64)>);

struct TelemetryInner {
    series: RefCell<Vec<SeriesSlot>>,
    /// `name` → index into `series`, so each tick is a lookup per metric,
    /// not a re-sort.
    index: RefCell<std::collections::HashMap<String, usize>>,
    sample_every_ns: Cell<u64>,
    samples: Cell<u64>,
    active: Cell<bool>,
    truncated: Cell<bool>,
}

struct SeriesSlot {
    name: String,
    last: f64,
    points: Vec<(u64, f64)>,
}

/// Per-[`Sim`] telemetry store (`sim.telemetry()`); cheap to clone.
/// Inert until [`Telemetry::start`] spawns the sampling task.
#[derive(Clone)]
pub struct Telemetry {
    inner: Rc<TelemetryInner>,
}

impl Telemetry {
    pub(crate) fn new() -> Telemetry {
        Telemetry {
            inner: Rc::new(TelemetryInner {
                series: RefCell::new(Vec::new()),
                index: RefCell::new(std::collections::HashMap::new()),
                sample_every_ns: Cell::new(0),
                samples: Cell::new(0),
                active: Cell::new(false),
                truncated: Cell::new(false),
            }),
        }
    }

    /// Spawns the sampling task on `sim`: every `every` of *virtual* time
    /// it snapshots all numeric registry metrics into this store, up to
    /// `max_samples` ticks (a bound, so a deadlocked simulation still
    /// quiesces and a runaway run can't produce an unbounded timeline;
    /// hitting it sets [`Telemetry::truncated`]).
    ///
    /// The sampler is an observer: it reads metrics and virtual time and
    /// writes neither, so every other output of the run is byte-identical
    /// with sampling on or off.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero or the sampler was already started.
    pub fn start(&self, sim: &Sim, every: SimDuration, max_samples: u64) {
        assert!(!every.is_zero(), "telemetry sample interval must be > 0");
        assert!(
            !self.inner.active.get(),
            "telemetry sampler already started"
        );
        self.inner.active.set(true);
        self.inner.sample_every_ns.set(every.as_nanos());
        let tele = self.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            let stats = sim2.stats().clone();
            loop {
                if tele.inner.samples.get() >= max_samples {
                    tele.inner.truncated.set(true);
                    return;
                }
                tele.sample_now(&stats, sim2.now().as_nanos());
                sim2.sleep(every).await;
            }
        });
    }

    /// Whether [`Telemetry::start`] has been called on this store.
    pub fn is_active(&self) -> bool {
        self.inner.active.get()
    }

    /// The configured sampling interval in virtual nanoseconds (0 before
    /// [`Telemetry::start`]).
    pub fn sample_every_ns(&self) -> u64 {
        self.inner.sample_every_ns.get()
    }

    /// Number of sampling ticks taken so far.
    pub fn samples(&self) -> u64 {
        self.inner.samples.get()
    }

    /// Whether the sampler stopped early at its `max_samples` bound.
    pub fn truncated(&self) -> bool {
        self.inner.truncated.get()
    }

    fn sample_now(&self, stats: &StatsRegistry, t_ns: u64) {
        self.inner.samples.set(self.inner.samples.get() + 1);
        let mut series = self.inner.series.borrow_mut();
        let mut index = self.inner.index.borrow_mut();
        stats.for_each_numeric(|name, value| match index.get(name) {
            Some(&i) => {
                let slot = &mut series[i];
                if slot.last != value {
                    slot.last = value;
                    slot.points.push((t_ns, value));
                }
            }
            None => {
                index.insert(name.to_string(), series.len());
                series.push(SeriesSlot {
                    name: name.to_string(),
                    last: value,
                    points: vec![(t_ns, value)],
                });
            }
        });
    }

    /// Drains the sampled series, sorted by metric name (the sampling
    /// order is registration order, which is deterministic but not
    /// alphabetical; sorting keeps exports diff-friendly).
    pub fn take_series(&self) -> Vec<Series> {
        self.inner.index.borrow_mut().clear();
        let mut slots = std::mem::take(&mut *self.inner.series.borrow_mut());
        slots.sort_by(|a, b| a.name.cmp(&b.name));
        slots.into_iter().map(|s| (s.name, s.points)).collect()
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};

    /// The profiler's switch and collector are process-wide: tests that
    /// arm, disarm or drain them take this lock so the default parallel
    /// test runner cannot interleave them.
    static PROFILER: Mutex<()> = Mutex::new(());

    fn profiler_lock() -> MutexGuard<'static, ()> {
        PROFILER.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn phases_record_on_named_workers_and_merge() {
        let _serialize = profiler_lock();
        set_enabled(true);
        let _ = take_records(); // Discard records from other tests.
        {
            let _g = phase("test.outer");
            std::thread::scope(|s| {
                s.spawn(|| {
                    set_worker(3);
                    let _p = phase_labeled("test.inner", "run/x");
                });
            });
        }
        let (records, dropped) = take_records();
        set_enabled(false);
        assert_eq!(dropped, 0);
        let inner = records.iter().find(|r| r.name == "test.inner").unwrap();
        assert_eq!(inner.worker, 3);
        assert_eq!(inner.label.as_deref(), Some("run/x"));
        let outer = records.iter().find(|r| r.name == "test.outer").unwrap();
        assert_eq!(outer.worker, MAIN_THREAD);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _serialize = profiler_lock();
        set_enabled(false);
        {
            let _g = phase("test.ghost");
            record("test.ghost2", 0, 1);
        }
        let (records, _) = take_records();
        assert!(
            records.iter().all(|r| !r.name.starts_with("test.ghost")),
            "disabled profiler must not record"
        );
    }

    #[test]
    fn outermost_phase_close_flushes_to_the_collector() {
        let _serialize = profiler_lock();
        set_enabled(true);
        let _ = take_records();
        let (outer, inner) = std::thread::scope(|s| {
            s.spawn(|| {
                let outer = phase("test.flush.outer");
                drop(phase("test.flush.inner"));
                // Nested close: still buffered on this thread.
                let inner = collector()
                    .lock()
                    .unwrap()
                    .iter()
                    .any(|r| r.name == "test.flush.inner");
                drop(outer);
                // Outermost close: in the collector before the thread ends.
                let outer = collector()
                    .lock()
                    .unwrap()
                    .iter()
                    .any(|r| r.name == "test.flush.outer");
                (outer, inner)
            })
            .join()
            .unwrap()
        });
        let _ = take_records();
        set_enabled(false);
        assert!(!inner, "nested phase flushed before the outermost closed");
        assert!(outer, "outermost phase close did not flush");
    }

    #[test]
    fn timed_lock_returns_guard() {
        let m = Mutex::new(5u32);
        *timed_lock(&m, "lock.test") += 1;
        assert_eq!(*m.lock().unwrap(), 6);
    }

    #[test]
    fn sampler_records_changing_series_without_perturbing_stats() {
        let run = |sample: bool| {
            let sim = Sim::new();
            if sample {
                sim.telemetry()
                    .start(&sim, SimDuration::from_millis(1), 1000);
            }
            let c = sim.stats().counter("t.count");
            let s = sim.clone();
            sim.run_until(async move {
                for _ in 0..5 {
                    c.inc();
                    s.sleep(SimDuration::from_millis(2)).await;
                }
            });
            (sim.stats().to_json(), sim.telemetry().take_series())
        };
        let (stats_off, series_off) = run(false);
        let (stats_on, series_on) = run(true);
        assert_eq!(stats_off, stats_on, "sampling perturbed the metrics");
        assert!(series_off.is_empty());
        let (name, points) = &series_on[0];
        assert_eq!(name, "t.count");
        assert!(
            points.len() >= 5,
            "counter changes were sampled: {points:?}"
        );
        // Change-only: values strictly increase across recorded points.
        assert!(points.windows(2).all(|w| w[0].1 < w[1].1));
        // Virtual timestamps, ascending.
        assert!(points.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn sampler_stops_at_its_cap() {
        let sim = Sim::new();
        sim.telemetry().start(&sim, SimDuration::from_millis(1), 3);
        sim.stats().counter("x").inc();
        let s = sim.clone();
        sim.run_until(async move {
            s.sleep(SimDuration::from_millis(10)).await;
        });
        assert!(sim.telemetry().samples() <= 3);
    }

    #[test]
    fn identical_runs_sample_identical_series() {
        let run = || {
            let sim = Sim::new();
            sim.telemetry()
                .start(&sim, SimDuration::from_millis(1), 1000);
            let g = sim.stats().gauge("t.g");
            let s = sim.clone();
            sim.run_until(async move {
                for i in 0..4 {
                    g.set(i as f64);
                    s.sleep(SimDuration::from_millis(3)).await;
                }
            });
            sim.telemetry().take_series()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for ((na, pa), (nb, pb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(pa, pb);
        }
    }
}
