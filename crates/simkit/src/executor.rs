//! The deterministic single-threaded executor with a virtual clock.
//!
//! Simulated activities are ordinary Rust futures. The executor polls
//! runnable tasks until none remain, then advances the virtual clock to the
//! earliest pending timer and resumes. Determinism is total: there is no
//! wall-clock input, task wakeups are processed in FIFO order, and timers
//! that fire at the same instant are ordered by registration sequence.
//!
//! # Examples
//!
//! ```
//! use simkit::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let sim2 = sim.clone();
//! let answer = sim.run_until(async move {
//!     sim2.sleep(SimDuration::from_millis(10)).await;
//!     42
//! });
//! assert_eq!(answer, 42);
//! assert_eq!(sim.now().as_nanos(), 10_000_000);
//! ```

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use crate::perfmon::Telemetry;
use crate::stats::StatsRegistry;
use crate::time::{SimDuration, SimTime};
use crate::trace::Tracer;

/// Identifies a spawned task within one [`Sim`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TaskId(u64);

type BoxedFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A live task: its future plus its waker, created once at spawn so the
/// per-poll cost is a slab index, not an `Arc` allocation.
struct Task {
    fut: BoxedFuture,
    waker: Waker,
}

/// The cross-thread-safe half of the wakeup path.
///
/// Wakers must be `Send + Sync`, so the only state they touch is this
/// mutex-protected queue; the executor drains it into its local run queue.
struct WakeQueue {
    woken: Mutex<Vec<TaskId>>,
}

struct TaskWaker {
    id: TaskId,
    queue: Arc<WakeQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.queue
            .woken
            .lock()
            .expect("wake queue poisoned")
            .push(self.id);
    }
}

#[derive(PartialEq, Eq)]
struct TimerEntry {
    at: SimTime,
    seq: u64,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A read-only handle to a [`Sim`]'s virtual clock.
///
/// Long-lived observers stored *inside* the executor (the metrics
/// registry, the span tracer) hold this instead of a full `Sim`,
/// which would create an `Rc` cycle through `Inner`.
#[derive(Clone)]
pub struct TimeHandle {
    now: Rc<Cell<SimTime>>,
}

impl TimeHandle {
    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.now.get()
    }
}

struct Inner {
    now: Rc<Cell<SimTime>>,
    stats: StatsRegistry,
    tracer: Tracer,
    telemetry: Telemetry,
    next_task: Cell<u64>,
    next_timer_seq: Cell<u64>,
    /// Slab of live tasks indexed by `TaskId` (monotonic, never reused);
    /// a completed task leaves a `None` slot, which is also how stale
    /// wakeups are detected.
    tasks: RefCell<Vec<Option<Task>>>,
    live: Cell<usize>,
    run_queue: RefCell<VecDeque<TaskId>>,
    timers: RefCell<BinaryHeap<Reverse<(TimerEntry, WakerSlot)>>>,
    wake_queue: Arc<WakeQueue>,
    /// Drain buffer swapped with the wake queue so neither side
    /// reallocates in steady state.
    wake_scratch: RefCell<Vec<TaskId>>,
    polls: Cell<u64>,
    spawned: Cell<u64>,
}

/// Wrapper so `Waker` can live inside the ordered timer heap without
/// participating in the ordering.
struct WakerSlot(Waker);

impl PartialEq for WakerSlot {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for WakerSlot {}
impl PartialOrd for WakerSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WakerSlot {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

/// Handle to a simulation. Cheap to clone; all clones share the same world.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<Inner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation at `t = 0` with no tasks.
    pub fn new() -> Self {
        let now = Rc::new(Cell::new(SimTime::ZERO));
        let stats = StatsRegistry::new(TimeHandle {
            now: Rc::clone(&now),
        });
        let tracer = Tracer::with_time(TimeHandle {
            now: Rc::clone(&now),
        });
        Sim {
            inner: Rc::new(Inner {
                now,
                stats,
                tracer,
                telemetry: Telemetry::new(),
                next_task: Cell::new(0),
                next_timer_seq: Cell::new(0),
                tasks: RefCell::new(Vec::new()),
                live: Cell::new(0),
                run_queue: RefCell::new(VecDeque::new()),
                timers: RefCell::new(BinaryHeap::new()),
                wake_queue: Arc::new(WakeQueue {
                    woken: Mutex::new(Vec::new()),
                }),
                wake_scratch: RefCell::new(Vec::new()),
                polls: Cell::new(0),
                spawned: Cell::new(0),
            }),
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Returns a clock handle that reads this simulation's virtual time
    /// without keeping the executor alive.
    pub fn time_handle(&self) -> TimeHandle {
        TimeHandle {
            now: Rc::clone(&self.inner.now),
        }
    }

    /// The simulation-wide metrics registry. See [`crate::stats`].
    pub fn stats(&self) -> &StatsRegistry {
        &self.inner.stats
    }

    /// The simulation-wide span tracer (disabled by default). See
    /// [`crate::trace::Tracer`].
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The simulation's telemetry store (inert until
    /// [`Telemetry::start`] arms the sampling task). See
    /// [`crate::perfmon`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Spawns a task and returns a handle that can be awaited for its result.
    ///
    /// The task does not run until the executor is next driven by [`Sim::run`]
    /// or [`Sim::run_until`].
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            done: false,
            waiters: Vec::new(),
        }));
        let state2 = Rc::clone(&state);
        self.spawn_unit(async move {
            let value = fut.await;
            let mut st = state2.borrow_mut();
            st.result = Some(value);
            st.done = true;
            for w in st.waiters.drain(..) {
                w.wake();
            }
        });
        JoinHandle { state }
    }

    fn spawn_unit(&self, fut: impl Future<Output = ()> + 'static) -> TaskId {
        let id = TaskId(self.inner.next_task.get());
        self.inner.next_task.set(id.0 + 1);
        self.inner.spawned.set(self.inner.spawned.get() + 1);
        self.inner.live.set(self.inner.live.get() + 1);
        let waker = Waker::from(Arc::new(TaskWaker {
            id,
            queue: Arc::clone(&self.inner.wake_queue),
        }));
        let mut tasks = self.inner.tasks.borrow_mut();
        debug_assert_eq!(tasks.len() as u64, id.0);
        tasks.push(Some(Task {
            fut: Box::pin(fut),
            waker,
        }));
        drop(tasks);
        self.inner.run_queue.borrow_mut().push_back(id);
        id
    }

    /// Runs until no task is runnable and no timer is pending.
    ///
    /// Returns the final virtual time. Tasks still alive at return are
    /// deadlocked (blocked on events that can no longer fire); inspect
    /// [`Sim::live_tasks`] to detect this.
    ///
    /// Note: a perpetual daemon task (an infinite loop with sleeps) keeps
    /// the simulation alive forever; drive such worlds with
    /// [`Sim::run_until`] instead, which stops when its root task is done.
    pub fn run(&self) -> SimTime {
        self.run_with_stop(|| false);
        self.inner.now.get()
    }

    /// Core loop; stops early when `stop()` returns true (checked between
    /// task polls and before advancing the clock).
    fn run_with_stop(&self, stop: impl Fn() -> bool) {
        loop {
            self.drain_wakes();
            loop {
                if stop() {
                    return;
                }
                let next = self.inner.run_queue.borrow_mut().pop_front();
                match next {
                    Some(id) => {
                        self.poll_task(id);
                        self.drain_wakes();
                    }
                    None => break,
                }
            }
            if stop() {
                return;
            }
            // Nothing runnable: advance the clock to the earliest timer.
            let fired = self.inner.timers.borrow_mut().pop();
            match fired {
                Some(Reverse((entry, slot))) => {
                    debug_assert!(entry.at >= self.inner.now.get(), "timer in the past");
                    self.inner.now.set(entry.at);
                    slot.0.wake();
                }
                None => return,
            }
        }
    }

    /// Spawns `fut`, runs the simulation until `fut` completes, and returns
    /// its output. Other tasks (including perpetual daemons) are left in
    /// whatever state they reached; the world can be driven further with
    /// another `run_until` call.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs to quiescence without `fut` completing
    /// (a deadlock: `fut` is blocked on an event nothing will ever signal).
    pub fn run_until<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> T {
        let handle = self.spawn(fut);
        self.run_with_stop(|| handle.is_finished());
        match handle.try_take() {
            Some(v) => v,
            None => panic!(
                "run_until: simulation quiesced at {} without the root task \
                 completing ({} task(s) deadlocked)",
                self.now(),
                self.live_tasks()
            ),
        }
    }

    /// Returns a future that resolves after `d` of virtual time.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Returns a future that resolves at virtual time `at` (immediately if
    /// `at` has already passed).
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            at,
        }
    }

    /// Returns a future that yields once, letting other runnable tasks go
    /// first, and resumes at the same virtual instant.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { polled: false }
    }

    /// Number of tasks spawned over the lifetime of the simulation.
    pub fn spawned(&self) -> u64 {
        self.inner.spawned.get()
    }

    /// Number of `Future::poll` invocations performed so far.
    pub fn polls(&self) -> u64 {
        self.inner.polls.get()
    }

    /// Number of tasks that have not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.inner.live.get()
    }

    fn drain_wakes(&self) {
        let mut scratch = self.inner.wake_scratch.borrow_mut();
        debug_assert!(scratch.is_empty());
        {
            let mut q = self
                .inner
                .wake_queue
                .woken
                .lock()
                .expect("wake queue poisoned");
            if q.is_empty() {
                return;
            }
            // Swap rather than take: after a round trip both buffers keep
            // their capacity, so steady-state wakes never allocate.
            std::mem::swap(&mut *q, &mut *scratch);
        }
        let mut rq = self.inner.run_queue.borrow_mut();
        for id in scratch.drain(..) {
            rq.push_back(id);
        }
    }

    fn poll_task(&self, id: TaskId) {
        // Take the task out of its slot so the task body may reentrantly
        // spawn tasks or inspect the executor without aliasing the borrow.
        let task = self.inner.tasks.borrow_mut()[id.0 as usize].take();
        let Some(mut task) = task else {
            return; // Stale wakeup for a completed task.
        };
        let mut cx = Context::from_waker(&task.waker);
        self.inner.polls.set(self.inner.polls.get() + 1);
        match task.fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.inner.live.set(self.inner.live.get() - 1);
            }
            Poll::Pending => {
                self.inner.tasks.borrow_mut()[id.0 as usize] = Some(task);
            }
        }
    }

    /// Fast-forward used by [`Sleep`]: when the sleeping task is the only
    /// runnable work and no timer fires at or before `at`, advancing the
    /// clock in place is indistinguishable from suspending on a timer —
    /// the executor would immediately pop that timer, set the clock, and
    /// re-poll this task with nothing else observing the interval. Skipping
    /// the suspend/resume halves the cost of the `Cpu::charge` hot path.
    pub(crate) fn try_fast_forward(&self, at: SimTime) -> bool {
        if !self.inner.run_queue.borrow().is_empty() {
            return false;
        }
        if let Some(Reverse((entry, _))) = self.inner.timers.borrow().peek() {
            // `<=` keeps same-instant ordering: an already-registered timer
            // due at `at` must fire (and run its task) first.
            if entry.at <= at {
                return false;
            }
        }
        if !self
            .inner
            .wake_queue
            .woken
            .lock()
            .expect("wake queue poisoned")
            .is_empty()
        {
            return false;
        }
        self.inner.now.set(at);
        true
    }

    pub(crate) fn register_timer(&self, at: SimTime, waker: Waker) {
        let seq = self.inner.next_timer_seq.get();
        self.inner.next_timer_seq.set(seq + 1);
        self.inner
            .timers
            .borrow_mut()
            .push(Reverse((TimerEntry { at, seq }, WakerSlot(waker))));
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
///
/// When the sleeper is the only runnable work and no other timer is due
/// first, the first poll advances the virtual clock to the deadline and
/// completes immediately (see [`Sim`]'s fast-forward path). This is
/// invisible to tasks awaiting a `Sleep` directly, but it means racing two
/// `Sleep`s inside one task with a hand-rolled select would resolve the
/// first-polled one; run competing timers in separate tasks instead (the
/// codebase awaits every `Sleep` directly).
pub struct Sleep {
    sim: Sim,
    at: SimTime,
}

impl Sleep {
    /// The virtual instant this sleep resolves at.
    pub fn deadline(&self) -> SimTime {
        self.at
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.at || self.sim.try_fast_forward(self.at) {
            Poll::Ready(())
        } else {
            self.sim.register_timer(self.at, cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    done: bool,
    waiters: Vec<Waker>,
}

/// Awaitable handle to a spawned task's result.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Returns `true` once the task has run to completion.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().done
    }

    /// Takes the result if the task has completed and the result has not
    /// been consumed (by a prior `take` or by awaiting the handle).
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if st.done {
            Poll::Ready(
                st.result
                    .take()
                    .expect("JoinHandle polled after the result was consumed"),
            )
        } else {
            st.waiters.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn empty_sim_terminates_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.run(), SimTime::ZERO);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_millis(5)).await;
            assert_eq!(s.now().as_nanos(), 5_000_000);
            s.sleep(SimDuration::from_millis(7)).await;
            assert_eq!(s.now().as_nanos(), 12_000_000);
        });
        assert_eq!(sim.run().as_nanos(), 12_000_000);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Sim::new();
        let s = sim.clone();
        let t = sim.run_until(async move {
            s.sleep(SimDuration::ZERO).await;
            s.now()
        });
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    fn concurrent_sleeps_interleave_in_time_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        for (tag, delay) in [(1u32, 30u64), (2, 10), (3, 20)] {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(delay)).await;
                log.borrow_mut().push((s.now().as_nanos() / 1_000_000, tag));
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![(10, 2), (20, 3), (30, 1)]);
    }

    #[test]
    fn simultaneous_timers_fire_in_registration_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..5u32 {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(1)).await;
                log.borrow_mut().push(tag);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new();
        let s = sim.clone();
        let result = sim.run_until(async move {
            let h = s.spawn(async { 7 * 6 });
            h.await
        });
        assert_eq!(result, 42);
    }

    #[test]
    fn join_handle_across_sleep() {
        let sim = Sim::new();
        let s = sim.clone();
        let result = sim.run_until(async move {
            let s2 = s.clone();
            let h = s.spawn(async move {
                s2.sleep(SimDuration::from_secs(1)).await;
                "done"
            });
            h.await
        });
        assert_eq!(result, "done");
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn join_finished_task_without_awaiting() {
        let sim = Sim::new();
        let h = sim.spawn(async { 5u32 });
        sim.run();
        assert!(h.is_finished());
        assert_eq!(h.try_take(), Some(5));
        assert_eq!(h.try_take(), None, "result is consumed once");
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn run_until_panics_on_deadlock() {
        let sim = Sim::new();
        let s = sim.clone();
        // An event no one will ever signal.
        let ev = crate::sync::Event::new();
        sim.run_until(async move {
            let _ = s; // Keep a handle alive inside the task.
            ev.wait().await;
        });
    }

    #[test]
    fn yield_now_interleaves_tasks_at_same_instant() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..2u32 {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for _ in 0..3 {
                    log.borrow_mut().push(tag);
                    s.yield_now().await;
                }
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(sim.now(), SimTime::ZERO, "yield does not advance time");
    }

    #[test]
    fn nested_spawns_run() {
        let sim = Sim::new();
        let s = sim.clone();
        let total = sim.run_until(async move {
            let mut handles = Vec::new();
            for i in 0..10u64 {
                let s2 = s.clone();
                handles.push(s.spawn(async move {
                    s2.sleep(SimDuration::from_micros(i)).await;
                    i
                }));
            }
            let mut sum = 0;
            for h in handles {
                sum += h.await;
            }
            sum
        });
        assert_eq!(total, 45);
        assert_eq!(sim.spawned(), 11);
    }

    #[test]
    fn poll_counter_increments() {
        // A lone sleeper fast-forwards: the clock jumps on the first poll
        // and the task never suspends.
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move { s.sleep(SimDuration::from_millis(1)).await });
        assert_eq!(sim.polls(), 1, "lone sleep completes on its first poll");

        // With a competing earlier timer the sleeper must suspend and be
        // re-polled when its own timer fires.
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move { s.sleep(SimDuration::from_micros(100)).await });
        let s = sim.clone();
        sim.run_until(async move { s.sleep(SimDuration::from_millis(1)).await });
        assert!(sim.polls() >= 3, "suspended sleeps re-poll on wake");
    }
}
