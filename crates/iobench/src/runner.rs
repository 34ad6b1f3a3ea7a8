//! Parallel run fan-out for experiments.
//!
//! Each experiment describes its simulated runs as a list of [`RunPlan`]s —
//! independent closures that build and drive a fresh [`Sim`] — and hands
//! them to a [`Runner`], which executes them across worker threads
//! (`iobench --jobs N`). A `Sim` is `Rc`/`RefCell`-based and `!Send`, so
//! each run is constructed *and* executed entirely on one worker thread;
//! only the run's plain-data outcome (the experiment's value, the
//! serialized metrics snapshot, the drained spans, the sampled timeline)
//! crosses back.
//!
//! Determinism contract: every run is a pure function of virtual time, and
//! outcomes are re-emitted to the [`StatsSink`] in plan order on the
//! calling thread — so stdout, `--stats-json`, `--trace`, and `--timeline`
//! are byte-identical for any `--jobs` value (see DESIGN.md "Wall-clock
//! performance").
//!
//! The runner is also the primary subject of the wall-clock profiler
//! (`simkit::perfmon`, behind `iobench --perf`): every stage of a run's
//! life is a named phase — `worker.lifetime` brackets each worker thread
//! (and the serial loop), `runner.pickup` the work-stealing claim,
//! `run.setup`/`run.drive`/`run.capture` the run itself (drive is labeled
//! with the run id), `runner.fanout_wait` the main thread's join, and
//! `runner.emit` the plan-order re-emit. Contended acquisitions of the
//! queue and outcome slots surface as `lock.queue`/`lock.outcome` records,
//! so cross-thread blocking is measured rather than guessed at. None of
//! this touches virtual time: profiled runs produce byte-identical
//! virtual-time outputs.

use simkit::perfmon::{self, Series};
use simkit::{Sim, SimDuration, Span};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::experiments::StatsSink;

/// What a worker captures from a run, derived from the sink once up front
/// so workers never touch the (non-`Sync`) sink itself.
#[derive(Clone, Copy)]
struct RunSpec {
    tracing: bool,
    capture: bool,
    /// Telemetry sampling interval (the sink's), when sampling.
    sample_every: Option<SimDuration>,
}

/// A finished run parked in its plan-order slot until the scope joins.
type DoneSlot<T> = Mutex<Option<(String, RunOutcome<T>)>>;

/// Everything that leaves a worker thread for one run.
struct RunOutcome<T> {
    value: T,
    stats_json: Option<String>,
    spans: Vec<Span>,
    timeline: Vec<Series>,
}

/// One independent simulated run: an id (`experiment/run` path style, e.g.
/// `fig10/A/FSR`) plus a closure that drives a fresh sim to the
/// experiment's value.
pub struct RunPlan<T> {
    id: String,
    body: Box<dyn FnOnce(&Sim) -> T + Send>,
}

impl<T> RunPlan<T> {
    /// A plan that runs `body` against a sim the runner builds for it.
    pub fn new(id: impl Into<String>, body: impl FnOnce(&Sim) -> T + Send + 'static) -> RunPlan<T> {
        RunPlan {
            id: id.into(),
            body: Box::new(body),
        }
    }
}

/// Builds the run's sim, drives the plan, and packages what must cross
/// back to the calling thread. Runs entirely on one thread.
fn execute<T>(spec: RunSpec, plan: RunPlan<T>) -> (String, RunOutcome<T>) {
    let setup = perfmon::phase("run.setup");
    let sim = Sim::new();
    if spec.tracing {
        sim.tracer().set_enabled(true);
    }
    if let Some(every) = spec.sample_every {
        sim.telemetry()
            .start(&sim, every, StatsSink::MAX_SAMPLES_PER_RUN);
    }
    drop(setup);
    let value = {
        let _drive = perfmon::phase_labeled("run.drive", &plan.id);
        (plan.body)(&sim)
    };
    let _capture = perfmon::phase("run.capture");
    let stats_json = spec.capture.then(|| sim.stats().to_json());
    let spans = if spec.tracing {
        sim.tracer().take_spans()
    } else {
        Vec::new()
    };
    let timeline = if spec.sample_every.is_some() {
        sim.telemetry().take_series()
    } else {
        Vec::new()
    };
    (
        plan.id,
        RunOutcome {
            value,
            stats_json,
            spans,
            timeline,
        },
    )
}

/// Executes [`RunPlan`]s across up to `jobs` OS threads, then re-emits
/// outcomes (sink pushes, return order) in deterministic plan order.
pub struct Runner<'a> {
    jobs: usize,
    sink: Option<&'a StatsSink>,
}

impl<'a> Runner<'a> {
    /// A runner using up to `jobs` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero (the CLI rejects it earlier with usage).
    pub fn new(jobs: usize, sink: Option<&'a StatsSink>) -> Runner<'a> {
        assert!(jobs >= 1, "jobs must be at least 1");
        Runner { jobs, sink }
    }

    /// A single-threaded runner: behaves exactly like the pre-parallel
    /// harness (runs execute in plan order on the calling thread).
    pub fn serial(sink: Option<&'a StatsSink>) -> Runner<'a> {
        Runner::new(1, sink)
    }

    /// The worker-thread budget.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The attached sink, if any.
    pub fn sink(&self) -> Option<&'a StatsSink> {
        self.sink
    }

    /// Executes the plans — concurrently when this runner has more than
    /// one job — and returns their values in plan order. Metrics
    /// snapshots, spans, and timelines reach the sink in plan order
    /// regardless of which worker finished first.
    pub fn run<T: Send>(&self, plans: Vec<RunPlan<T>>) -> Vec<T> {
        let spec = RunSpec {
            tracing: self.sink.is_some_and(|s| s.tracing()),
            capture: self.sink.is_some(),
            sample_every: self.sink.and_then(|s| s.sample_every()),
        };
        let n = plans.len();
        let workers = self.jobs.min(n);
        let outcomes: Vec<(String, RunOutcome<T>)> = if workers <= 1 {
            // The serial loop is "worker 0" in the host profile so serial
            // and parallel reports share one shape.
            perfmon::set_worker(0);
            let lifetime = perfmon::phase("worker.lifetime");
            let out: Vec<_> = plans.into_iter().map(|p| execute(spec, p)).collect();
            drop(lifetime);
            perfmon::set_worker(perfmon::MAIN_THREAD);
            out
        } else {
            // Work-stealing by atomic index: each worker claims the next
            // unclaimed plan, runs it to completion, and parks the outcome
            // in its slot. `thread::scope` joins (and propagates panics)
            // before we read the slots back in order.
            let queue: Vec<Mutex<Option<RunPlan<T>>>> =
                plans.into_iter().map(|p| Mutex::new(Some(p))).collect();
            let done: Vec<DoneSlot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            let _wait = perfmon::phase("runner.fanout_wait");
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let (queue, done, next) = (&queue, &done, &next);
                    scope.spawn(move || {
                        perfmon::set_worker(w as u32);
                        // Closing this outermost phase flushes the worker's
                        // records, before `thread::scope` sees it finish.
                        let _lifetime = perfmon::phase("worker.lifetime");
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let plan = {
                                let _pickup = perfmon::phase("runner.pickup");
                                perfmon::timed_lock(&queue[i], "lock.queue")
                                    .take()
                                    .expect("plan claimed twice")
                            };
                            let outcome = execute(spec, plan);
                            *perfmon::timed_lock(&done[i], "lock.outcome") = Some(outcome);
                        }
                    });
                }
            });
            done.into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("worker poisoned its outcome slot")
                        .expect("worker finished without an outcome")
                })
                .collect()
        };
        let _emit = perfmon::phase("runner.emit");
        outcomes
            .into_iter()
            .map(|(id, out)| {
                if let Some(sink) = self.sink {
                    sink.push_outcome(&id, out.stats_json, out.spans, out.timeline);
                }
                out.value
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plans(n: usize) -> Vec<RunPlan<usize>> {
        (0..n)
            .map(|i| RunPlan::new(format!("test/{i}"), move |_sim| i * 10))
            .collect()
    }

    #[test]
    fn serial_preserves_plan_order() {
        let out = Runner::serial(None).run(plans(5));
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn parallel_preserves_plan_order() {
        let out = Runner::new(4, None).run(plans(9));
        assert_eq!(out, (0..9).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sink_receives_outcomes_in_plan_order() {
        let serial = StatsSink::new();
        Runner::serial(Some(&serial)).run(plans(6));
        let parallel = StatsSink::new();
        Runner::new(3, Some(&parallel)).run(plans(6));
        assert_eq!(serial.runs(), parallel.runs());
        assert_eq!(
            serial
                .runs()
                .iter()
                .map(|(id, _)| id.clone())
                .collect::<Vec<_>>(),
            (0..6).map(|i| format!("test/{i}")).collect::<Vec<_>>()
        );
    }

    #[test]
    fn more_jobs_than_plans_is_fine() {
        let out = Runner::new(16, None).run(plans(2));
        assert_eq!(out, vec![0, 10]);
    }

    #[test]
    fn sampling_sink_collects_timelines_in_plan_order() {
        let sampled = |jobs: usize| {
            let sink = StatsSink::with_capture(false, Some(simkit::SimDuration::from_millis(1)));
            let plans: Vec<RunPlan<()>> = (0..4)
                .map(|i| {
                    RunPlan::new(format!("test/{i}"), move |sim: &Sim| {
                        let c = sim.stats().counter("t.work");
                        let s = sim.clone();
                        sim.run_until(async move {
                            for _ in 0..=i {
                                c.inc();
                                s.sleep(simkit::SimDuration::from_millis(2)).await;
                            }
                        });
                    })
                })
                .collect();
            Runner::new(jobs, Some(&sink)).run(plans);
            sink.timeline_json("test")
        };
        let serial = sampled(1);
        let parallel = sampled(4);
        assert_eq!(serial, parallel, "timelines are jobs-invariant");
        assert!(serial.contains("\"t.work\""), "{serial}");
        assert!(serial.contains("iobench-timeline/v1"));
    }
}
