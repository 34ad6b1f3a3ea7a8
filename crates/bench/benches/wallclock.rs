//! Wall-clock (host-time) benchmark suite: times canonical `iobench`
//! experiment runs with `std::time::Instant` and writes the results as
//! `BENCH_iobench.json` (schema `iobench-bench/v3`, documented in
//! DESIGN.md "Wall-clock performance").
//!
//! Where `iobench` reports virtual time, this harness answers "how long
//! does the simulator take on this machine" — the number the hot-path
//! optimizations and the `--jobs` fan-out move — and measures the parallel speedup of the Figure 10 matrix at jobs=1 vs
//! jobs=N on the current host. After the timed loops, one extra
//! profiler-instrumented pass (`simkit::perfmon`) captures per-worker
//! busy/idle utilization, so a disappointing speedup arrives with its
//! diagnosis attached. A speedup below 1.0x raises the document's
//! `attention` marker, which `scripts/bench.sh` turns into a loud warning.
//!
//! ```text
//! cargo bench -p bench --bench wallclock -- [--smoke] [--jobs N] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the workload for CI (tiny files, one sample).

use std::time::Instant;

use iobench::experiments::{extents_run, fig10_cell, fig10_run, streams_run, RunScale};
use iobench::perfout::HostProfile;
use iobench::readahead::readahead_run;
use iobench::runner::Runner;
use iobench::{Config, IoKind};
use simkit::perfmon;

/// Counting allocator so the instrumented pass reports allocation churn
/// alongside utilization. Pass-through (and uncounted) while disabled.
#[global_allocator]
static ALLOC: perfmon::CountingAlloc = perfmon::CountingAlloc;

/// Small enough for a CI smoke job.
fn smoke_scale() -> RunScale {
    RunScale {
        file_bytes: 1 << 20,
        random_ops: 32,
        cpu_file_bytes: 1 << 20,
    }
}

struct Sampled {
    name: &'static str,
    millis: Vec<f64>,
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

fn sample(name: &'static str, samples: usize, mut f: impl FnMut()) -> Sampled {
    let millis = (0..samples).map(|_| time_ms(&mut f)).collect();
    let s = Sampled { name, millis };
    eprintln!(
        "  {:<24} mean {:>10.1} ms  ({} sample(s))",
        s.name,
        mean(&s.millis),
        samples
    );
    s
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn min(v: &[f64]) -> f64 {
    v.iter().cloned().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().cloned().fold(0.0, f64::max)
}

fn main() {
    simkit::tune_host_allocator();
    // Cargo invokes every `harness = false` bench binary with a trailing
    // `--bench` flag; swallow it alongside our own flags.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_iobench.json");
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => {}
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out requires a path").clone();
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|a| a.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--jobs requires a positive count");
            }
            other => {
                eprintln!("wallclock: ignoring unknown argument {other}");
            }
        }
        i += 1;
    }

    let (mode, scale, samples) = if smoke {
        ("smoke", smoke_scale(), 1)
    } else {
        ("full", RunScale::quick(), 3)
    };
    eprintln!("wallclock bench: mode={mode} jobs={jobs} samples={samples}");

    // Canonical single-run workloads (serial: measures the per-run hot
    // path, not the fan-out).
    let serial = Runner::serial(None);
    let results = [
        sample("fig10_A_FSR", samples, || {
            fig10_cell(Config::A, IoKind::SeqRead, scale, None);
        }),
        sample("fig10_D_FSR", samples, || {
            fig10_cell(Config::D, IoKind::SeqRead, scale, None);
        }),
        sample("streams_4", samples, || {
            streams_run(4, scale, &serial);
        }),
        sample("aging_extents", samples, || {
            extents_run(true, &serial);
        }),
        sample("readahead_sweep", samples, || {
            readahead_run(scale, &serial);
        }),
    ];

    // Parallel fan-out: the full Figure 10 matrix, serial vs all cores.
    // Best-of-N (min) is the noise-robust wall-clock estimator: on a
    // loaded host the min approaches the true cost, the mean does not.
    eprintln!("  fig10 matrix, jobs=1 vs jobs={jobs}...");
    let matrix = |jobs: usize| {
        min(&(0..samples.max(2))
            .map(|_| {
                time_ms(|| {
                    fig10_run(scale, &Runner::new(jobs, None));
                })
            })
            .collect::<Vec<_>>())
    };
    let jobs1_ms = matrix(1);
    let jobsn_ms = matrix(jobs);
    let speedup = jobs1_ms / jobsn_ms;
    eprintln!(
        "  fig10 matrix: jobs=1 {jobs1_ms:.0} ms, jobs={jobs} {jobsn_ms:.0} ms, speedup {speedup:.2}x"
    );

    // One instrumented pass at jobs=N for per-worker utilization. Kept
    // out of the timed loops above so profiling overhead (small as it is)
    // never touches the published numbers.
    perfmon::set_enabled(true);
    let _ = perfmon::take_records();
    fig10_run(scale, &Runner::new(jobs, None));
    perfmon::set_enabled(false);
    let (records, dropped) = perfmon::take_records();
    let profile = HostProfile::build(&records, dropped);
    for w in &profile.workers {
        eprintln!(
            "  worker {:<3} busy {:>8.1} ms  idle {:>8.1} ms  util {:>5.1}%",
            w.worker,
            w.busy_ns as f64 / 1e6,
            w.idle_ns as f64 / 1e6,
            w.utilization * 100.0
        );
    }
    // The marker a wrapper can grep without parsing: nonzero means "this
    // run needs a human's attention" (today: the fan-out made it slower).
    // On a single-core host no speedup is possible, so the marker would
    // only ever cry wolf — suppress it there.
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let attention: u32 = u32::from(speedup < 1.0 && host_cores > 1);
    if attention != 0 {
        eprintln!(
            "  ATTENTION: parallel speedup {speedup:.2}x < 1.0x — the jobs={jobs} \
             fan-out is slower than serial; see the worker table above"
        );
    }

    let benches = results
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"samples\":{},\"mean_ms\":{:.3},\"min_ms\":{:.3},\"max_ms\":{:.3}}}",
                s.name,
                s.millis.len(),
                mean(&s.millis),
                min(&s.millis),
                max(&s.millis)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let workers = profile
        .workers
        .iter()
        .map(|w| {
            format!(
                "{{\"worker\":{},\"busy_ms\":{:.3},\"idle_ms\":{:.3},\"utilization\":{:.4}}}",
                w.worker,
                w.busy_ns as f64 / 1e6,
                w.idle_ns as f64 / 1e6,
                w.utilization
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let doc = format!(
        "{{\"schema\":\"iobench-bench/v3\",\"mode\":\"{mode}\",\"jobs\":{jobs},\
         \"host_cores\":{host_cores},\"attention\":{attention},\"benches\":[{benches}],\
         \"parallel\":{{\"workload\":\"fig10_matrix\",\"jobs1_ms\":{jobs1_ms:.3},\
         \"jobsN_ms\":{jobsn_ms:.3},\"speedup\":{speedup:.3},\
         \"coverage\":{:.4},\"workers\":[{workers}]}}}}\n",
        profile.coverage
    );
    std::fs::write(&out, doc).expect("write BENCH_iobench.json");
    eprintln!("wrote {out}");
}
