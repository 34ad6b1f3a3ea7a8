//! perfbench: end-to-end and per-layer benchmark of the simulated storage
//! stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload seq_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The command runs repetitions of one workload until `--seconds` have
//! passed. Each repetition is a child process (this executable with
//! `--rep`) that builds one simulated world on one thread, runs the
//! workload once and reports raw measurements; the simulator's worlds
//! hold reference cycles through their perpetual daemon tasks, so a
//! process per repetition is what returns their memory and keeps the
//! peak-RSS figure per repetition. The parent checks the repetitions
//! against each other, prints a table, and ends with one JSON line.
//!
//! Host times are CPU time of the thread that drives the simulation. The
//! end-to-end ones are scaled to a reference host speed by a calibration
//! kernel each repetition runs before and after its work (see `calib`).
//!
//! `--trace 0` reports the end-to-end metrics from untraced repetitions.
//! `--trace 1` alternates untraced and traced repetitions and reports the
//! per-layer metrics.

mod calib;
mod host;
mod layers;
mod pattern;
mod stats;
mod tap;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use workload::{Plan, Rep, Workload};

#[global_allocator]
static ALLOC: simkit::perfmon::CountingAlloc = simkit::perfmon::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <seq_stream|random_update|raid5_mixed> \
--seed <u64> --seconds <1..=60> --trace <0|1>";

/// Repetitions of each kind a run makes even when `--seconds` is short.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rep: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rep = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--rep" {
            rep = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad())?;
                if !(1..=60).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: match (seconds, rep) {
            (Some(s), _) => s,
            (None, true) => 0,
            (None, false) => return Err("missing --seconds".into()),
        },
        trace: trace.ok_or("missing --trace")?,
        rep,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.rep {
        workload::install_panic_hook();
        let before = calib::kernel_s();
        let rep = workload::run_rep(args.workload, args.seed, args.trace);
        let after = calib::kernel_s();
        print_rep(&rep, (before + after) / 2.0);
        return ExitCode::SUCCESS;
    }
    match orchestrate(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Child: one repetition, reported as `key value` lines.
// ---------------------------------------------------------------------------

/// Prints `rep`, with `calib_s`, the CPU time of the calibration kernel
/// around it.
fn print_rep(rep: &Rep, calib_s: f64) {
    let c = &rep.calls;
    let mut lat = c.lat_ns.clone();
    lat.sort_unstable();
    let pct = |p| {
        if lat.is_empty() {
            0
        } else {
            stats::percentile(&lat, p)
        }
    };
    let s = &rep.setup;
    let lines: Vec<(&str, String)> = vec![
        ("completed", lat.len().to_string()),
        ("errors", c.errors.to_string()),
        ("mismatches", c.mismatches.to_string()),
        ("panicked", u8::from(rep.panic.is_some()).to_string()),
        ("user_bytes", c.user_bytes.to_string()),
        ("virt_s", format!("{:?}", rep.virt_s)),
        ("p50_ns", pct(50.0).to_string()),
        ("p99_ns", pct(99.0).to_string()),
        ("measured_host_s", format!("{:?}", rep.measured_host_s)),
        ("setup_s", format!("{:?}", s.total_s)),
        ("calib_s", format!("{calib_s:?}")),
        ("setup.device_s", format!("{:?}", s.device_s)),
        ("setup.cache_s", format!("{:?}", s.cache_s)),
        ("setup.mkfs_s", format!("{:?}", s.mkfs_s)),
        ("setup.mkfs_minflt", s.mkfs_minflt.to_string()),
        ("setup.mount_s", format!("{:?}", s.mount_s)),
        ("setup.format_s", format!("{:?}", s.format_s)),
        ("minflt", rep.minflt.to_string()),
        ("max_rss_kb", rep.max_rss_kb.to_string()),
        ("registry_digest", format!("{:016x}", rep.registry_digest)),
        ("check_errors", rep.check_errors.len().to_string()),
    ];
    for (k, v) in lines {
        println!("rep.{k} {v}");
    }
    if let Some(msg) = &rep.panic {
        println!("rep.panic {msg}");
    }
    if let Some(e) = rep.check_errors.first() {
        println!("rep.check_error {}", e.replace('\n', " "));
    }
    for (name, v) in &rep.layers {
        println!("layer.{name} {v:?}");
    }
    println!("rep.done 1");
}

// ---------------------------------------------------------------------------
// Parent: repetitions, cross-checks, report.
// ---------------------------------------------------------------------------

/// One child's report.
struct RepResult {
    traced: bool,
    values: BTreeMap<String, String>,
}

impl RepResult {
    fn text(&self, key: &str) -> &str {
        self.values.get(key).map_or("", String::as_str)
    }

    fn num(&self, key: &str) -> f64 {
        self.text(key).parse().unwrap_or(0.0)
    }

    /// A host time in CPU seconds, scaled to the reference host speed by
    /// this repetition's calibration.
    fn scaled(&self, key: &str) -> f64 {
        self.num(key) * calib::REF_S / self.num("rep.calib_s")
    }

    fn completed_ok(&self) -> bool {
        self.values.contains_key("rep.done")
    }

    /// Everything the simulation decides; identical across repetitions
    /// of one seed, traced or not.
    fn signature(&self) -> Vec<&str> {
        [
            "rep.completed",
            "rep.errors",
            "rep.mismatches",
            "rep.panicked",
            "rep.user_bytes",
            "rep.virt_s",
            "rep.p50_ns",
            "rep.p99_ns",
            "rep.registry_digest",
            "rep.check_errors",
        ]
        .iter()
        .map(|k| self.text(k))
        .collect()
    }
}

fn run_child(args: &Args, traced: bool) -> Result<RepResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--rep",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a repetition: {e}"))?;
    let mut values = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if let Some((k, v)) = line.split_once(' ') {
            values.insert(k.to_string(), v.to_string());
        }
    }
    if !out.status.success() {
        // A repetition that died outright finished none of its calls.
        values.clear();
        values.insert("rep.exit".into(), out.status.to_string());
    }
    Ok(RepResult { traced, values })
}

fn orchestrate(args: &Args) -> Result<(), String> {
    let kinds: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut reps: Vec<RepResult> = Vec::new();
    while reps.len() < MIN_REPS * kinds.len() || started.elapsed() < budget {
        for &traced in kinds {
            reps.push(run_child(args, traced)?);
        }
    }
    let report = Report::new(args, &reps)?;
    report.print(args);
    Ok(())
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

struct Report<'a> {
    /// Repetitions that ran to the end of their report, by kind.
    untraced: Vec<&'a RepResult>,
    traced: Vec<&'a RepResult>,
    all: &'a [RepResult],
    /// Calls one repetition plans.
    planned: u64,
    /// Outputs that were wrong: bad read bytes, a failed file system
    /// check, or simulated results that differ between repetitions. Any
    /// of these makes the run incorrect.
    wrong: BTreeSet<String>,
    /// Calls that never produced an output (errors, panics, dead
    /// repetitions); counted in `failed`.
    failures: BTreeSet<String>,
}

impl<'a> Report<'a> {
    fn new(args: &Args, reps: &'a [RepResult]) -> Result<Report<'a>, String> {
        let done = |traced: bool| -> Vec<&RepResult> {
            reps.iter()
                .filter(|r| r.traced == traced && r.completed_ok())
                .collect()
        };
        let (untraced, traced) = (done(false), done(true));
        let planned = Plan::new(args.workload, args.seed).planned_calls();
        if untraced.is_empty() || (args.trace && traced.is_empty()) {
            return Err("every repetition of a kind died; nothing to report".into());
        }
        let mut wrong = BTreeSet::new();
        let mut failures = BTreeSet::new();
        for r in reps {
            if !r.completed_ok() {
                failures.insert(format!(
                    "a repetition exited abnormally ({})",
                    r.text("rep.exit")
                ));
            }
            if r.num("rep.panicked") > 0.0 {
                failures.insert(format!(
                    "panic after {} of {planned} calls: {}",
                    r.text("rep.completed"),
                    r.text("rep.panic")
                ));
            }
            if r.num("rep.errors") > 0.0 {
                failures.insert(format!("{} calls returned errors", r.text("rep.errors")));
            }
            if r.num("rep.mismatches") > 0.0 {
                wrong.insert(format!(
                    "{} reads returned wrong bytes",
                    r.text("rep.mismatches")
                ));
            }
            if r.num("rep.check_errors") > 0.0 {
                wrong.insert(format!(
                    "file system check found {} problems, first: {}",
                    r.text("rep.check_errors"),
                    r.text("rep.check_error")
                ));
            }
        }
        let first = untraced[0].signature();
        if untraced
            .iter()
            .chain(&traced)
            .any(|r| r.signature() != first)
        {
            wrong.insert(format!(
                "simulated results differ between repetitions of seed {} \
                 (traced and untraced must match exactly)",
                args.seed
            ));
        }
        Ok(Report {
            untraced,
            traced,
            all: reps,
            planned,
            wrong,
            failures,
        })
    }

    fn median(reps: &[&RepResult], f: impl Fn(&RepResult) -> f64) -> f64 {
        let v: Vec<f64> = reps.iter().map(|r| f(r)).collect();
        stats::median(&v)
    }

    /// `(attempted, failed)` over every repetition: calls that errored,
    /// reads with wrong bytes, and planned calls that never completed.
    fn attempted_failed(&self) -> (u64, u64) {
        let planned = self.planned;
        let failed: u64 = self
            .all
            .iter()
            .map(|r| {
                let unfinished = planned.saturating_sub(r.num("rep.completed") as u64);
                let failed = (r.num("rep.errors") + r.num("rep.mismatches")) as u64 + unfinished;
                failed.min(planned)
            })
            .sum();
        (planned * self.all.len() as u64, failed)
    }

    /// The end-to-end metrics, from the untraced repetitions. Host times
    /// are scaled to the reference host speed (see `calib`).
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let u = &self.untraced;
        let r0 = u[0];
        let mib = (1u64 << 20) as f64;
        let (attempted, failed) = self.attempted_failed();
        vec![
            ("setup_s", Self::median(u, |r| r.scaled("rep.setup_s")), "s"),
            (
                "sim_mb_per_host_s",
                Self::median(u, |r| {
                    r.num("rep.user_bytes") / mib / r.scaled("rep.measured_host_s")
                }),
                "MB/s",
            ),
            (
                "peak_rss_mb",
                Self::median(u, |r| r.num("rep.max_rss_kb") / 1024.0),
                "MB",
            ),
            (
                "sim_kb_per_s",
                r0.num("rep.user_bytes") / 1024.0 / r0.num("rep.virt_s"),
                "KB/s",
            ),
            (
                "sim_op_p50_ms",
                r0.num("rep.p50_ns") / 1e6,
                layers::VIRTUAL_MS,
            ),
            (
                "sim_op_p99_ms",
                r0.num("rep.p99_ns") / 1e6,
                layers::VIRTUAL_MS,
            ),
            (
                "op_error_rate",
                failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
        ]
    }

    /// The per-layer metrics, in catalogue order: medians over the traced
    /// repetitions, plus those measured against the untraced ones.
    fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let t = &self.traced;
        let u = &self.untraced;
        let mib = (1u64 << 20) as f64;
        let ms = |key: &'static str| move |r: &RepResult| r.num(key) * 1e3;
        let untraced_host = Self::median(u, |r| r.scaled("rep.measured_host_s"));
        let traced_host = Self::median(t, |r| r.scaled("rep.measured_host_s"));
        let from_untraced = [
            (
                "simkit.trace_overhead_frac",
                traced_host / untraced_host - 1.0,
            ),
            (
                "diskmodel.new_host_ms",
                Self::median(u, ms("rep.setup.device_s")),
            ),
            (
                "pagecache.new_host_ms",
                Self::median(u, ms("rep.setup.cache_s")),
            ),
            (
                "vfs.minflt_per_mb",
                Self::median(u, |r| r.num("rep.minflt") / (r.num("rep.user_bytes") / mib)),
            ),
            ("ufs.mkfs_host_ms", Self::median(u, ms("rep.setup.mkfs_s"))),
            (
                "ufs.mount_host_ms",
                Self::median(u, ms("rep.setup.mount_s")),
            ),
            (
                "ufs.mkfs_minflt",
                Self::median(u, |r| r.num("rep.setup.mkfs_minflt")),
            ),
            (
                "extentfs.format_host_ms",
                Self::median(u, ms("rep.setup.format_s")),
            ),
        ];
        layers::CATALOGUE
            .iter()
            .map(|&(name, unit)| {
                let v = match from_untraced.iter().find(|(n, _)| *n == name) {
                    Some(&(_, v)) => v,
                    None => {
                        let key = format!("layer.{name}");
                        assert!(
                            t[0].values.contains_key(&key),
                            "traced repetition did not report {name}"
                        );
                        Self::median(t, |r| r.num(&key))
                    }
                };
                (name, v, unit)
            })
            .collect()
    }

    fn print(&self, args: &Args) {
        let r0 = self.untraced[0];
        println!(
            "perfbench {} seed={} repetitions: {} untraced, {} traced",
            args.workload.name(),
            args.seed,
            self.untraced.len(),
            self.traced.len()
        );
        let samples = r0.num("rep.completed") as usize;
        println!(
            "latency samples per repetition: {samples} ({} beyond p99)",
            stats::beyond(samples, 99.0)
        );
        let u = &self.untraced;
        println!(
            "host calibration kernel: median {:.3} ms (reference {:.3} ms); \
             unscaled medians: setup {:.4} s, {:.1} MB/s",
            Self::median(u, |r| r.num("rep.calib_s")) * 1e3,
            calib::REF_S * 1e3,
            Self::median(u, |r| r.num("rep.setup_s")),
            Self::median(u, |r| {
                r.num("rep.user_bytes") / (1u64 << 20) as f64 / r.num("rep.measured_host_s")
            }),
        );
        let e2e = self.end_to_end();
        println!("end-to-end (untraced, host times scaled to the reference speed):");
        for (name, v, unit) in &e2e {
            println!("  {name:<22} {v:>14.4} {unit}");
        }
        let (attempted, failed) = self.attempted_failed();
        let correct = self.wrong.is_empty();
        for w in &self.wrong {
            println!("  WRONG: {w}");
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        if r0.num("rep.panicked") > 0.0 {
            println!(
                "  (the figures above cover the {} calls completed before the panic)",
                r0.text("rep.completed")
            );
        }
        let metrics: Vec<(&str, f64, &str)> = if args.trace {
            let layers = self.per_layer();
            println!("per-layer (traced):");
            for (name, v, unit) in &layers {
                println!("  {name:<38} {v:>14.4} {unit}");
            }
            layers
        } else {
            e2e.into_iter()
                .filter(|(n, _, _)| *n != "op_error_rate")
                .collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", fmt_num(*v)))
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }
}
