//! Per-layer metrics of a traced repetition, read from outside the
//! program: deltas of the layers' own registry counters over the measured
//! phase, virtual self time from the span tree, host cost of the
//! benchmark's calls, and the device replays.

use std::collections::{BTreeMap, HashMap};

use simkit::{Sim, SimTime, Span};

use crate::tap::Replay;
use crate::workload::Calls;

/// Unit of a virtual-time (simulated clock) figure, kept apart from host
/// milliseconds: it is deterministic for a given seed by design.
pub const VIRTUAL_MS: &str = "virtual_ms";

/// Every per-layer metric, with its unit, in report order. Set-up costs,
/// page faults and the tracing overhead are computed by the caller from
/// the untraced repetitions; the rest come from [`per_layer`].
pub const CATALOGUE: &[(&str, &str)] = &[
    ("simkit.trace_overhead_frac", "ratio"),
    ("diskmodel.new_host_ms", "ms"),
    ("pagecache.new_host_ms", "ms"),
    ("vfs.minflt_per_mb", "count/MB"),
    ("ufs.mkfs_host_ms", "ms"),
    ("ufs.mount_host_ms", "ms"),
    ("ufs.mkfs_minflt", "count"),
    ("extentfs.format_host_ms", "ms"),
    ("simkit.polls_per_op", "count"),
    ("simkit.tasks_spawned", "count"),
    ("diskmodel.requests", "count"),
    ("diskmodel.kb_per_request", "KB"),
    ("diskmodel.busy_ms", VIRTUAL_MS),
    ("diskmodel.rot_wait_ms", VIRTUAL_MS),
    ("diskmodel.seek_ms", VIRTUAL_MS),
    ("diskmodel.queue_wait_ms", VIRTUAL_MS),
    ("diskmodel.trackbuf_hit_ratio", "ratio"),
    ("diskmodel.io_errors", "count"),
    ("diskmodel.replay_host_us_per_request", "us"),
    ("diskmodel.replay_allocs_per_request", "count"),
    ("diskmodel.replay_busy_diff_frac", "ratio"),
    ("diskmodel.virt_self_ms", VIRTUAL_MS),
    ("volmgr.child_requests_per_request", "count"),
    ("volmgr.spindle_busy_max_over_mean", "ratio"),
    ("volmgr.replay_host_us_per_request", "us"),
    ("volmgr.virt_self_ms", VIRTUAL_MS),
    ("pagecache.hit_ratio", "ratio"),
    ("pagecache.reclaims", "count"),
    ("pagecache.alloc_stall_ms", VIRTUAL_MS),
    ("pagecache.pageout_freed", "count"),
    ("pagecache.virt_self_ms", VIRTUAL_MS),
    ("vfs.read_host_us", "us"),
    ("vfs.write_host_us", "us"),
    ("vfs.fsync_host_ms", "ms"),
    ("vfs.allocs_per_mb", "count/MB"),
    ("vfs.prefetch_issued", "count"),
    ("vfs.prefetch_hit_ratio", "ratio"),
    ("vfs.prefetch_wasted_kb", "KB"),
    ("vfs.cluster_read_blocks_mean", "blocks"),
    ("vfs.cluster_write_blocks_mean", "blocks"),
    ("vfs.virt_self_ms", VIRTUAL_MS),
    ("core.throttle_stall_ms", VIRTUAL_MS),
    ("core.free_behind_pages", "count"),
    ("ufs.bmap_calls_per_block", "count"),
    ("ufs.sync_reads", "count"),
    ("ufs.virt_self_ms", VIRTUAL_MS),
    ("extentfs.mean_extent_blocks", "blocks"),
    ("extentfs.extents_per_file", "count"),
    ("extentfs.virt_self_ms", VIRTUAL_MS),
];

/// Every numeric registry reading at one instant, plus executor counts.
pub struct Snapshot {
    values: BTreeMap<String, f64>,
    /// `(count, sum)` of the per-stream cluster-size histograms.
    hists: BTreeMap<String, (u64, u64)>,
    pub polls: u64,
    pub spawned: u64,
}

impl Snapshot {
    pub fn take(sim: &Sim) -> Snapshot {
        let stats = sim.stats();
        let mut values = BTreeMap::new();
        stats.for_each_numeric(|name, v| {
            values.insert(name.to_string(), v);
        });
        let hists = values
            .keys()
            .filter(|n| n.starts_with("iopath.cluster_"))
            .filter_map(|n| stats.histogram_totals(n).map(|t| (n.clone(), t)))
            .collect();
        Snapshot {
            values,
            hists,
            polls: sim.polls(),
            spawned: sim.spawned(),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every metric named `prefix…` (labelled families).
    fn sum_prefix(&self, prefix: &str) -> f64 {
        self.values
            .range(prefix.to_string()..)
            .take_while(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// `(count, sum)` over every histogram named `prefix…`.
    fn hist_prefix(&self, prefix: &str) -> (u64, u64) {
        self.hists
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .fold((0, 0), |(c, s), (_, &(dc, ds))| (c + dc, s + ds))
    }
}

/// Device replays of one traced repetition.
pub struct Replays {
    /// The drive or drives: the lone disk, or the array's spindles.
    pub disk: Replay,
    /// The array as a whole (`raid5_mixed` only).
    pub volume: Option<Replay>,
    /// The traced run's `disk.busy_ns` when the logs were replayed.
    pub traced_busy_ns: u64,
    /// Submissions logged in the measured phase at the array and at its
    /// spindles (`raid5_mixed` only).
    pub measured_submits: Option<(u64, u64)>,
}

pub struct Inputs<'a> {
    pub sim: &'a Sim,
    /// The file system is extentfs (on the array), not UFS.
    pub ext: bool,
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
    pub spans: &'a [Span],
    pub t_end: SimTime,
    pub calls: &'a Calls,
    pub allocs: u64,
    pub replays: Replays,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The layer a span name belongs to.
fn layer_of(name: &str, ext: bool) -> Option<&'static str> {
    let (prefix, _) = name.split_once('.')?;
    Some(match prefix {
        "fs" if ext => "extentfs",
        "fs" => "ufs",
        "cache" => "pagecache",
        "iopath" => "vfs",
        "disk" => "diskmodel",
        "vol" => "volmgr",
        _ => return None,
    })
}

/// Length of the union of `intervals` (each `(start, end)`, ns).
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Virtual self time per layer, ns: each span's duration minus the part
/// of it its child spans cover. Spans still open at `t_end` are cut
/// there.
pub fn self_time_ns(spans: &[Span], t_end: SimTime, ext: bool) -> BTreeMap<&'static str, u64> {
    let bounds = |s: &Span| {
        let start = s.start.as_nanos();
        let end = s.end.unwrap_or(t_end).as_nanos().max(start);
        (start, end)
    };
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| !s.parent.is_none()) {
        children
            .entry(s.parent.as_u64())
            .or_default()
            .push(bounds(s));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let Some(layer) = layer_of(s.name, ext) else {
            continue;
        };
        let (start, end) = bounds(s);
        let covered = children.get(&s.id.as_u64()).map_or(0, |kids| {
            union_len(
                kids.iter()
                    .map(|&(a, b)| (a.clamp(start, end), b.clamp(start, end)))
                    .collect(),
            )
        });
        *out.entry(layer).or_insert(0) += (end - start) - covered;
    }
    out
}

/// Per-layer metrics measured inside one traced repetition. Metrics that
/// need the untraced repetitions too (set-up step costs, page faults,
/// tracing overhead) are added by the caller.
pub fn per_layer(i: &Inputs) -> Vec<(&'static str, f64)> {
    let d = |name: &str| i.after.get(name) - i.before.get(name);
    let dp = |prefix: &str| i.after.sum_prefix(prefix) - i.before.sum_prefix(prefix);
    let dh = |prefix: &str| {
        let (c1, s1) = i.after.hist_prefix(prefix);
        let (c0, s0) = i.before.hist_prefix(prefix);
        ratio((s1 - s0) as f64, (c1 - c0) as f64)
    };
    let ms = |ns: f64| ns / 1e6;
    let ops = i.calls.lat_ns.len() as f64;
    let mb = i.calls.user_bytes as f64 / (1 << 20) as f64;
    let host_per_call = |k: usize| ratio(i.calls.host_ns[k] as f64, i.calls.host_calls[k] as f64);
    let selfs = self_time_ns(i.spans, i.t_end, i.ext);
    let self_ms = |layer: &str| ms(selfs.get(layer).copied().unwrap_or(0) as f64);

    let requests = d("disk.reads") + d("disk.writes");
    let sectors = d("disk.sectors_read") + d("disk.sectors_written");
    let tb_hits = d("disk.trackbuf_hits");
    let disk = i.replays.disk;
    let busy_diff = disk.busy_ns.abs_diff(i.replays.traced_busy_ns) as f64;
    let spindle_busy: Vec<f64> = i
        .sim
        .stats()
        .labelled_counter_values("disk.busy_ns", "spindle")
        .into_iter()
        .map(|(k, v)| {
            let name = format!("disk.busy_ns{{spindle={k}}}");
            v as f64 - i.before.get(&name)
        })
        .collect();
    let busy_max_over_mean = if spindle_busy.is_empty() {
        0.0
    } else {
        let mean = spindle_busy.iter().sum::<f64>() / spindle_busy.len() as f64;
        ratio(spindle_busy.iter().cloned().fold(0.0, f64::max), mean)
    };
    let vol_children = i.replays.measured_submits.map_or(0.0, |(array, spindles)| {
        ratio(spindles as f64, array as f64)
    });
    let vol_replay_us = i
        .replays
        .volume
        .map_or(0.0, |v| ratio(v.host_s * 1e6, v.requests as f64));
    let hits = d("cache.hits");
    let issued = d("io.prefetch_issued");
    let fs_blocks = d("ufs.blocks_read") + d("ufs.blocks_written");
    let (ext_mean, ext_per_file) = if i.ext {
        (
            i.after.get("extentfs.mean_extent_blocks"),
            i.after.get("extentfs.extents_per_file"),
        )
    } else {
        (0.0, 0.0)
    };

    vec![
        (
            "simkit.polls_per_op",
            ratio((i.after.polls - i.before.polls) as f64, ops),
        ),
        (
            "simkit.tasks_spawned",
            (i.after.spawned - i.before.spawned) as f64,
        ),
        ("diskmodel.requests", requests),
        ("diskmodel.kb_per_request", ratio(sectors * 0.5, requests)),
        ("diskmodel.busy_ms", ms(d("disk.busy_ns"))),
        ("diskmodel.rot_wait_ms", ms(d("disk.rot_wait_ns"))),
        ("diskmodel.seek_ms", ms(d("disk.seek_time_ns"))),
        ("diskmodel.queue_wait_ms", ms(d("disk.queue_wait_ns"))),
        (
            "diskmodel.trackbuf_hit_ratio",
            ratio(tb_hits, tb_hits + d("disk.trackbuf_misses")),
        ),
        ("diskmodel.io_errors", dp("io.errors")),
        (
            "diskmodel.replay_host_us_per_request",
            ratio(disk.host_s * 1e6, disk.requests as f64),
        ),
        (
            "diskmodel.replay_allocs_per_request",
            ratio(disk.allocs as f64, disk.requests as f64),
        ),
        (
            "diskmodel.replay_busy_diff_frac",
            ratio(busy_diff, i.replays.traced_busy_ns as f64),
        ),
        ("diskmodel.virt_self_ms", self_ms("diskmodel")),
        ("volmgr.child_requests_per_request", vol_children),
        ("volmgr.spindle_busy_max_over_mean", busy_max_over_mean),
        ("volmgr.replay_host_us_per_request", vol_replay_us),
        ("volmgr.virt_self_ms", self_ms("volmgr")),
        ("pagecache.hit_ratio", ratio(hits, hits + d("cache.misses"))),
        ("pagecache.reclaims", d("cache.reclaims")),
        ("pagecache.alloc_stall_ms", ms(d("cache.alloc_stall_ns"))),
        ("pagecache.pageout_freed", d("pageout.freed")),
        ("pagecache.virt_self_ms", self_ms("pagecache")),
        ("vfs.read_host_us", host_per_call(0) / 1e3),
        ("vfs.write_host_us", host_per_call(1) / 1e3),
        ("vfs.fsync_host_ms", host_per_call(2) / 1e6),
        ("vfs.allocs_per_mb", ratio(i.allocs as f64, mb)),
        ("vfs.prefetch_issued", issued),
        (
            "vfs.prefetch_hit_ratio",
            ratio(d("io.prefetch_hits"), issued),
        ),
        (
            "vfs.prefetch_wasted_kb",
            d("io.prefetch_wasted_bytes") / 1024.0,
        ),
        (
            "vfs.cluster_read_blocks_mean",
            dh("iopath.cluster_read_blocks"),
        ),
        (
            "vfs.cluster_write_blocks_mean",
            dh("iopath.cluster_write_blocks"),
        ),
        ("vfs.virt_self_ms", self_ms("vfs")),
        ("core.throttle_stall_ms", ms(d("core.throttle_stall_ns"))),
        ("core.free_behind_pages", d("ufs.free_behind_pages")),
        (
            "ufs.bmap_calls_per_block",
            ratio(d("ufs.bmap_calls"), fs_blocks),
        ),
        ("ufs.sync_reads", d("ufs.sync_reads")),
        ("ufs.virt_self_ms", self_ms("ufs")),
        ("extentfs.mean_extent_blocks", ext_mean),
        ("extentfs.extents_per_file", ext_per_file),
        ("extentfs.virt_self_ms", self_ms("extentfs")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = CATALOGUE.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOGUE.len());
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_len(vec![(3, 3)]), 0);
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let sim = Sim::new();
        let tr = sim.tracer();
        tr.set_enabled(true);
        let t = |ms: u64| SimTime::ZERO + simkit::SimDuration::from_millis(ms);
        // fs.read [0,10] with two overlapping cache children [1,4] and
        // [3,6], and a disk grandchild [4,5] under the second.
        let root = tr.record("fs.read", 1, simkit::SpanId::NONE, t(0), t(10));
        tr.record("cache.miss", 1, root, t(1), t(4));
        let c2 = tr.record("cache.miss", 1, root, t(3), t(6));
        tr.record("disk.service", 1, c2, t(4), t(5));
        let selfs = self_time_ns(&tr.spans(), t(10), false);
        assert_eq!(selfs["ufs"], 5_000_000);
        assert_eq!(selfs["pagecache"], 3_000_000 + 2_000_000);
        assert_eq!(selfs["diskmodel"], 1_000_000);
        let ext = self_time_ns(&tr.spans(), t(10), true);
        assert_eq!(ext["extentfs"], 5_000_000);
    }
}
