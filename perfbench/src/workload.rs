//! The three workloads, run as one repetition in one simulation: build the
//! world, write the files the workload starts from, run the measured
//! phase, then check the file system.
//!
//! Everything goes through the stack's public constructors and the vnode
//! interface; the benchmark adds no instrumentation inside the program.

use std::cell::RefCell;
use std::future::Future;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use clufs::{PrefetchPolicy, Tuning};
use diskmodel::{Disk, DiskParams, SharedDevice};
use extentfs::{ExtFile, ExtentFs, ExtentFsParams};
use pagecache::{PageCache, PageCacheParams, PageoutDaemon, PageoutParams};
use simkit::{Cpu, Sim, SimTime};
use ufs::{MkfsOptions, Ufs, UfsFile, UfsParams};
use vfs::{AccessMode, FileSystem, FsResult, Vnode};
use volmgr::{Volume, VolumeSpec};

use crate::host;
use crate::layers::{self, Snapshot};
use crate::pattern::{random_ops, BlockTag, Op};
use crate::tap::{self, Log, Tap};

/// File system block and page size.
pub const BLOCK: usize = 8192;
/// The modelled machine's page cache: 768 pages of 8 KB (6 MB).
pub const CACHE_BLOCKS: u64 = 768;
/// The array `raid5_mixed` runs on.
const RAID5_SPEC: &str = "raid5:5:64k";
/// Inode slots for the extent file system.
const EXT_INODES: u32 = 256;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SeqStream,
    RandomUpdate,
    Raid5Mixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SeqStream,
        Workload::RandomUpdate,
        Workload::Raid5Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqStream => "seq_stream",
            Workload::RandomUpdate => "random_update",
            Workload::Raid5Mixed => "raid5_mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One workload's inputs for one seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Write `blocks` sequentially, fsync, drop the cached pages, read
    /// them back.
    Seq { blocks: u64 },
    /// Seeded block calls over a pre-written file of `blocks`, then fsync.
    Random { blocks: u64, ops: Vec<Op> },
    /// Two strided readers over pre-written files, each reading one block
    /// every `strides[i]` blocks from block 0, beside one sequential
    /// writer; every file holds `blocks`.
    Mixed { blocks: u64, strides: [u64; 2] },
}

/// Files, by the number their block patterns are keyed with.
const F_STREAM: u32 = 1;
const F_BASE: u32 = 2;
const F_READER: [u32; 2] = [3, 4];
const F_WRITER: u32 = 5;

impl Plan {
    /// The seed picks the data everywhere, and the call sequence of
    /// `random_update`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        match workload {
            // 8x the cache.
            Workload::SeqStream => Plan::Seq {
                blocks: 8 * CACHE_BLOCKS,
            },
            // 4x the cache, so most reads miss and the median call is a
            // disk read; 8192 calls leave 81 samples beyond p99.
            Workload::RandomUpdate => Plan::Random {
                blocks: 4 * CACHE_BLOCKS,
                ops: random_ops(seed, 4 * CACHE_BLOCKS, 8192, 70),
            },
            // 8 KB records every 64 KB and every 128 KB, from block 0.
            // Every seed runs into the same known page-recycling panic
            // (see the README) until the program is fixed.
            Workload::Raid5Mixed => Plan::Mixed {
                blocks: 4 * CACHE_BLOCKS,
                strides: [8, 16],
            },
        }
    }

    /// Application calls the measured phase makes.
    pub fn planned_calls(&self) -> u64 {
        match self {
            Plan::Seq { blocks } => 2 * blocks + 1,
            Plan::Random { ops, .. } => ops.len() as u64 + 1,
            Plan::Mixed { blocks, strides } => {
                strides.iter().map(|s| blocks.div_ceil(*s)).sum::<u64>() + blocks + 1
            }
        }
    }
}

/// Per-call records of the measured phase.
#[derive(Default, Debug)]
pub struct Calls {
    /// Virtual latency of each completed call, ns.
    pub lat_ns: Vec<u64>,
    /// Bytes moved by completed reads and writes.
    pub user_bytes: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Reads that returned the wrong bytes or a short count.
    pub mismatches: u64,
    /// Host ns and count per call kind (read, write, fsync); traced only.
    pub host_ns: [u64; 3],
    pub host_calls: [u64; 3],
}

#[derive(Clone, Copy)]
enum CallKind {
    Read = 0,
    Write = 1,
    Fsync = 2,
}

/// Issues the workload's application calls and records each one.
#[derive(Clone)]
struct Caller {
    sim: Sim,
    seed: u64,
    calls: Rc<RefCell<Calls>>,
    /// Time each call on the host clock as well (traced runs only).
    host_timed: bool,
}

impl Caller {
    async fn timed<T>(
        &self,
        kind: CallKind,
        call: impl Future<Output = FsResult<T>>,
    ) -> FsResult<T> {
        let t0 = self.sim.now();
        let h0 = self.host_timed.then(Instant::now);
        let r = call.await;
        let mut c = self.calls.borrow_mut();
        if let Some(h0) = h0 {
            c.host_ns[kind as usize] += h0.elapsed().as_nanos() as u64;
            c.host_calls[kind as usize] += 1;
        }
        c.lat_ns.push(self.sim.now().duration_since(t0).as_nanos());
        if r.is_err() {
            c.errors += 1;
        }
        r
    }

    fn tag(&self, file: u32, block: u64, version: u32) -> BlockTag {
        BlockTag {
            seed: self.seed,
            file,
            block,
            version,
        }
    }

    async fn write<V: Vnode>(&self, f: &V, file: u32, block: u64, version: u32, buf: &mut [u8]) {
        self.tag(file, block, version).fill(buf);
        let off = block * BLOCK as u64;
        if self
            .timed(CallKind::Write, f.write(off, buf, AccessMode::Copy))
            .await
            .is_ok()
        {
            self.calls.borrow_mut().user_bytes += buf.len() as u64;
        }
    }

    async fn read<V: Vnode>(&self, f: &V, file: u32, block: u64, version: u32, buf: &mut [u8]) {
        let off = block * BLOCK as u64;
        if let Ok(n) = self
            .timed(CallKind::Read, f.read_into(off, buf, AccessMode::Copy))
            .await
        {
            let ok = n == buf.len() && self.tag(file, block, version).matches(buf);
            let mut c = self.calls.borrow_mut();
            c.user_bytes += n as u64;
            if !ok {
                c.mismatches += 1;
            }
        }
    }

    async fn fsync<V: Vnode>(&self, f: &V) {
        let _ = self.timed(CallKind::Fsync, f.fsync()).await;
    }
}

/// Host cost of each set-up step (untraced repetitions report these).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub device_s: f64,
    pub cache_s: f64,
    pub mkfs_s: f64,
    pub mkfs_minflt: u64,
    pub mount_s: f64,
    pub format_s: f64,
}

/// Request logs of a traced repetition: the device the file system
/// mounts, and the spindles under it when that device is a volume.
#[derive(Default)]
struct Taps {
    top: Log,
    spindles: Vec<Log>,
}

enum Files {
    Seq(UfsFile),
    Random(UfsFile),
    Mixed([ExtFile; 2], ExtFile),
}

enum Fs {
    Ufs(Ufs),
    Ext(ExtentFs),
}

struct World {
    sim: Sim,
    cache: PageCache,
    dev: SharedDevice,
    fs: Fs,
    taps: Option<Taps>,
}

/// Runs `f`, storing its host CPU time in `slot`.
fn host_time<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = host::thread_cpu();
    let v = f();
    *slot = host::cpu_s_since(t);
    v
}

/// Builds the device: one `sun0424`, or the RAID-5 array of them. A
/// traced world logs submissions at the device the file system sees and,
/// for the array, at each spindle.
fn build_device(sim: &Sim, raid: bool, taps: &mut Option<Taps>) -> SharedDevice {
    let params = DiskParams::sun0424();
    match (raid, taps) {
        (false, None) => Rc::new(Disk::new(sim, params)),
        (false, Some(t)) => Tap::wrap(sim, Rc::new(Disk::new(sim, params)), 0, &t.top),
        (true, None) => volmgr::build(sim, &raid5_spec(), params),
        (true, Some(t)) => {
            // `volmgr::build` is `Volume::new`, which is exactly this over
            // untapped spindles.
            let spec = raid5_spec();
            let children = (0..spec.spindles)
                .map(|k| {
                    let log = Log::default();
                    let disk = Rc::new(Disk::new_spindle(sim, params.clone(), k));
                    let dev = Tap::wrap(sim, disk, k as usize, &log);
                    t.spindles.push(log);
                    dev
                })
                .collect();
            let volume = Rc::new(Volume::with_children(sim, &spec, children));
            Tap::wrap(sim, volume, 0, &t.top)
        }
    }
}

fn raid5_spec() -> VolumeSpec {
    VolumeSpec::parse(RAID5_SPEC).expect("built-in volume spec parses")
}

/// Writes `blocks` of `file`'s version-0 pattern, fsyncs, and drops the
/// file's cached pages so the measured phase starts cold.
async fn prewrite<V: Vnode>(cache: &PageCache, f: &V, seed: u64, file: u32, blocks: u64) {
    let mut buf = vec![0u8; BLOCK];
    for block in 0..blocks {
        BlockTag {
            seed,
            file,
            block,
            version: 0,
        }
        .fill(&mut buf);
        f.write(block * BLOCK as u64, &buf, AccessMode::Copy)
            .await
            .expect("set-up write");
    }
    f.fsync().await.expect("set-up fsync");
    cache.invalidate_vnode(f.id(), 0);
}

/// Set-up: device, page cache, pageout daemon, format and mount, and the
/// files the workload starts from.
fn setup(plan: &Plan, seed: u64, traced: bool, times: &mut SetupTimes) -> (World, Files) {
    let started = host::thread_cpu();
    let sim = Sim::new();
    let mut taps = traced.then(Taps::default);
    let raid = matches!(plan, Plan::Mixed { .. });
    let dev = host_time(&mut times.device_s, || build_device(&sim, raid, &mut taps));
    let cpu = Cpu::new(&sim);
    let cache = host_time(&mut times.cache_s, || {
        PageCache::new(&sim, PageCacheParams::sparcstation_8mb())
    });
    let (fs, files) = if raid {
        let (_daemon, cleaner) = PageoutDaemon::spawn(
            &sim,
            &cache,
            Some(cpu.clone()),
            PageoutParams::sparcstation(),
        );
        // extentfs has no cleaner; keep the daemon's victim channel open
        // (as the repository's own extentfs worlds do).
        std::mem::forget(cleaner);
        let mut params = ExtentFsParams::with_extent_blocks(15);
        params.prefetch = PrefetchPolicy::Adaptive;
        let fs = host_time(&mut times.format_s, || {
            ExtentFs::format(&sim, &cpu, &cache, &dev, EXT_INODES, params).expect("format")
        });
        let Plan::Mixed { blocks, .. } = *plan else {
            unreachable!("raid worlds run the mixed plan")
        };
        let (f2, c2) = (fs.clone(), cache.clone());
        let files = sim.run_until(async move {
            let mut readers = Vec::new();
            for (i, file) in F_READER.into_iter().enumerate() {
                let f = f2.create(&format!("reader{i}.dat")).await.expect("create");
                prewrite(&c2, &f, seed, file, blocks).await;
                readers.push(f);
            }
            let writer = f2.create("writer.dat").await.expect("create");
            let readers: [ExtFile; 2] = readers.try_into().ok().expect("two readers");
            Files::Mixed(readers, writer)
        });
        (Fs::Ext(fs), files)
    } else {
        let (s, d, c, p) = (sim.clone(), dev.clone(), cache.clone(), plan.clone());
        let (fs, files, t) = sim.run_until(async move {
            let mut t = SetupTimes::default();
            let h = host::thread_cpu();
            let f0 = host::usage().minflt;
            ufs::mkfs(&s, &*d, MkfsOptions::sun0424())
                .await
                .expect("mkfs");
            t.mkfs_s = host::cpu_s_since(h);
            t.mkfs_minflt = host::usage().minflt - f0;
            let (_daemon, cleaner) =
                PageoutDaemon::spawn(&s, &c, Some(cpu.clone()), PageoutParams::sparcstation());
            let h = host::thread_cpu();
            let params = UfsParams::with_tuning(Tuning::config_a());
            let fs = Ufs::mount(&s, &cpu, &c, &d, params, Some(cleaner))
                .await
                .expect("mount");
            t.mount_s = host::cpu_s_since(h);
            let files = match p {
                Plan::Seq { .. } => Files::Seq(fs.create("stream.dat").await.expect("create")),
                Plan::Random { blocks, .. } => {
                    let f = fs.create("base.dat").await.expect("create");
                    prewrite(&c, &f, seed, F_BASE, blocks).await;
                    Files::Random(f)
                }
                Plan::Mixed { .. } => unreachable!("UFS worlds never run the mixed plan"),
            };
            (fs, files, t)
        });
        times.mkfs_s = t.mkfs_s;
        times.mkfs_minflt = t.mkfs_minflt;
        times.mount_s = t.mount_s;
        (Fs::Ufs(fs), files)
    };
    times.total_s = host::cpu_s_since(started);
    let world = World {
        sim,
        cache,
        dev,
        fs,
        taps,
    };
    (world, files)
}

/// The measured phase.
async fn measured(plan: Plan, cache: PageCache, files: Files, caller: Caller) {
    let mut buf = vec![0u8; BLOCK];
    match (plan, files) {
        (Plan::Seq { blocks }, Files::Seq(f)) => {
            for b in 0..blocks {
                caller.write(&f, F_STREAM, b, 0, &mut buf).await;
            }
            caller.fsync(&f).await;
            cache.invalidate_vnode(f.id(), 0);
            for b in 0..blocks {
                caller.read(&f, F_STREAM, b, 0, &mut buf).await;
            }
        }
        (Plan::Random { blocks, ops }, Files::Random(f)) => {
            let mut version = vec![0u32; blocks as usize];
            for op in ops {
                match op {
                    Op::Read(b) => {
                        caller
                            .read(&f, F_BASE, b, version[b as usize], &mut buf)
                            .await
                    }
                    Op::Write(b) => {
                        version[b as usize] += 1;
                        caller
                            .write(&f, F_BASE, b, version[b as usize], &mut buf)
                            .await
                    }
                }
            }
            caller.fsync(&f).await;
        }
        (Plan::Mixed { blocks, strides }, Files::Mixed(rfiles, wfile)) => {
            let sim = caller.sim.clone();
            let mut tasks = Vec::new();
            for ((f, stride), file) in rfiles.into_iter().zip(strides).zip(F_READER) {
                let c = caller.clone();
                tasks.push(sim.spawn(async move {
                    let mut buf = vec![0u8; BLOCK];
                    for b in (0..blocks).step_by(stride as usize) {
                        c.read(&f, file, b, 0, &mut buf).await;
                    }
                }));
            }
            let c = caller.clone();
            tasks.push(sim.spawn(async move {
                let mut buf = vec![0u8; BLOCK];
                for b in 0..blocks {
                    c.write(&wfile, F_WRITER, b, 0, &mut buf).await;
                }
                c.fsync(&wfile).await;
            }));
            for t in tasks {
                t.await;
            }
        }
        _ => unreachable!("set-up creates the files the plan needs"),
    }
}

/// Checks the file system after the run: fsck after a clean unmount for
/// UFS, the allocator/tree check after a sync for extentfs. Returns the
/// inconsistencies found.
async fn check(fs: Fs, dev: SharedDevice) -> Vec<String> {
    match fs {
        Fs::Ufs(fs) => {
            if let Err(e) = fs.unmount().await {
                return vec![format!("unmount: {e}")];
            }
            match ufs::fsck(&*dev).await {
                Ok(report) if report.is_clean() => Vec::new(),
                Ok(report) => report.errors.into_iter().chain(report.unfixable).collect(),
                Err(e) => vec![format!("fsck: {e}")],
            }
        }
        Fs::Ext(fs) => match fs.sync().await {
            Ok(()) => fs.check(),
            Err(e) => vec![format!("sync: {e}")],
        },
    }
}

/// Everything one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup: SetupTimes,
    /// A panic message, if the repetition panicked (set-up, run or check).
    pub panic: Option<String>,
    pub calls: Calls,
    /// Host CPU seconds of the measured phase.
    pub measured_host_s: f64,
    pub virt_s: f64,
    pub minflt: u64,
    pub allocs: u64,
    pub max_rss_kb: u64,
    /// Hash of the registry's JSON at the end of the measured phase.
    pub registry_digest: u64,
    pub check_errors: Vec<String>,
    /// Per-layer values (traced repetitions only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Captures panic messages so a repetition can report them (the parent
/// prints each distinct one once).
pub fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string().replace('\n', " ");
        LAST_PANIC.with(|p| *p.borrow_mut() = Some(msg));
    }));
}

thread_local! {
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

fn panic_message() -> String {
    LAST_PANIC
        .with(|p| p.borrow_mut().take())
        .unwrap_or_else(|| "panic".to_string())
}

/// FNV-1a over the registry snapshot.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs one repetition of `workload` for `seed`. Traced repetitions turn
/// on the span tracer and the counting allocator for the measured phase,
/// log device submissions, and replay the logs afterwards.
pub fn run_rep(workload: Workload, seed: u64, traced: bool) -> Rep {
    let plan = Plan::new(workload, seed);
    let mut rep = Rep::default();
    let built = catch_unwind(AssertUnwindSafe(|| {
        setup(&plan, seed, traced, &mut rep.setup)
    }));
    let (world, files) = match built {
        Ok(w) => w,
        Err(_) => {
            rep.panic = Some(panic_message());
            rep.max_rss_kb = host::usage().max_rss_kb;
            return rep;
        }
    };
    let sim = world.sim.clone();
    let calls = Rc::new(RefCell::new(Calls::default()));
    let caller = Caller {
        sim: sim.clone(),
        seed,
        calls: Rc::clone(&calls),
        host_timed: traced,
    };
    if traced {
        simkit::perfmon::set_enabled(true);
        sim.tracer().set_enabled(true);
    }
    let before = Snapshot::take(&sim);
    let t0: SimTime = sim.now();
    let flt0 = host::usage().minflt;
    let allocs0 = simkit::perfmon::thread_alloc_counts().0;
    let started = host::thread_cpu();
    let run = catch_unwind(AssertUnwindSafe(|| {
        sim.run_until(measured(plan, world.cache.clone(), files, caller))
    }));
    rep.measured_host_s = host::cpu_s_since(started);
    rep.allocs = simkit::perfmon::thread_alloc_counts().0 - allocs0;
    rep.minflt = host::usage().minflt - flt0;
    rep.virt_s = sim.now().duration_since(t0).as_secs_f64();
    sim.tracer().set_enabled(false);
    simkit::perfmon::set_enabled(false);
    let spans = sim.tracer().take_spans();
    let after = Snapshot::take(&sim);
    rep.registry_digest = digest(&sim.stats().to_json());
    let t_end = sim.now();
    rep.calls = std::mem::take(&mut *calls.borrow_mut());
    let World { fs, dev, taps, .. } = world;
    if run.is_err() {
        rep.panic = Some(panic_message());
        // The world stopped mid-operation and may hold broken invariants:
        // neither check nor drop it (the process ends with this
        // repetition).
        std::mem::forget(fs);
    } else {
        match catch_unwind(AssertUnwindSafe(|| sim.run_until(check(fs, dev)))) {
            Ok(errors) => rep.check_errors = errors,
            Err(_) => rep.panic = Some(panic_message()),
        }
    }
    rep.max_rss_kb = host::usage().max_rss_kb;
    if let Some(taps) = taps {
        let replays = replay_all(&taps, &sim, t0..=t_end);
        rep.layers = layers::per_layer(&layers::Inputs {
            sim: &sim,
            ext: matches!(workload, Workload::Raid5Mixed),
            before: &before,
            after: &after,
            spans: &spans,
            t_end,
            calls: &rep.calls,
            allocs: rep.allocs,
            replays,
        });
    }
    rep
}

/// Replays the traced logs: the lone disk, or the array and its
/// spindles.
fn replay_all(taps: &Taps, sim: &Sim, measured: RangeInclusive<SimTime>) -> layers::Replays {
    let traced_busy = sim.stats().counter_value("disk.busy_ns");
    let params = DiskParams::sun0424();
    simkit::perfmon::set_enabled(true);
    let replays = if taps.spindles.is_empty() {
        let disk = tap::replay(&taps.top.borrow(), |s| {
            vec![Rc::new(Disk::new(s, params.clone())) as SharedDevice]
        });
        layers::Replays {
            disk,
            volume: None,
            traced_busy_ns: traced_busy,
            measured_submits: None,
        }
    } else {
        let spec = raid5_spec();
        let in_phase =
            |log: &[tap::Entry]| log.iter().filter(|e| measured.contains(&e.at)).count() as u64;
        let spindle_log = tap::merge(&taps.spindles);
        let spindle_submits = in_phase(&spindle_log);
        let disk = tap::replay(&spindle_log, |s| {
            (0..spec.spindles)
                .map(|k| Rc::new(Disk::new_spindle(s, params.clone(), k)) as SharedDevice)
                .collect()
        });
        let volume = tap::replay(&taps.top.borrow(), |s| {
            vec![volmgr::build(s, &spec, params.clone())]
        });
        layers::Replays {
            disk,
            volume: Some(volume),
            traced_busy_ns: traced_busy,
            measured_submits: Some((in_phase(&taps.top.borrow()), spindle_submits)),
        }
    };
    simkit::perfmon::set_enabled(false);
    replays
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed_and_sized_to_the_cache() {
        for w in Workload::ALL {
            assert_eq!(Plan::new(w, 11), Plan::new(w, 11));
        }
        assert_ne!(
            Plan::new(Workload::RandomUpdate, 1),
            Plan::new(Workload::RandomUpdate, 2)
        );
        match Plan::new(Workload::SeqStream, 5) {
            Plan::Seq { blocks } => assert_eq!(blocks, 8 * CACHE_BLOCKS),
            p => panic!("wrong plan {p:?}"),
        }
        match Plan::new(Workload::RandomUpdate, 5) {
            Plan::Random { blocks, ops } => {
                assert!((2 * CACHE_BLOCKS..=4 * CACHE_BLOCKS).contains(&blocks));
                // At least ten samples beyond p99.
                assert!(ops.len() >= 1100);
            }
            p => panic!("wrong plan {p:?}"),
        }
        match Plan::new(Workload::Raid5Mixed, 5) {
            Plan::Mixed { blocks, strides } => {
                assert!(blocks >= 4 * CACHE_BLOCKS);
                assert_eq!(strides, [8, 16]);
            }
            p => panic!("wrong plan {p:?}"),
        }
    }

    #[test]
    fn workload_names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
