//! The demand-read primitive, the fault planner and the pagein retry tail
//! of `vfs::iopath`, driven directly against a simulated drive.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use clufs::{PrefetchPolicy, Prefetcher};
use diskmodel::{BlockDeviceExt, Disk, DiskParams, SharedDevice};
use pagecache::{PageCache, PageCacheParams, PageKey};
use simkit::{Cpu, Sim, SimDuration, SpanId};
use vfs::iopath::{BlockMap, FileStream, IoCosts, IoPath, Probes, ReadRuns};
use vfs::FsResult;

const BLOCK: usize = 8192;
const SECTORS_PER_BLOCK: u64 = (BLOCK / 512) as u64;
const VNODE: u64 = 3;
/// The test file: 16 blocks in two physical runs of 8.
const RUNS: [(u64, u32); 2] = [(100, 8), (300, 8)];

/// Physical block of logical block `lbn` in the two-run layout.
fn pbn_of(lbn: u64) -> u32 {
    let (base, len) = RUNS[(lbn / 8) as usize];
    debug_assert!(lbn % 8 < len as u64);
    (base + lbn % 8) as u32
}

/// A [`BlockMap`] over the two-run layout that counts every call.
#[derive(Default)]
struct CountingMap {
    extent_calls: Cell<u32>,
    runs_calls: Cell<u32>,
}

impl BlockMap for CountingMap {
    async fn extent(&self, lbn: u64, cap: u32) -> FsResult<Option<(u32, u32)>> {
        self.extent_calls.set(self.extent_calls.get() + 1);
        if lbn >= 16 {
            return Ok(None);
        }
        Ok(Some((pbn_of(lbn), (8 - lbn % 8).min(cap as u64) as u32)))
    }

    async fn runs(&self, lbn: u64, blocks: u32) -> FsResult<Vec<(u32, u32)>> {
        self.runs_calls.set(self.runs_calls.get() + 1);
        let mut out = Vec::new();
        let (mut cur, end) = (lbn, (lbn + blocks as u64).min(16));
        while cur < end {
            let n = (8 - cur % 8).min(end - cur);
            out.push((pbn_of(cur), n as u32));
            cur += n;
        }
        Ok(out)
    }

    fn max_cluster(&self) -> u32 {
        8
    }
}

fn byte(lbn: u64, i: usize) -> u8 {
    (i as u64 % 253) as u8 ^ (lbn as u8).wrapping_mul(29)
}

struct World {
    sim: Sim,
    disk: SharedDevice,
    cache: PageCache,
    io: IoPath,
    stream: Rc<FileStream>,
}

fn world() -> World {
    let sim = Sim::new();
    let disk: SharedDevice = Rc::new(Disk::new(&sim, DiskParams::sun0424()));
    let cache = PageCache::new(
        &sim,
        PageCacheParams {
            total_pages: 64,
            page_size: BLOCK,
            lotsfree: 4,
        },
    );
    let costs = IoCosts {
        io_setup: SimDuration::from_micros(500),
        io_intr: SimDuration::from_micros(200),
    };
    let io = IoPath::new(&sim, &Cpu::new(&sim), &disk, &cache, costs);
    let stream = FileStream::new(&sim, VNODE, None);
    World {
        sim,
        disk,
        cache,
        io,
        stream,
    }
}

fn key(lbn: u64) -> PageKey {
    PageKey {
        vnode: VNODE,
        offset: lbn * BLOCK as u64,
    }
}

fn demand(lbn: u64, len: u32, at: Option<u32>) -> ReadRuns {
    ReadRuns {
        lbn,
        len,
        at,
        sieve: None,
    }
}

/// Writes the file's 16 blocks to the platters, then demand-reads `len`
/// blocks from 0 with `at` and returns the map's `(extent, runs)` call
/// counts, the batch's transfer count and the drive's read count.
fn read_with(len: u32, at: Option<u32>) -> (u32, u32, usize, u64) {
    let w = Rc::new(world());
    let w2 = Rc::clone(&w);
    w.sim.run_until(async move {
        let w = &*w2;
        for lbn in 0..16u64 {
            let data: Vec<u8> = (0..BLOCK).map(|i| byte(lbn, i)).collect();
            let lba = pbn_of(lbn) as u64 * SECTORS_PER_BLOCK;
            w.disk.write(lba, SECTORS_PER_BLOCK as u32, data).await;
        }
        let reads_before = w.disk.stats().reads;
        let map = CountingMap::default();
        let io =
            w.io.read_runs(&w.stream, &map, demand(0, len, at), SpanId::NONE)
                .await
                .expect("read issues")
                .expect("demand read did not issue");
        assert_eq!(io.blocks(), len);
        let transfers = io.transfers();
        w.io.finish_batch(io, 0).await.expect("read completes");
        for lbn in 0..len as u64 {
            let id = w.cache.lookup(key(lbn)).expect("block cached");
            assert!(!w.cache.is_busy(id), "block {lbn} released");
            w.cache.with_page(id, |page| {
                assert!(page.iter().enumerate().all(|(i, &b)| b == byte(lbn, i)))
            });
        }
        (
            map.extent_calls.get(),
            map.runs_calls.get(),
            transfers,
            w.disk.stats().reads - reads_before,
        )
    })
}

#[test]
fn a_resolved_run_skips_the_block_map() {
    let (extent, runs, transfers, reads) = read_with(8, Some(pbn_of(0)));
    assert_eq!((extent, runs), (0, 0), "`at` makes no map calls");
    assert_eq!((transfers, reads), (1, 1), "one device transfer");
}

#[test]
fn an_unresolved_batch_goes_through_runs() {
    let (extent, runs, transfers, reads) = read_with(16, None);
    assert_eq!((extent, runs), (0, 1), "one run-list resolution");
    assert_eq!((transfers, reads), (2, 2), "one transfer per physical run");
}

#[test]
fn a_demand_read_of_a_page_another_fault_created_is_already_cached() {
    let w = Rc::new(world());
    let w2 = Rc::clone(&w);
    w.sim.run_until(async move {
        let w = &*w2;
        let id = w.cache.create(key(0)).await; // Busy, as a concurrent fill leaves it.
        let issued =
            w.io.read_runs(
                &w.stream,
                &CountingMap::default(),
                demand(0, 8, Some(100)),
                SpanId::NONE,
            )
            .await
            .expect("no error");
        assert!(issued.is_none(), "already cached");
        // The retry tail waits the fill out and hands back the same page.
        let cache = w.cache.clone();
        w.sim.spawn(async move { cache.unbusy(id) });
        assert_eq!(w.io.revalidate(key(0), None).await, Some(id));
        // A stale id whose page was recycled sends the fault round again.
        w.cache.invalidate_page(id);
        assert_eq!(w.io.revalidate(key(0), Some(id)).await, None);
    });
}

/// Extent answers for the planner test: 8-block clusters over a 64-block
/// file with a hole at block 40.
fn oracle(lbn: u64) -> Option<(u32, u32)> {
    if lbn >= 64 || lbn == 40 {
        return None;
    }
    Some((1000 + lbn as u32, (8 - lbn % 8) as u32))
}

/// Accesses that exercise the sync read, sequential read-ahead, a
/// misprediction, a hole and a stride: `(lbn, cached)`.
fn accesses() -> Vec<(u64, bool)> {
    let mut v: Vec<(u64, bool)> = (0..20).map(|l| (l, l % 8 != 0)).collect();
    v.extend([(39, false), (40, false), (41, false)]);
    for rec in 0..6u64 {
        let start = 2 + rec * 10;
        v.push((start, false));
        v.push((start + 1, true));
    }
    v
}

#[test]
fn plan_probes_each_block_once_and_matches_the_engine() {
    for policy in [
        PrefetchPolicy::Off,
        PrefetchPolicy::Fixed,
        PrefetchPolicy::Adaptive,
    ] {
        let w = Rc::new(world());
        w.io.set_prefetch(policy, 8);
        let w2 = Rc::clone(&w);
        w.sim.run_until(async move {
            let w = &*w2;
            let mut engine = Prefetcher::new(policy, 8);
            let mut speculative = 0;
            for (lbn, cached) in accesses() {
                let asked = RefCell::new(Vec::new());
                let probe = |p: u64| {
                    asked.borrow_mut().push(p);
                    let sim = w.sim.clone();
                    async move {
                        // A real probe awaits (UFS bmap charges CPU).
                        sim.sleep(SimDuration::from_micros(10)).await;
                        Ok(oracle(p))
                    }
                };
                let (plan, probes) =
                    w.io.plan(w.stream.id(), lbn, cached, 0, Probes::default(), probe)
                        .await
                        .expect("plan");
                let mut oracle_asked = Vec::new();
                let want = engine.on_access(
                    lbn,
                    cached,
                    |p| {
                        oracle_asked.push(p);
                        oracle(p).map_or(0, |(_, n)| n)
                    },
                    0,
                    w.cache.free_count() as u64,
                    w.cache.lotsfree() as u64,
                );
                assert_eq!(plan, want, "{policy:?} lbn {lbn}");
                speculative += plan.runs.len();
                let mut asked = asked.into_inner();
                let n = asked.len();
                asked.sort_unstable();
                asked.dedup();
                assert_eq!(asked.len(), n, "{policy:?} lbn {lbn}: a block probed twice");
                // Every block the engine needs was probed. A dry run that
                // has not heard back yet can ask for a block the informed
                // engine skips; it is probed once all the same.
                assert!(
                    oracle_asked.iter().all(|p| asked.contains(p)),
                    "{policy:?} lbn {lbn}: probed {asked:?}, engine needs {oracle_asked:?}"
                );
                for p in asked {
                    assert_eq!(probes.get(p), oracle(p), "{policy:?} lbn {lbn}: probe {p}");
                }
            }
            assert_eq!(
                speculative > 0,
                policy != PrefetchPolicy::Off,
                "{policy:?}: {speculative} read-ahead runs"
            );
        });
    }
}

#[test]
fn plan_reuses_seeded_probes() {
    let w = Rc::new(world());
    let w2 = Rc::clone(&w);
    w.sim.run_until(async move {
        let w = &*w2;
        let mut seed = Probes::default();
        seed.insert(0, oracle(0));
        let asked = RefCell::new(Vec::new());
        let (plan, _) =
            w.io.plan(w.stream.id(), 0, false, 0, seed, |p| {
                asked.borrow_mut().push(p);
                std::future::ready(Ok(oracle(p)))
            })
            .await
            .expect("plan");
        assert_eq!(plan.sync.map(|r| r.blocks), Some(8));
        assert!(
            !asked.borrow().contains(&0),
            "the seeded block is not re-probed"
        );
    });
}
