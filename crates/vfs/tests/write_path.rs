//! The shared write path of `vfs::iopath`: putpage's delayed-write
//! clustering and the fsync data tail, driven directly against a
//! simulated drive.

use std::rc::Rc;

use diskmodel::{BlockDeviceExt, Disk, DiskParams, SharedDevice};
use pagecache::{PageCache, PageCacheParams, PageKey};
use simkit::{Cpu, Sim, SimDuration};
use vfs::iopath::{BlockMap, DirtySweep, FileStream, IoCosts, IoPath};
use vfs::FsResult;

const BLOCK: usize = 8192;
const SECTORS_PER_BLOCK: u32 = (BLOCK / 512) as u32;
const VNODE: u64 = 5;

/// A file laid out contiguously: logical block `n` is physical block `n`.
struct Contiguous;

impl BlockMap for Contiguous {
    async fn extent(&self, lbn: u64, cap: u32) -> FsResult<Option<(u32, u32)>> {
        Ok(Some((lbn as u32, cap)))
    }

    fn max_cluster(&self) -> u32 {
        8
    }
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

/// Dirties block `lbn` with a byte pattern of its own.
async fn dirty(w: &World, lbn: u64) {
    let key = PageKey {
        vnode: VNODE,
        offset: lbn * BLOCK as u64,
    };
    let id = w.cache.create(key).await;
    w.cache.write_at(id, 0, &[lbn as u8 + 1; BLOCK]);
    w.cache.mark_dirty(id);
    w.cache.unbusy(id);
}

/// Dirties and putpages `lbns` in order with `unit`-block clusters, then
/// fsyncs; returns the clusters each putpage pushed and those fsync
/// pushed, and checks every block reached the platters.
fn write_then_fsync(lbns: &[u64], unit: u32, sweep: DirtySweep) -> (Vec<Vec<u32>>, Vec<u32>) {
    let w = Rc::new(world());
    let w2 = Rc::clone(&w);
    let lbns = lbns.to_vec();
    w.sim.run_until(async move {
        let w = &*w2;
        let mut pushed = Vec::new();
        for &lbn in &lbns {
            dirty(w, lbn).await;
            let c = w.io.putpage(&w.stream, &Contiguous, lbn, unit).await;
            pushed.push(c.expect("putpage"));
        }
        let synced = std::cell::RefCell::new(Vec::new());
        w.io.fsync(&w.stream, &Contiguous, sweep, |c| {
            synced.borrow_mut().extend_from_slice(c)
        })
        .await
        .expect("fsync");
        assert!(w.cache.dirty_offsets(VNODE).is_empty(), "fsync left dirt");
        for &lbn in &lbns {
            let lba = lbn * SECTORS_PER_BLOCK as u64;
            let back = w.disk.read(lba, SECTORS_PER_BLOCK).await;
            assert!(back.iter().all(|&b| b == lbn as u8 + 1), "block {lbn}");
        }
        (pushed, synced.into_inner())
    })
}

#[test]
fn putpage_delays_until_a_cluster_fills() {
    // Figure 7: pages 0..3 accumulate and the fourth pushes them as one
    // cluster; page 4 is still delayed when fsync pushes it.
    let (pushed, synced) = write_then_fsync(&[0, 1, 2, 3, 4], 4, DirtySweep::Runs);
    assert_eq!(pushed, [vec![], vec![], vec![], vec![4], vec![]]);
    assert_eq!(synced, [1]);
}

#[test]
fn a_random_write_pushes_the_delayed_run() {
    let (pushed, synced) = write_then_fsync(&[0, 1, 9], 4, DirtySweep::Runs);
    assert_eq!(pushed, [vec![], vec![], vec![2]]);
    assert_eq!(synced, [1]);
}

#[test]
fn unit_one_pushes_every_page_at_once() {
    // The old block-at-a-time path is the 1-block unit.
    let (pushed, synced) = write_then_fsync(&[0, 1, 2], 1, DirtySweep::Runs);
    assert_eq!(pushed, [vec![1], vec![1], vec![1]]);
    assert!(synced.is_empty());
}

#[test]
fn fsync_sweeps_dirty_runs_or_one_span() {
    // Pages dirtied without putpage (cleaner races, gap fills) are found
    // by the sweep; either form pushes each consecutive run as a cluster.
    for sweep in [DirtySweep::Runs, DirtySweep::Span] {
        let w = Rc::new(world());
        let w2 = Rc::clone(&w);
        let synced = w.sim.run_until(async move {
            let w = &*w2;
            for lbn in [0, 1, 2, 6, 7] {
                dirty(w, lbn).await;
            }
            let synced = std::cell::RefCell::new(Vec::new());
            w.io.fsync(&w.stream, &Contiguous, sweep, |c| {
                synced.borrow_mut().extend_from_slice(c)
            })
            .await
            .expect("fsync");
            synced.into_inner()
        });
        assert_eq!(synced, [3, 2], "{sweep:?}");
    }
}
