//! Allocation regression test for the data plane.
//!
//! A cluster's bytes should be copied once on each side of the page cache:
//! a read fills page frames straight from the device's view of the
//! platter image, and a write copies the pages into one payload that the
//! drive stores as it is. This binary installs `CountingAlloc` as its
//! global allocator and checks both, so per-request buffers (a zeroed read
//! buffer, a per-completion copy, a re-gathered write batch) cannot creep
//! back in unnoticed.

use std::rc::Rc;

use diskmodel::{BlockDeviceExt, Disk, DiskParams, SharedDevice};
use pagecache::{PageCache, PageCacheParams, PageKey};
use simkit::perfmon::{self, CountingAlloc};
use simkit::{Cpu, Sim, SimDuration};
use vfs::iopath::{
    BlockMap, Executed, FileStream, IoCosts, IoIntent, IoPath, ReadCluster, ReadReason,
    WriteCluster, WriteReason,
};
use vfs::FsResult;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BLOCK: usize = 8192;
const CLUSTER: u32 = 15;
const SECTORS_PER_BLOCK: u64 = (BLOCK / 512) as u64;
const VNODE: u64 = 7;

/// A file laid out contiguously: logical block `n` is physical block `n`.
struct Contiguous;

impl BlockMap for Contiguous {
    async fn extent(&self, lbn: u64, cap: u32) -> FsResult<Option<(u32, u32)>> {
        Ok(Some((lbn as u32, cap)))
    }

    fn max_cluster(&self) -> u32 {
        CLUSTER
    }
}

/// The byte every test block holds at `i`, distinct per block and pass.
fn pattern(lbn: u64, pass: u8, i: usize) -> u8 {
    (i as u64 % 251) as u8 ^ (lbn as u8).wrapping_mul(31) ^ pass
}

fn block(lbn: u64, pass: u8) -> Vec<u8> {
    (0..BLOCK).map(|i| pattern(lbn, pass, i)).collect()
}

struct World {
    sim: Sim,
    disk: SharedDevice,
    cache: PageCache,
    io: IoPath,
    stream: Rc<FileStream>,
}

fn world() -> World {
    // Counting is process-wide and only ever switched on here, so tests
    // running in parallel cannot disarm each other mid-measurement.
    perfmon::set_enabled(true);
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

fn allocated_bytes() -> u64 {
    perfmon::thread_alloc_counts().1
}

/// Demand-reads `CLUSTER` blocks from `lbn` through the I/O path and
/// returns the bytes allocated while doing it.
async fn demand_read(w: &World, lbn: u64) -> u64 {
    let before = allocated_bytes();
    let rc = ReadCluster {
        lbn,
        pbn: lbn as u32,
        len: CLUSTER,
        reason: ReadReason::Demand,
    };
    let issued =
        w.io.execute(&w.stream, &Contiguous, IoIntent::ReadCluster(rc))
            .await
            .expect("read issues");
    let Executed::ReadIssued(io) = issued else {
        panic!("demand read did not issue");
    };
    assert_eq!(io.blocks(), CLUSTER);
    w.io.finish_read(io, lbn).await.expect("read completes");
    allocated_bytes() - before
}

#[test]
fn cluster_read_fills_pages_without_a_buffer_per_request() {
    let w = world();
    let (disk, cache) = (w.disk.clone(), w.cache.clone());
    let w = Rc::new(w);
    let w2 = Rc::clone(&w);
    let spent = w.sim.run_until(async move {
        let w = &*w2;
        // Real (non-zero) bytes on the platters for two clusters.
        for lbn in 0..2 * CLUSTER as u64 {
            let lba = lbn * SECTORS_PER_BLOCK;
            disk.write(lba, SECTORS_PER_BLOCK as u32, block(lbn, 1))
                .await;
        }
        // The first cluster warms one-time state (per-stream metrics).
        demand_read(w, 0).await;
        demand_read(w, CLUSTER as u64).await
    });
    assert!(
        spent < BLOCK as u64,
        "a {CLUSTER}-block cluster read allocated {spent} bytes, \
         at least one block's worth"
    );
    for lbn in 0..2 * CLUSTER as u64 {
        let id = cache.lookup(key(lbn)).expect("block cached");
        cache.with_page(id, |page| {
            assert_eq!(page, &block(lbn, 1)[..], "block {lbn}")
        });
    }
}

#[test]
fn cluster_write_allocates_one_payload() {
    let w = Rc::new(world());
    let w2 = Rc::clone(&w);
    let payload = CLUSTER as u64 * BLOCK as u64;
    let spent = w.sim.run_until(async move {
        let w = &*w2;
        let mut spent = 0;
        // Pass 1 materializes the store's chunks and one-time state; pass
        // 2 overwrites them, which is the steady state being measured.
        for pass in 1..=2u8 {
            for lbn in 0..CLUSTER as u64 {
                let id = match w.cache.lookup(key(lbn)) {
                    Some(id) => {
                        assert!(w.cache.lock_busy(id).await);
                        id
                    }
                    None => w.cache.create(key(lbn)).await,
                };
                w.cache.write_at(id, 0, &block(lbn, pass));
                w.cache.mark_dirty(id);
                w.cache.unbusy(id);
            }
            let before = allocated_bytes();
            let wc = WriteCluster {
                range: 0..CLUSTER as u64,
                reason: WriteReason::Fsync,
                free_behind: false,
            };
            let done =
                w.io.execute(&w.stream, &Contiguous, IoIntent::WriteCluster(wc))
                    .await
                    .expect("write issues");
            let Executed::Wrote { cluster_blocks } = done else {
                panic!("writeback did not write");
            };
            assert_eq!(cluster_blocks, vec![CLUSTER], "one cluster");
            w.stream.quiesce().await;
            spent = allocated_bytes() - before;
        }
        let back = w.disk.read(0, CLUSTER * SECTORS_PER_BLOCK as u32).await;
        for lbn in 0..CLUSTER as u64 {
            let at = lbn as usize * BLOCK;
            assert_eq!(back[at..at + BLOCK], block(lbn, 2)[..], "block {lbn}");
        }
        spent
    });
    assert!(
        (payload..payload + BLOCK as u64).contains(&spent),
        "a {CLUSTER}-block cluster write allocated {spent} bytes; \
         one payload is {payload}"
    );
}
