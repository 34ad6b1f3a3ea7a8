//! Two tasks faulting the same uncached block at once.

use std::rc::Rc;

use diskmodel::{DiskParams, SharedDevice};
use extentfs::{ExtentFs, ExtentFsParams};
use pagecache::{PageCache, PageCacheParams, PageoutDaemon, PageoutParams};
use simkit::{Cpu, Sim};
use vfs::{AccessMode, FileSystem, Vnode};

#[test]
fn concurrent_faults_on_one_uncached_block_both_read_it() {
    // The first fault creates the page and starts the read; the second's
    // demand read finds the page already there and must wait for it, not
    // panic. Default (non-zero) CPU costs make the two faults interleave.
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let cpu = Cpu::new(&s);
        let disk: SharedDevice = Rc::new(diskmodel::Disk::new(&s, DiskParams::small_test()));
        let cache = PageCache::new(&s, PageCacheParams::small_test());
        let (_daemon, rx) = PageoutDaemon::spawn(&s, &cache, None, PageoutParams::small_test());
        std::mem::forget(rx); // Keep the cleaner channel open.
        let params = ExtentFsParams::with_extent_blocks(8);
        let fs = ExtentFs::format(&s, &cpu, &cache, &disk, 64, params).unwrap();
        let data: Vec<u8> = (0..256 * 1024)
            .map(|i| (i as u8).wrapping_mul(13))
            .collect();
        let f = fs.create("shared").await.unwrap();
        f.write(0, &data, AccessMode::Copy).await.unwrap();
        f.fsync().await.unwrap();
        cache.invalidate_vnode(f.id(), 0);
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let fs = fs.clone();
                s.spawn(async move {
                    let g = fs.open("shared").await.unwrap();
                    g.read(0, 8192, AccessMode::Copy).await.unwrap()
                })
            })
            .collect();
        for r in readers {
            assert_eq!(r.await, data[..8192]);
        }
        assert!(fs.check().is_empty(), "{:?}", fs.check());
    });
}
