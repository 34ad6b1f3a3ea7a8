//! Truncating a file while a read-ahead fill is still in flight.

use std::rc::Rc;

use diskmodel::{DiskParams, SharedDevice};
use extentfs::{ExtentFs, ExtentFsParams};
use pagecache::{PageCache, PageCacheParams, PageoutDaemon, PageoutParams};
use simkit::{Cpu, Sim};
use vfs::{AccessMode, FileSystem, Vnode};

#[test]
fn recreate_waits_out_an_in_flight_readahead() {
    // The first read of a cold file returns once its own unit lands, with
    // the next unit's read-ahead still busy in the cache. Re-creating the
    // name truncates the file, which must wait that fill out before it
    // invalidates the pages, not trip over a busy page.
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
        let data: Vec<u8> = (0..200_000).map(|i| (i as u8).wrapping_mul(7)).collect();
        let f = fs.create("victim").await.unwrap();
        f.write(0, &data, AccessMode::Copy).await.unwrap();
        f.fsync().await.unwrap();
        cache.invalidate_vnode(f.id(), 0);
        assert_eq!(
            f.read(0, 8192, AccessMode::Copy).await.unwrap(),
            data[..8192]
        );
        let g = fs.create("victim").await.unwrap();
        assert_eq!(g.size(), 0);
        assert_eq!(
            cache.resident_of(g.id()),
            0,
            "no page survives the truncate"
        );
        g.write(0, b"again", AccessMode::Copy).await.unwrap();
        assert_eq!(g.read(0, 5, AccessMode::Copy).await.unwrap(), b"again");
        fs.remove("victim").await.unwrap();
        assert!(fs.check().is_empty(), "{:?}", fs.check());
        assert_eq!(fs.free_blocks(), fs.capacity_blocks());
    });
}
