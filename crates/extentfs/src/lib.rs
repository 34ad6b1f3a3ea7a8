//! # extentfs — the comparator the paper argues against
//!
//! An extent-based file system: file data lives in large, physically
//! contiguous extents indexed by a per-file B+-tree, preallocated in
//! user-chosen units (the paper: "Typically, the user can control the size
//! of these extents... it is unlikely that a user will be able to choose
//! the 'right' extent size"). I/O is performed in extent-sized units, so
//! per-call CPU overhead is amortized exactly as in an extent file system.
//!
//! This crate exists for the title claim: clustered UFS should match
//! extent-based throughput *without* the on-disk format change and without
//! exposing extent sizing to users. The ablation benches mount this next to
//! UFS on identical hardware.
//!
//! The format is deliberately simple (and incompatible with UFS — that is
//! the point): a header block, a fixed inode table with names stored in the
//! inodes (flat namespace), free-space maps, then data. Three pieces are
//! real-extent-file-system shaped rather than toys:
//!
//! - each file's mapping is a B+-tree of `(logical, physical, len)` records
//!   ([`tree`]) with no fixed extent cap — splits and merges as it grows;
//! - free space is managed by per-group buddy/bitmap structures with
//!   goal-block placement and best-fit-by-order search ([`alloc`]), the
//!   ext4 mballoc shape, replacing the old linear-scan bitmap;
//! - files at or below [`ExtentFsParams::inline_max`] bytes live *in the
//!   inode record* and spill into the tree on growth — the small-file case
//!   the paper's clustering explicitly does not help.
//!
//! The inode table and maps are held in core; only the data path is
//! simulated in full, because only the data path is measured.

use std::cell::RefCell;
use std::rc::Rc;

use clufs::PrefetchPolicy;
use diskmodel::{BlockDeviceExt, SharedDevice};
use pagecache::{PageCache, PageId, PageKey};
use simkit::stats::{Counter, Gauge};
use simkit::{Cpu, IntMap, Sim, SpanId};
use ufs::CpuCosts;
use vfs::iopath::{BlockMap, DirtySweep, FileStream, IoCosts, IoPath, Probes, ReadRuns};
use vfs::{AccessMode, FileSystem, FsError, FsResult, StreamId, Vnode, VnodeId};

pub mod alloc;
pub mod tree;

use alloc::BuddyAllocator;
use tree::{ExtentRec, ExtentTree};

/// Bytes per file system block (same as UFS for apples-to-apples).
pub const BLOCK_SIZE: usize = 8192;
const SECTORS_PER_BLOCK: u32 = (BLOCK_SIZE / 512) as u32;
/// Maximum file name length (stored in the inode).
pub const NAME_MAX: usize = 59;

/// Mount parameters.
#[derive(Clone)]
pub struct ExtentFsParams {
    /// The user-chosen extent size, in blocks — the knob the paper says
    /// users cannot choose correctly.
    pub extent_blocks: u32,
    /// Files at or below this many bytes are stored inline in the inode
    /// record; the first write growing past it spills into the extent
    /// tree (one-way).
    pub inline_max: usize,
    /// CPU cost model (use the same as the UFS mount being compared).
    pub costs: CpuCosts,
    /// Which prefetch engine the read path runs (`Fixed` is the paper's
    /// predictor; `Off` disables read-ahead).
    pub prefetch: PrefetchPolicy,
    /// Page-cache identity namespace.
    pub mount_id: u64,
}

impl ExtentFsParams {
    /// A mount with the given extent size and SPARCstation costs.
    pub fn with_extent_blocks(extent_blocks: u32) -> ExtentFsParams {
        ExtentFsParams {
            extent_blocks: extent_blocks.max(1),
            inline_max: 512,
            costs: CpuCosts::sparcstation_1(),
            prefetch: PrefetchPolicy::Fixed,
            mount_id: 0x0e,
        }
    }
}

/// Where a file's bytes live.
enum FileData {
    /// At most `inline_max` bytes, stored in the inode record itself.
    Inline(Vec<u8>),
    /// Block-backed, mapped by the extent tree.
    Extents(ExtentTree),
}

struct ExtInode {
    name: String,
    size: u64,
    data: FileData,
}

/// Running fragmentation totals behind the registry gauges.
#[derive(Default, Clone, Copy)]
struct FragTotals {
    inline_files: u64,
    extent_files: u64,
    extents: u64,
    extent_blocks: u64,
}

/// Registry instruments for the aging study (`extentfs.*` in
/// `--stats-json`).
struct FragGauges {
    short_extents: Counter,
    mean_extent_blocks: Gauge,
    extents_per_file: Gauge,
    inline_files: Gauge,
    totals: RefCell<FragTotals>,
}

impl FragGauges {
    fn new(sim: &Sim) -> FragGauges {
        let s = sim.stats();
        FragGauges {
            short_extents: s.counter("extentfs.short_extents"),
            mean_extent_blocks: s.gauge("extentfs.mean_extent_blocks"),
            extents_per_file: s.gauge("extentfs.extents_per_file"),
            inline_files: s.gauge("extentfs.inline_files"),
            totals: RefCell::new(FragTotals::default()),
        }
    }

    fn update(&self, f: impl FnOnce(&mut FragTotals)) {
        let mut t = self.totals.borrow_mut();
        f(&mut t);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        self.mean_extent_blocks
            .set(ratio(t.extent_blocks, t.extents));
        self.extents_per_file.set(ratio(t.extents, t.extent_files));
        self.inline_files.set(t.inline_files as f64);
    }
}

struct Inner {
    sim: Sim,
    cpu: Cpu,
    disk: SharedDevice,
    cache: PageCache,
    params: ExtentFsParams,
    /// Shared I/O executor (the same engine UFS drives).
    iopath: IoPath,
    data_start: u64,
    alloc: RefCell<BuddyAllocator>,
    inodes: RefCell<Vec<Option<ExtInode>>>,
    /// Each open file's stream (extentfs has no write limit, so its
    /// throttle is unlimited).
    open: RefCell<IntMap<u32, Rc<FileStream>>>,
    stats: RefCell<ExtentFsStats>,
    frag: FragGauges,
}

/// [`BlockMap`] view of one extent file: translation is a tree walk, the
/// transfer cap is the mount's extent unit.
struct ExtMap<'a> {
    fs: &'a ExtentFs,
    ino: u32,
}

impl BlockMap for ExtMap<'_> {
    async fn extent(&self, lbn: u64, cap: u32) -> FsResult<Option<(u32, u32)>> {
        Ok(self
            .fs
            .translate(self.ino, lbn)
            .map(|(pbn, len)| (pbn, len.min(cap))))
    }

    async fn runs(&self, lbn: u64, blocks: u32) -> FsResult<Vec<(u32, u32)>> {
        let inodes = self.fs.inner.inodes.borrow();
        let inode = inodes[self.ino as usize]
            .as_ref()
            .ok_or(FsError::NotFound)?;
        Ok(match &inode.data {
            FileData::Extents(t) => t.runs(lbn, blocks),
            FileData::Inline(_) => Vec::new(),
        })
    }

    fn max_cluster(&self) -> u32 {
        self.fs.inner.params.extent_blocks
    }
}

/// Mount-wide counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExtentFsStats {
    /// Extent-unit reads issued.
    pub unit_reads: u64,
    /// Extent-unit writes issued.
    pub unit_writes: u64,
    /// Blocks moved by reads.
    pub blocks_read: u64,
    /// Blocks moved by writes.
    pub blocks_written: u64,
    /// Preallocation attempts that had to settle for a shorter extent.
    pub short_extents: u64,
    /// Files currently stored inline in their inode.
    pub inline_files: u64,
}

/// A mounted extent file system. Clones share the mount.
#[derive(Clone)]
pub struct ExtentFs {
    inner: Rc<Inner>,
}

/// An open file.
pub struct ExtFile {
    fs: ExtentFs,
    ino: u32,
    io: Rc<FileStream>,
}

impl ExtentFs {
    /// Formats `disk` and mounts a fresh, empty volume.
    ///
    /// `ninodes` bounds the file count. Header/inode-table/map blocks are
    /// reserved at the front of the device so data placement is comparable
    /// with UFS.
    pub fn format(
        sim: &Sim,
        cpu: &Cpu,
        cache: &PageCache,
        disk: &SharedDevice,
        ninodes: u32,
        params: ExtentFsParams,
    ) -> FsResult<ExtentFs> {
        assert_eq!(cache.page_size(), BLOCK_SIZE);
        assert!(
            params.inline_max <= BLOCK_SIZE,
            "inline files must fit one block"
        );
        let total_blocks = disk.total_sectors() / SECTORS_PER_BLOCK as u64;
        let inode_blocks = (ninodes as u64 * 512).div_ceil(BLOCK_SIZE as u64);
        let bitmap_blocks = total_blocks.div_ceil(BLOCK_SIZE as u64 * 8);
        let data_start = 1 + inode_blocks + bitmap_blocks;
        if data_start >= total_blocks {
            return Err(FsError::Invalid);
        }
        let data_blocks = total_blocks - data_start;
        let iopath = IoPath::new(
            sim,
            cpu,
            disk,
            cache,
            IoCosts {
                io_setup: params.costs.io_setup,
                io_intr: params.costs.io_intr,
            },
        );
        iopath.set_prefetch(params.prefetch, params.extent_blocks);
        Ok(ExtentFs {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                cpu: cpu.clone(),
                disk: disk.clone(),
                cache: cache.clone(),
                params,
                iopath,
                data_start,
                alloc: RefCell::new(BuddyAllocator::new(data_blocks)),
                inodes: RefCell::new((0..ninodes).map(|_| None).collect()),
                open: RefCell::default(),
                stats: RefCell::new(ExtentFsStats::default()),
                frag: FragGauges::new(sim),
            }),
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ExtentFsStats {
        let mut s = *self.inner.stats.borrow();
        s.inline_files = self.inner.frag.totals.borrow().inline_files;
        s
    }

    /// Data blocks on the volume.
    pub fn capacity_blocks(&self) -> u64 {
        self.inner.alloc.borrow().capacity()
    }

    /// Data blocks currently free.
    pub fn free_blocks(&self) -> u64 {
        self.inner.alloc.borrow().free_blocks()
    }

    /// Blocks currently allocated to `ino` (tests and experiments).
    pub fn allocated_blocks(&self, ino: u32) -> u64 {
        let inodes = self.inner.inodes.borrow();
        inodes[ino as usize]
            .as_ref()
            .map(|i| match &i.data {
                FileData::Inline(_) => 0,
                FileData::Extents(t) => t.total_blocks(),
            })
            .unwrap_or(0)
    }

    async fn charge(&self, tag: &'static str, d: simkit::SimDuration) {
        self.inner.cpu.charge(tag, d).await;
    }

    fn vid(&self, ino: u32) -> VnodeId {
        (self.inner.params.mount_id << 32) | ino as u64
    }

    /// Returns `[pbn, pbn+len)` to the allocator. A double free surfaces
    /// as `Err(FsError::Corrupt)` — reported to the caller, not asserted.
    fn free_extent(&self, pbn: u32, len: u32) -> FsResult<()> {
        self.inner
            .alloc
            .borrow_mut()
            .free_run(pbn as u64 - self.inner.data_start, len)
    }

    /// Translates `lbn` to `(pbn, contiguous len)` within the file's
    /// extent tree. An extent file system's bmap is a tree walk over
    /// in-core records — that is its CPU advantage, reflected by charging
    /// only the base bmap cost.
    fn translate(&self, ino: u32, lbn: u64) -> Option<(u32, u32)> {
        let inodes = self.inner.inodes.borrow();
        match &inodes[ino as usize].as_ref()?.data {
            FileData::Inline(_) => None,
            FileData::Extents(t) => t.lookup(lbn),
        }
    }

    /// Goal block for a file's first extent: inodes spread across the
    /// volume (the UFS cylinder-group idea), so fresh streams start in
    /// open space and goal extension keeps them contiguous. Without this,
    /// best-fit-by-order would seed every file on the exact-order tail
    /// fragments of the buddy decomposition.
    fn first_goal(&self, ino: u32) -> u64 {
        let cap = self.inner.alloc.borrow().capacity();
        let n = self.inner.inodes.borrow().len() as u64;
        ino as u64 * cap / n.max(1)
    }

    /// Grows the file's allocation to cover `blocks` logical blocks by
    /// preallocating extents of the mount's extent size, goal-placed at
    /// the end of the previous extent so sequential growth merges into
    /// long runs.
    fn ensure_allocated(&self, ino: u32, blocks: u64) -> FsResult<()> {
        loop {
            let (allocated, goal) = {
                let inodes = self.inner.inodes.borrow();
                let inode = inodes[ino as usize].as_ref().ok_or(FsError::NotFound)?;
                let FileData::Extents(t) = &inode.data else {
                    return Err(FsError::Corrupt); // Inline files have no blocks.
                };
                (
                    t.total_blocks(),
                    Some(
                        t.last()
                            .map(|r| r.pbn as u64 + r.len as u64 - self.inner.data_start)
                            .unwrap_or_else(|| self.first_goal(ino)),
                    ),
                )
            };
            if allocated >= blocks {
                return Ok(());
            }
            let run = self
                .inner
                .alloc
                .borrow_mut()
                .alloc(self.inner.params.extent_blocks, goal)?;
            if run.short {
                self.inner.stats.borrow_mut().short_extents += 1;
                self.inner.frag.short_extents.inc();
            }
            let mut inodes = self.inner.inodes.borrow_mut();
            let inode = inodes[ino as usize].as_mut().ok_or(FsError::NotFound)?;
            let FileData::Extents(t) = &mut inode.data else {
                return Err(FsError::Corrupt);
            };
            let before = t.nextents();
            t.insert(ExtentRec {
                logical: allocated,
                pbn: (self.inner.data_start + run.start) as u32,
                len: run.len,
            });
            let d_extents = t.nextents() as i64 - before as i64;
            drop(inodes);
            self.inner.frag.update(|f| {
                f.extents = f.extents.wrapping_add_signed(d_extents);
                f.extent_blocks += run.len as u64;
            });
        }
    }

    /// An open handle on `ino`, sharing the file's one stream.
    fn file(&self, ino: u32) -> ExtFile {
        let io = Rc::clone(
            self.inner
                .open
                .borrow_mut()
                .entry(ino)
                .or_insert_with(|| FileStream::new(&self.inner.sim, self.vid(ino), None)),
        );
        ExtFile {
            fs: self.clone(),
            ino,
            io,
        }
    }

    /// Reads the I/O unit containing `lbn` into the cache (plus read-ahead
    /// of the next unit) and returns the page.
    async fn getpage(
        &self,
        f: &ExtFile,
        lbn: u64,
        eof_blocks: u64,
        parent: SpanId,
    ) -> FsResult<PageId> {
        let tracer = self.inner.sim.tracer();
        let guard = tracer.enter("fs.getpage", f.io.id().as_u32(), parent);
        let span = guard.id();
        tracer.arg(span, "lbn", lbn);
        let costs = self.inner.params.costs;
        let iopath = &self.inner.iopath;
        let key = PageKey {
            vnode: self.vid(f.ino),
            offset: lbn * BLOCK_SIZE as u64,
        };
        let unit = self.inner.params.extent_blocks;
        // The unit containing a block may be physically fragmented on an
        // aged volume; the batched reads below still move it in one
        // setup, so availability is clipped by the unit and EOF only.
        let extent = |probe: u64| -> Option<(u32, u32)> {
            if probe >= eof_blocks {
                return None;
            }
            let (pbn, _) = self.translate(f.ino, probe)?;
            Some((pbn, (eof_blocks - probe).min(unit as u64) as u32))
        };
        let map = ExtMap {
            fs: self,
            ino: f.ino,
        };
        // The pagein retry loop: each pass is one full fault.
        loop {
            let cached = self
                .inner
                .cache
                .lookup_traced(key, f.io.id().as_u32(), span);
            if cached.is_some() {
                iopath.take_ra_pending(key);
            }
            self.charge(
                "fault",
                if cached.is_some() {
                    costs.page_hit
                } else {
                    costs.fault
                },
            )
            .await;
            self.charge("bmap", costs.bmap).await;
            if self.translate(f.ino, lbn).is_none() {
                return Err(FsError::Corrupt);
            }
            // Extent lookups are synchronous, so every probe resolves at
            // once.
            let (plan, _) = iopath
                .plan(
                    f.io.id(),
                    lbn,
                    cached.is_some(),
                    0,
                    Probes::default(),
                    |p| std::future::ready(Ok(extent(p))),
                )
                .await?;
            let mut sync_io = None;
            if cached.is_none() {
                let run = plan.sync.expect("uncached read plans I/O");
                debug_assert_eq!(run.lbn, lbn);
                let rr = ReadRuns {
                    lbn,
                    len: run.blocks,
                    at: None,
                    sieve: None,
                };
                if let Some(io) = iopath.read_runs(&f.io, &map, rr, span).await? {
                    let mut st = self.inner.stats.borrow_mut();
                    st.unit_reads += 1;
                    st.blocks_read += io.blocks() as u64;
                    sync_io = Some(io);
                }
            }
            for run in &plan.runs {
                // Sieving runs already chose their span; exact runs are
                // re-clipped by EOF/mapping availability.
                let n = match run.sieve {
                    Some(_) => run.blocks,
                    None => run.blocks.min(extent(run.lbn).map_or(0, |(_, n)| n)),
                };
                if n > 0 {
                    let rr = ReadRuns {
                        lbn: run.lbn,
                        len: n,
                        at: None,
                        sieve: run.sieve,
                    };
                    let blocks = iopath.read_ahead(&f.io, &map, rr).await?;
                    if blocks > 0 {
                        let mut st = self.inner.stats.borrow_mut();
                        st.unit_reads += 1;
                        st.blocks_read += blocks as u64;
                    }
                }
            }
            if let Some(io) = sync_io {
                return iopath.finish_batch(io, lbn).await;
            }
            if let Some(id) = iopath.revalidate(key, cached).await {
                return Ok(id);
            }
        }
    }

    /// Offers dirtied page `lbn` to the shared delayed-write path in
    /// extent units, counting what it pushes.
    async fn putpage(&self, f: &ExtFile, lbn: u64) -> FsResult<()> {
        let map = ExtMap {
            fs: self,
            ino: f.ino,
        };
        let unit = self.inner.params.extent_blocks;
        let clusters = self.inner.iopath.putpage(&f.io, &map, lbn, unit).await?;
        self.count_writes(&clusters);
        Ok(())
    }

    /// Counts the extent-unit writes one push issued.
    fn count_writes(&self, clusters: &[u32]) {
        let mut st = self.inner.stats.borrow_mut();
        for &n in clusters {
            st.unit_writes += 1;
            st.blocks_written += n as u64;
        }
    }

    fn find(&self, name: &str) -> Option<u32> {
        self.inner
            .inodes
            .borrow()
            .iter()
            .position(|slot| slot.as_ref().map(|i| i.name == name).unwrap_or(false))
            .map(|i| i as u32)
    }

    /// Verifies allocator-vs-tree consistency (a lightweight fsck).
    pub fn check(&self) -> Vec<String> {
        let alloc = self.inner.alloc.borrow();
        let mut errors = alloc.check();
        let mut claimed = vec![false; alloc.capacity() as usize];
        for (ino, slot) in self.inner.inodes.borrow().iter().enumerate() {
            let Some(inode) = slot else { continue };
            match &inode.data {
                FileData::Inline(buf) => {
                    if inode.size != buf.len() as u64 || buf.len() > self.inner.params.inline_max {
                        errors.push(format!("ino {ino}: inline size out of bounds"));
                    }
                }
                FileData::Extents(t) => {
                    errors.extend(t.check().into_iter().map(|e| format!("ino {ino}: {e}")));
                    if inode.size.div_ceil(BLOCK_SIZE as u64) > t.total_blocks() {
                        errors.push(format!("ino {ino}: size exceeds allocation"));
                    }
                    for r in t.records() {
                        for b in 0..r.len as u64 {
                            let idx = (r.pbn as u64 - self.inner.data_start + b) as usize;
                            if claimed[idx] {
                                errors.push(format!("block {idx}: doubly claimed"));
                            }
                            claimed[idx] = true;
                            if !alloc.is_allocated(idx as u64) {
                                errors.push(format!("block {idx}: claimed but free"));
                            }
                        }
                    }
                }
            }
        }
        for (idx, &cl) in claimed.iter().enumerate() {
            if alloc.is_allocated(idx as u64) && !cl {
                errors.push(format!("block {idx}: allocated but unclaimed"));
            }
        }
        errors
    }
}

impl Vnode for ExtFile {
    fn id(&self) -> VnodeId {
        self.fs.vid(self.ino)
    }

    fn size(&self) -> u64 {
        self.fs.inner.inodes.borrow()[self.ino as usize]
            .as_ref()
            .map(|i| i.size)
            .unwrap_or(0)
    }

    fn stream(&self) -> StreamId {
        self.io.id()
    }

    async fn read_into(&self, off: u64, buf: &mut [u8], mode: AccessMode) -> FsResult<usize> {
        // One root span per request, same shape as UFS (`fs.read`), so the
        // trace analyzer treats both mounts identically.
        let tracer = self.fs.inner.sim.tracer();
        let guard = tracer.enter("fs.read", self.io.id().as_u32(), SpanId::NONE);
        let span = guard.id();
        tracer.arg(span, "off", off);
        tracer.arg(span, "bytes", buf.len() as u64);
        let costs = self.fs.inner.params.costs;
        self.fs.charge("syscall", costs.syscall).await;
        if let Some(n) = self.inline_read(off, buf) {
            // Inode-resident data: no page cache, no disk — just the copy.
            if mode == AccessMode::Copy && n > 0 {
                self.fs.charge("copy", costs.copy(n)).await;
            }
            return Ok(n);
        }
        let size = self.size();
        if off >= size {
            return Ok(0);
        }
        let len = buf.len().min((size - off) as usize);
        let eof_blocks = size.div_ceil(BLOCK_SIZE as u64);
        let mut pos = off;
        let mut dst = 0usize;
        let end = off + len as u64;
        while pos < end {
            let lbn = pos / BLOCK_SIZE as u64;
            let in_page = (pos % BLOCK_SIZE as u64) as usize;
            let n = ((BLOCK_SIZE - in_page) as u64).min(end - pos) as usize;
            let pid = self.fs.getpage(self, lbn, eof_blocks, span).await?;
            self.fs.charge("map_unmap", costs.map_unmap).await;
            if mode == AccessMode::Copy {
                self.fs.charge("copy", costs.copy(n)).await;
            }
            self.fs
                .inner
                .cache
                .read_at(pid, in_page, &mut buf[dst..dst + n]);
            pos += n as u64;
            dst += n;
        }
        Ok(len)
    }

    async fn write(&self, off: u64, data: &[u8], mode: AccessMode) -> FsResult<()> {
        let tracer = self.fs.inner.sim.tracer();
        let guard = tracer.enter("fs.write", self.io.id().as_u32(), SpanId::NONE);
        let span = guard.id();
        tracer.arg(span, "off", off);
        tracer.arg(span, "bytes", data.len() as u64);
        let costs = self.fs.inner.params.costs;
        self.fs.charge("syscall", costs.syscall).await;
        if data.is_empty() {
            return Ok(());
        }
        let end = off + data.len() as u64;
        if end as usize <= self.fs.inner.params.inline_max && self.is_inline()? {
            if mode == AccessMode::Copy {
                self.fs.charge("copy", costs.copy(data.len())).await;
            }
            let mut inodes = self.fs.inner.inodes.borrow_mut();
            let inode = inodes[self.ino as usize]
                .as_mut()
                .ok_or(FsError::NotFound)?;
            let FileData::Inline(buf) = &mut inode.data else {
                return Err(FsError::Corrupt);
            };
            if buf.len() < end as usize {
                buf.resize(end as usize, 0);
            }
            buf[off as usize..end as usize].copy_from_slice(data);
            inode.size = inode.size.max(end);
            return Ok(());
        }
        self.spill(span).await?;
        self.extent_write(off, data, mode, span).await
    }

    async fn fsync(&self) -> FsResult<()> {
        let map = ExtMap {
            fs: &self.fs,
            ino: self.ino,
        };
        self.fs
            .inner
            .iopath
            .fsync(&self.io, &map, DirtySweep::Span, |c| {
                self.fs.count_writes(c)
            })
            .await
    }

    async fn truncate(&self, size: u64) -> FsResult<()> {
        self.truncate_impl(size).await
    }
}

impl ExtFile {
    /// The file's extent records as `(logical block, physical block, len)`
    /// — same shape as `ufs`'s probe API, for the aging study. Inline
    /// files have none.
    pub async fn extents(&self) -> FsResult<Vec<(u64, u64, u32)>> {
        let inodes = self.fs.inner.inodes.borrow();
        let inode = inodes[self.ino as usize]
            .as_ref()
            .ok_or(FsError::NotFound)?;
        Ok(match &inode.data {
            FileData::Inline(_) => Vec::new(),
            FileData::Extents(t) => t
                .records()
                .into_iter()
                .map(|r| (r.logical, r.pbn as u64, r.len))
                .collect(),
        })
    }

    /// Reads the inline buffer, if this file is inline.
    fn inline_read(&self, off: u64, buf: &mut [u8]) -> Option<usize> {
        let inodes = self.fs.inner.inodes.borrow();
        let inode = inodes[self.ino as usize].as_ref()?;
        let FileData::Inline(bytes) = &inode.data else {
            return None;
        };
        if off >= bytes.len() as u64 {
            return Some(0);
        }
        let n = buf.len().min(bytes.len() - off as usize);
        buf[..n].copy_from_slice(&bytes[off as usize..off as usize + n]);
        Some(n)
    }

    /// Whether the file's bytes live in its inode record.
    fn is_inline(&self) -> FsResult<bool> {
        let inodes = self.fs.inner.inodes.borrow();
        let inode = inodes[self.ino as usize]
            .as_ref()
            .ok_or(FsError::NotFound)?;
        Ok(matches!(inode.data, FileData::Inline(_)))
    }

    /// Moves an inline file into the extent tree (one-way), rewriting its
    /// bytes through the block path; a no-op for an extent file.
    async fn spill(&self, span: SpanId) -> FsResult<()> {
        let old = {
            let mut inodes = self.fs.inner.inodes.borrow_mut();
            let inode = inodes[self.ino as usize]
                .as_mut()
                .ok_or(FsError::NotFound)?;
            let FileData::Inline(buf) = &mut inode.data else {
                return Ok(());
            };
            let old = std::mem::take(buf);
            inode.data = FileData::Extents(ExtentTree::new());
            old
        };
        self.fs.inner.frag.update(|f| {
            f.inline_files -= 1;
            f.extent_files += 1;
        });
        if !old.is_empty() {
            self.extent_write(0, &old, AccessMode::Copy, span).await?;
        }
        Ok(())
    }

    async fn extent_write(
        &self,
        off: u64,
        data: &[u8],
        mode: AccessMode,
        span: SpanId,
    ) -> FsResult<()> {
        let costs = self.fs.inner.params.costs;
        let end = off + data.len() as u64;
        self.fs
            .ensure_allocated(self.ino, end.div_ceil(BLOCK_SIZE as u64))?;
        let old_size = self.size();
        let old_blocks = old_size.div_ceil(BLOCK_SIZE as u64);
        if off > old_size {
            // The write loop covers off's own block.
            self.zero_fill(old_blocks..off / BLOCK_SIZE as u64, span)
                .await?;
        }
        let mut pos = off;
        let mut src = 0usize;
        while pos < end {
            let lbn = pos / BLOCK_SIZE as u64;
            let in_page = (pos % BLOCK_SIZE as u64) as usize;
            let n = ((BLOCK_SIZE - in_page) as u64).min(end - pos) as usize;
            self.fs.charge("bmap", costs.bmap).await;
            let key = PageKey {
                vnode: self.id(),
                offset: lbn * BLOCK_SIZE as u64,
            };
            let full = in_page == 0 && n == BLOCK_SIZE;
            let pid = match self.fs.inner.cache.lookup(key) {
                Some(pid) => {
                    self.fs.inner.cache.wait_unbusy(pid).await;
                    pid
                }
                None => {
                    let pid = self
                        .fs
                        .inner
                        .cache
                        .create_traced(key, self.io.id().as_u32(), span)
                        .await;
                    if !full && lbn < old_blocks {
                        // Read-modify-write of an existing partial block.
                        let (pbn, _) = self.fs.translate(self.ino, lbn).ok_or(FsError::Corrupt)?;
                        self.fs.charge("io_setup", costs.io_setup).await;
                        let old = self
                            .fs
                            .inner
                            .disk
                            .read(pbn as u64 * SECTORS_PER_BLOCK as u64, SECTORS_PER_BLOCK)
                            .await;
                        self.fs.charge("io_intr", costs.io_intr).await;
                        self.fs.inner.cache.write_at(pid, 0, &old);
                    }
                    self.fs.inner.cache.unbusy(pid);
                    pid
                }
            };
            self.fs.charge("map_unmap", costs.map_unmap).await;
            if mode == AccessMode::Copy {
                self.fs.charge("copy", costs.copy(n)).await;
            }
            self.fs
                .inner
                .cache
                .write_at(pid, in_page, &data[src..src + n]);
            self.fs.inner.cache.mark_dirty(pid);
            {
                let mut inodes = self.fs.inner.inodes.borrow_mut();
                let inode = inodes[self.ino as usize]
                    .as_mut()
                    .ok_or(FsError::NotFound)?;
                if pos + n as u64 > inode.size {
                    inode.size = pos + n as u64;
                }
            }
            self.fs.putpage(self, lbn).await?;
            pos += n as u64;
            src += n;
        }
        Ok(())
    }

    /// Extent file systems have no holes: blocks a file grows over without
    /// writing them (a write past EOF, an extending truncate) are
    /// zero-filled dirty pages, offered to putpage like written ones, or
    /// reads would expose whatever the recycled disk blocks last held.
    /// (UFS avoids this cost with real holes — one of the paper's points
    /// in its favor.)
    async fn zero_fill(&self, blocks: std::ops::Range<u64>, span: SpanId) -> FsResult<()> {
        let cache = &self.fs.inner.cache;
        for lbn in blocks {
            let key = PageKey {
                vnode: self.id(),
                offset: lbn * BLOCK_SIZE as u64,
            };
            let pid = match cache.lookup(key) {
                Some(pid) => {
                    cache.wait_unbusy(pid).await;
                    cache.write_at(pid, 0, &[0u8; BLOCK_SIZE]);
                    pid
                }
                None => {
                    let pid = cache.create_traced(key, self.io.id().as_u32(), span).await;
                    cache.unbusy(pid); // Created zeroed.
                    pid
                }
            };
            cache.mark_dirty(pid);
            self.fs.putpage(self, lbn).await?;
        }
        Ok(())
    }

    /// Extends the file with zeros to `size` bytes: an inline file grows
    /// in place up to `inline_max` and spills into extents past it; an
    /// extent file zero-fills its new blocks.
    async fn extend(&self, size: u64) -> FsResult<()> {
        {
            let mut inodes = self.fs.inner.inodes.borrow_mut();
            let inode = inodes[self.ino as usize]
                .as_mut()
                .ok_or(FsError::NotFound)?;
            if let FileData::Inline(buf) = &mut inode.data {
                if size as usize <= self.fs.inner.params.inline_max {
                    buf.resize(size as usize, 0);
                    inode.size = size;
                    return Ok(());
                }
            }
        }
        self.spill(SpanId::NONE).await?;
        let blocks = size.div_ceil(BLOCK_SIZE as u64);
        self.fs.ensure_allocated(self.ino, blocks)?;
        let old_blocks = self.size().div_ceil(BLOCK_SIZE as u64);
        self.zero_fill(old_blocks..blocks, SpanId::NONE).await?;
        let mut inodes = self.fs.inner.inodes.borrow_mut();
        inodes[self.ino as usize]
            .as_mut()
            .ok_or(FsError::NotFound)?
            .size = size;
        Ok(())
    }

    async fn truncate_impl(&self, size: u64) -> FsResult<()> {
        self.fsync().await?;
        if size > self.size() {
            return self.extend(size).await;
        }
        let keep_blocks = size.div_ceil(BLOCK_SIZE as u64);
        let freed: Vec<(u32, u32)> = {
            let mut inodes = self.fs.inner.inodes.borrow_mut();
            let inode = inodes[self.ino as usize]
                .as_mut()
                .ok_or(FsError::NotFound)?;
            inode.size = size;
            match &mut inode.data {
                FileData::Inline(buf) => {
                    buf.truncate(size as usize);
                    return Ok(());
                }
                FileData::Extents(t) => {
                    let before = t.nextents();
                    let freed = t.truncate_to(keep_blocks);
                    let d_extents = before as i64 - t.nextents() as i64;
                    let d_blocks: u64 = freed.iter().map(|&(_, l)| l as u64).sum();
                    self.fs.inner.frag.update(|f| {
                        f.extents -= d_extents as u64;
                        f.extent_blocks -= d_blocks;
                    });
                    freed
                }
            }
        };
        let cache = &self.fs.inner.cache;
        let from = keep_blocks * BLOCK_SIZE as u64;
        cache.wait_unbusy_vnode(self.id(), from).await;
        cache.invalidate_vnode(self.id(), from);
        for (pbn, len) in freed {
            self.fs.free_extent(pbn, len)?;
        }
        // Zero the tail of the kept final partial block so a later
        // extension does not expose stale bytes.
        let tail = (size % BLOCK_SIZE as u64) as usize;
        if tail != 0 {
            let last_lbn = size / BLOCK_SIZE as u64;
            if let Some((pbn, _)) = self.fs.translate(self.ino, last_lbn) {
                let key = PageKey {
                    vnode: self.id(),
                    offset: last_lbn * BLOCK_SIZE as u64,
                };
                let pid = match self.fs.inner.cache.lookup(key) {
                    Some(pid) => {
                        self.fs.inner.cache.wait_unbusy(pid).await;
                        pid
                    }
                    None => {
                        let pid = self.fs.inner.cache.create(key).await;
                        let old = self
                            .fs
                            .inner
                            .disk
                            .read(pbn as u64 * SECTORS_PER_BLOCK as u64, SECTORS_PER_BLOCK)
                            .await;
                        self.fs.inner.cache.write_at(pid, 0, &old);
                        self.fs.inner.cache.unbusy(pid);
                        pid
                    }
                };
                self.fs
                    .inner
                    .cache
                    .write_at(pid, tail, &vec![0u8; BLOCK_SIZE - tail]);
                self.fs.inner.cache.mark_dirty(pid);
            }
        }
        Ok(())
    }
}

impl FileSystem for ExtentFs {
    type File = ExtFile;

    async fn create(&self, path: &str) -> FsResult<ExtFile> {
        let name = path.trim_start_matches('/');
        if name.is_empty() || name.len() > NAME_MAX || name.contains('/') {
            return Err(FsError::Invalid);
        }
        if let Some(ino) = self.find(name) {
            let f = self.file(ino);
            f.truncate(0).await?;
            return Ok(f);
        }
        let slot = {
            let mut inodes = self.inner.inodes.borrow_mut();
            let slot = inodes
                .iter()
                .position(|s| s.is_none())
                .ok_or(FsError::NoInodes)?;
            inodes[slot] = Some(ExtInode {
                name: name.to_string(),
                size: 0,
                data: FileData::Inline(Vec::new()),
            });
            slot as u32
        };
        self.inner.frag.update(|f| f.inline_files += 1);
        Ok(self.file(slot))
    }

    async fn open(&self, path: &str) -> FsResult<ExtFile> {
        let name = path.trim_start_matches('/');
        let ino = self.find(name).ok_or(FsError::NotFound)?;
        Ok(self.file(ino))
    }

    async fn remove(&self, path: &str) -> FsResult<()> {
        let name = path.trim_start_matches('/');
        let ino = self.find(name).ok_or(FsError::NotFound)?;
        self.file(ino).truncate(0).await?;
        self.inner.cache.wait_unbusy_vnode(self.vid(ino), 0).await;
        self.inner.cache.invalidate_vnode(self.vid(ino), 0);
        let was_inline = {
            let mut inodes = self.inner.inodes.borrow_mut();
            let inode = inodes[ino as usize].take().ok_or(FsError::NotFound)?;
            matches!(inode.data, FileData::Inline(_))
        };
        self.inner.frag.update(|f| {
            if was_inline {
                f.inline_files -= 1;
            } else {
                f.extent_files -= 1;
            }
        });
        self.inner.open.borrow_mut().remove(&ino);
        Ok(())
    }

    async fn sync(&self) -> FsResult<()> {
        let inos: Vec<u32> = self.inner.open.borrow().keys().copied().collect();
        for ino in inos {
            self.file(ino).fsync().await?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::DiskParams;
    use pagecache::PageCacheParams;

    fn world(sim: &Sim, extent_blocks: u32) -> (ExtentFs, SharedDevice) {
        let cpu = Cpu::new(sim);
        let disk: SharedDevice = Rc::new(diskmodel::Disk::new(sim, DiskParams::small_test()));
        let cache = PageCache::new(sim, PageCacheParams::small_test());
        // A pageout daemon keeps page allocation from deadlocking when a
        // test touches more pages than the (tiny) cache holds. Dirty
        // victims are not cleaned here (tests fsync explicitly).
        let (_daemon, _rx) = pagecache::PageoutDaemon::spawn(
            sim,
            &cache,
            None,
            pagecache::PageoutParams::small_test(),
        );
        std::mem::forget(_rx); // Keep the cleaner channel open.
        let mut params = ExtentFsParams::with_extent_blocks(extent_blocks);
        params.costs = CpuCosts::free();
        let fs = ExtentFs::format(sim, &cpu, &cache, &disk, 64, params).unwrap();
        (fs, disk)
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(17).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn roundtrip_and_preallocation() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 8);
            let f = fs.create("data").await.unwrap();
            let data = pattern(100_000, 1);
            f.write(0, &data, AccessMode::Copy).await.unwrap();
            assert_eq!(f.size(), 100_000);
            let back = f.read(0, 100_000, AccessMode::Copy).await.unwrap();
            assert_eq!(back, data);
            // 100 KB = 13 blocks, preallocated in 8-block extents → 16.
            assert_eq!(fs.allocated_blocks(f.ino), 16);
            assert!(fs.check().is_empty(), "{:?}", fs.check());
        });
    }

    #[test]
    fn small_files_stay_inline() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, disk) = world(&s, 8);
            let f = fs.create("tiny").await.unwrap();
            let data = pattern(300, 7);
            f.write(0, &data, AccessMode::Copy).await.unwrap();
            f.fsync().await.unwrap();
            assert_eq!(fs.allocated_blocks(f.ino), 0, "inline: no blocks");
            assert_eq!(fs.stats().inline_files, 1);
            assert_eq!(disk.stats().reads + disk.stats().writes, 0, "no disk I/O");
            let back = f.read(0, 300, AccessMode::Copy).await.unwrap();
            assert_eq!(back, data);
            // Sparse inline extension zero-fills the gap.
            f.write(400, &[9u8; 10], AccessMode::Copy).await.unwrap();
            let back = f.read(0, 410, AccessMode::Copy).await.unwrap();
            assert!(back[300..400].iter().all(|&b| b == 0));
            assert_eq!(&back[400..], &[9u8; 10]);
            assert!(fs.check().is_empty(), "{:?}", fs.check());
        });
    }

    #[test]
    fn inline_spill_preserves_contents() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 4);
            let f = fs.create("grow").await.unwrap();
            let head = pattern(500, 2);
            f.write(0, &head, AccessMode::Copy).await.unwrap();
            assert_eq!(fs.allocated_blocks(f.ino), 0);
            // This write crosses the inline threshold: the file spills.
            let tail = pattern(20_000, 3);
            f.write(500, &tail, AccessMode::Copy).await.unwrap();
            assert!(fs.allocated_blocks(f.ino) > 0, "spilled to the tree");
            assert_eq!(fs.stats().inline_files, 0);
            let back = f.read(0, 20_500, AccessMode::Copy).await.unwrap();
            assert_eq!(&back[..500], &head[..]);
            assert_eq!(&back[500..], &tail[..]);
            assert!(fs.check().is_empty(), "{:?}", fs.check());
        });
    }

    #[test]
    fn double_free_is_reported_not_aborted() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 8);
            let f = fs.create("data").await.unwrap();
            f.write(0, &pattern(100_000, 1), AccessMode::Copy)
                .await
                .unwrap();
            f.fsync().await.unwrap();
            let extents = f.extents().await.unwrap();
            let (_, pbn, len) = extents[0];
            fs.free_extent(pbn as u32, len).unwrap();
            // The blocks are already free: the second free must surface as
            // an error, not a panic.
            assert_eq!(fs.free_extent(pbn as u32, len), Err(FsError::Corrupt));
        });
    }

    #[test]
    fn extent_units_amortize_io() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, disk) = world(&s, 8);
            let f = fs.create("seq").await.unwrap();
            f.write(0, &pattern(16 * BLOCK_SIZE, 2), AccessMode::Copy)
                .await
                .unwrap();
            f.fsync().await.unwrap();
            fs.inner.cache.invalidate_vnode(f.id(), 0);
            disk.reset_stats();
            f.read(0, 16 * BLOCK_SIZE, AccessMode::Copy).await.unwrap();
            let st = disk.stats();
            assert_eq!(st.reads, 2, "16 blocks in 8-block units");
            let fst = fs.stats();
            assert_eq!(fst.blocks_written, 16);
        });
    }

    #[test]
    fn remove_returns_space() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 4);
            let f = fs.create("gone").await.unwrap();
            f.write(0, &pattern(50_000, 3), AccessMode::Copy)
                .await
                .unwrap();
            f.fsync().await.unwrap();
            drop(f);
            fs.remove("gone").await.unwrap();
            assert!(fs.check().is_empty());
            assert_eq!(fs.free_blocks(), fs.capacity_blocks(), "all blocks freed");
            assert!(fs.open("gone").await.is_err());
        });
    }

    #[test]
    fn truncate_partial_extent() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 8);
            let f = fs.create("t").await.unwrap();
            f.write(0, &pattern(12 * BLOCK_SIZE, 4), AccessMode::Copy)
                .await
                .unwrap();
            f.fsync().await.unwrap();
            f.truncate(3 * BLOCK_SIZE as u64).await.unwrap();
            assert_eq!(f.size(), 3 * BLOCK_SIZE as u64);
            assert_eq!(fs.allocated_blocks(f.ino), 3);
            assert!(fs.check().is_empty(), "{:?}", fs.check());
            let back = f.read(0, 3 * BLOCK_SIZE, AccessMode::Copy).await.unwrap();
            assert_eq!(back, pattern(12 * BLOCK_SIZE, 4)[..3 * BLOCK_SIZE]);
        });
    }

    #[test]
    fn fragmentation_forces_short_extents() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 4);
            // Fill the volume with large files, then shave the tail off
            // each one: free space becomes a sieve of sub-extent holes.
            let mut names = Vec::new();
            'fill: for i in 0..64 {
                let name = format!("f{i}");
                let f = fs.create(&name).await.unwrap();
                for b in 0..40u64 {
                    if f.write(
                        b * 4 * BLOCK_SIZE as u64,
                        &pattern(4 * BLOCK_SIZE, i as u8),
                        AccessMode::Copy,
                    )
                    .await
                    .is_err()
                    {
                        f.fsync().await.unwrap();
                        names.push(name);
                        break 'fill;
                    }
                }
                f.fsync().await.unwrap();
                names.push(name);
            }
            // Shave 2 blocks off each file: only 2-block holes exist now.
            for name in &names {
                let f = fs.open(name).await.unwrap();
                let keep = f.size().saturating_sub(2 * BLOCK_SIZE as u64);
                f.truncate(keep).await.unwrap();
            }
            let before = fs.stats().short_extents;
            let f = fs.create("late").await.unwrap();
            // 12 blocks = three 4-block extent requests; at most one
            // contiguous 4-run survives the shaving, so shorts must occur.
            f.write(0, &pattern(12 * BLOCK_SIZE, 5), AccessMode::Copy)
                .await
                .unwrap();
            // A 4-block extent request cannot be satisfied on this aged
            // volume (the paper's point about fixed extent sizes).
            assert!(
                fs.stats().short_extents > before,
                "expected short extents on a fragmented volume"
            );
            assert!(fs.check().is_empty(), "{:?}", fs.check());
        });
    }

    #[test]
    fn truncate_then_extend_reads_zero_tail() {
        // Regression: shrinking to a mid-block size then extending must
        // not expose the stale bytes that used to follow the new EOF.
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 4);
            let f = fs.create("t").await.unwrap();
            f.write(0, &pattern(20_000, 9), AccessMode::Copy)
                .await
                .unwrap();
            f.truncate(100).await.unwrap();
            // Extend with a hole by writing far beyond EOF.
            f.write(50_000, &[7u8; 10], AccessMode::Copy).await.unwrap();
            let back = f.read(0, 50_010, AccessMode::Copy).await.unwrap();
            assert_eq!(&back[..100], &pattern(20_000, 9)[..100]);
            assert!(
                back[100..50_000].iter().all(|&b| b == 0),
                "stale tail visible after truncate+extend"
            );
            assert_eq!(&back[50_000..], &[7u8; 10]);
        });
    }

    #[test]
    fn truncate_extends_with_zeros() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 4);
            // An extent file grows through the zero-filled gap path.
            let f = fs.create("big").await.unwrap();
            let head = pattern(20_000, 5);
            f.write(0, &head, AccessMode::Copy).await.unwrap();
            f.truncate(100_000).await.unwrap();
            assert_eq!(f.size(), 100_000);
            let back = f.read(0, 100_000, AccessMode::Copy).await.unwrap();
            assert_eq!(&back[..20_000], &head[..]);
            assert!(
                back[20_000..].iter().all(|&b| b == 0),
                "extension reads zero"
            );
            f.fsync().await.unwrap();
            assert!(fs.check().is_empty(), "{:?}", fs.check());

            // An inline file grows in place up to `inline_max`...
            let g = fs.create("small").await.unwrap();
            let tiny = pattern(100, 6);
            g.write(0, &tiny, AccessMode::Copy).await.unwrap();
            g.truncate(400).await.unwrap();
            assert_eq!(g.size(), 400);
            assert_eq!(fs.allocated_blocks(g.ino), 0, "still inline");
            // ...and spills into extents past it.
            g.truncate(50_000).await.unwrap();
            assert_eq!(g.size(), 50_000);
            assert!(fs.allocated_blocks(g.ino) > 0, "spilled to the tree");
            let back = g.read(0, 50_000, AccessMode::Copy).await.unwrap();
            assert_eq!(&back[..100], &tiny[..]);
            assert!(back[100..].iter().all(|&b| b == 0), "extension reads zero");
            assert!(fs.check().is_empty(), "{:?}", fs.check());
        });
    }

    #[test]
    fn fragmented_read_batches_into_one_unit() {
        // A file whose extent unit spans discontiguous physical runs must
        // still read in one batch: one setup, one disk read per
        // run, one logical unit read in the counters.
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, disk) = world(&s, 8);
            // A plug file soaks up every data block, then two isolated
            // 4-block holes are punched well apart. The only free space
            // left is those holes, so the next allocation cannot find a
            // contiguous 8-block run.
            let plug = fs.create("plug").await.unwrap();
            let mut off = 0u64;
            loop {
                match plug
                    .write(off, &pattern(8 * BLOCK_SIZE, 9), AccessMode::Copy)
                    .await
                {
                    Ok(()) => off += 8 * BLOCK_SIZE as u64,
                    Err(FsError::NoSpace) => break,
                    Err(e) => panic!("plug write: {e}"),
                }
                plug.fsync().await.unwrap();
            }
            assert_eq!(fs.free_blocks(), 0, "plug should exhaust the volume");
            let pbn0 = plug.extents().await.unwrap()[0].1 as u32;
            fs.free_extent(pbn0 + 40, 4).unwrap();
            fs.free_extent(pbn0 + 52, 4).unwrap();
            // This 8-block file lands in the scattered 4-block holes.
            let f = fs.create("frag").await.unwrap();
            f.write(0, &pattern(8 * BLOCK_SIZE, 42), AccessMode::Copy)
                .await
                .unwrap();
            f.fsync().await.unwrap();
            let extents = f.extents().await.unwrap();
            assert!(extents.len() >= 2, "expected a fragmented file");
            fs.inner.cache.invalidate_vnode(f.id(), 0);
            disk.reset_stats();
            let before = fs.stats();
            let back = f.read(0, 8 * BLOCK_SIZE, AccessMode::Copy).await.unwrap();
            assert_eq!(back, pattern(8 * BLOCK_SIZE, 42));
            let st = fs.stats();
            assert_eq!(
                st.unit_reads - before.unit_reads,
                1,
                "one batched unit read"
            );
            assert_eq!(st.blocks_read - before.blocks_read, 8);
            assert_eq!(
                disk.stats().reads,
                extents.len() as u64,
                "one transfer per physical run"
            );
        });
    }

    #[test]
    fn flat_namespace_rules() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 4);
            assert!(fs.create("a/b").await.is_err(), "no subdirectories");
            assert!(fs.create("").await.is_err());
            let f = fs.create("ok").await.unwrap();
            drop(f);
            let f2 = fs.create("ok").await.unwrap(); // Truncates.
            assert_eq!(f2.size(), 0);
        });
    }
}
