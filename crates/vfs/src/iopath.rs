//! The shared I/O execution engine.
//!
//! The paper's contribution is policy layered over unchanged mechanism:
//! read-ahead, delayed-write accumulation, free-behind and write limits
//! decide *what* to transfer, while the code that creates busy pages,
//! charges setup/interrupt CPU, talks to the disk and completes pages is
//! the same in every kernel. This module is that mechanism, factored out
//! of `ufs::vnops` so both `ufs` and `extentfs` drive one executor through
//! direct calls: [`IoPath::read_runs`] and [`IoPath::read_ahead`] on the
//! fault path, [`IoPath::putpage`], [`IoPath::write_clusters`] and
//! [`IoPath::fsync`] on the write path, [`IoPath::free_behind`] behind a
//! sequential reader.
//!
//! Every open file carries a [`FileStream`] whose [`StreamId`] rides each
//! request end to end — demand-fault cache lookups, cluster issues,
//! throttle stalls and `diskmodel` queue entries are all labelled with the
//! originating stream, so the registry can answer "which stream got what
//! share of the disk" (`disk.sectors_*{stream=N}`,
//! `core.throttle_stalls{stream=N}`, `iopath.cluster_*_blocks{stream=N}`).
//! The stream also owns the file's delayed-write state.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::ops::Range;
use std::rc::Rc;

use clufs::{DelayedWrite, PrefetchPlan, PrefetchPolicy, Prefetcher, WriteAction, WriteThrottle};
use diskmodel::{DataView, IoHandle, IoStatus, SharedDevice};
use pagecache::{PageCache, PageId, PageKey};
use simkit::stats::{Counter, Histogram};
use simkit::{Cpu, IntMap, IntSet, Notify, Sim, SimDuration, SpanId};

use crate::{FsError, FsResult, StreamId, VnodeId};

/// A run-list read: up to `len` logical blocks from `lbn`, moved in one
/// batch. The executor pays one setup for the whole batch and issues one
/// transfer per physical run, back to back (the list-I/O shape: tree
/// walks and command builds amortize even on a fragmented file). A
/// physically contiguous cluster is the one-run case.
#[derive(Clone, Copy, Debug)]
pub struct ReadRuns {
    pub lbn: u64,
    pub len: u32,
    /// `Some(pbn)`: the caller already resolved `[lbn, lbn+len)` to one
    /// contiguous run starting at physical block `pbn`, so the executor
    /// skips [`BlockMap::runs`] (for UFS a second `bmap` walk, with its
    /// CPU charged again). `None`: the executor resolves the run-list.
    pub at: Option<u32>,
    /// Data-sieving pattern for a speculative batch: `Some((keep,
    /// period))` marks the block at offset `o` from `lbn` as wanted iff
    /// `o % period < keep`; the rest is gap filler, read only to keep
    /// the transfer contiguous and accounted as
    /// `io.prefetch_wasted_bytes` at issue. `None` = every block is
    /// wanted. Ignored for demand reads.
    pub sieve: Option<(u32, u32)>,
}

/// One in-flight transfer of a [`BatchRead`]: the handle, the device range
/// it covers (for retry on a transient device error), and the busy pages
/// it fills, in block order.
struct BatchPart {
    handle: IoHandle,
    lba: u64,
    nsect: u32,
    pages: Vec<(u64, PageId)>,
}

/// An issued run-list batch: one in-flight transfer per physical run, plus
/// the stream and owning vnode needed to tear the pages back down on a
/// permanent failure.
pub struct BatchRead {
    parts: Vec<BatchPart>,
    stream: u32,
    vnode: VnodeId,
    span: SpanId,
}

impl BatchRead {
    /// Total blocks across all runs in the batch.
    pub fn blocks(&self) -> u32 {
        self.parts.iter().map(|p| p.pages.len() as u32).sum()
    }

    /// Number of physical transfers the batch was split into.
    pub fn transfers(&self) -> usize {
        self.parts.len()
    }
}

/// How [`IoPath::fsync`] sweeps the dirty pages left after the delayed
/// run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirtySweep {
    /// One writeback sweep per run of consecutive dirty pages (UFS).
    Runs,
    /// One sweep from the first dirty page to the last (extentfs). It
    /// also looks up every resident clean page in between, counting a
    /// cache hit and setting its reference bit, so the two forms are not
    /// interchangeable without moving `cache.hits`.
    Span,
}

/// Translation from logical file blocks to physical placement — the one
/// thing the executor must ask the file system. UFS answers with `bmap`
/// (indirect-block walks, bmap cache); extentfs with a table lookup.
#[allow(async_fn_in_trait)] // Single-threaded simulation: futures are !Send by design.
pub trait BlockMap {
    /// `(pbn, contiguous_blocks)` at `lbn`, with the run clipped to at
    /// most `cap` blocks; `None` means a hole.
    async fn extent(&self, lbn: u64, cap: u32) -> FsResult<Option<(u32, u32)>>;

    /// The physical run-list covering up to `blocks` logical blocks from
    /// `lbn`, stopping at the first hole. The default loops [`extent`]
    /// (one translation per run); tree-indexed file systems override it
    /// with a single index walk.
    ///
    /// [`extent`]: BlockMap::extent
    async fn runs(&self, lbn: u64, blocks: u32) -> FsResult<Vec<(u32, u32)>> {
        let mut out = Vec::new();
        let mut cur = lbn;
        let mut left = blocks;
        while left > 0 {
            match self.extent(cur, left).await? {
                Some((pbn, n)) => {
                    out.push((pbn, n));
                    cur += n as u64;
                    left -= n;
                }
                None => break,
            }
        }
        Ok(out)
    }

    /// The largest blocks-per-transfer this mount allows (UFS: the tuned
    /// I/O cluster size; extentfs: the extent unit).
    fn max_cluster(&self) -> u32;
}

/// Block-map answers one fault has resolved: `(pbn, contiguous_blocks)`
/// per probed logical block, `None` for a hole (or past EOF). A caller
/// seeds it with probes it makes for its own reasons (UFS's Figure-2
/// `bmap` on a cache hit); [`IoPath::plan`] adds the engine's.
#[derive(Default, Debug)]
pub struct Probes(Vec<(u64, Option<(u32, u32)>)>);

impl Probes {
    /// Records the answer for `lbn`.
    pub fn insert(&mut self, lbn: u64, extent: Option<(u32, u32)>) {
        self.0.push((lbn, extent));
    }

    /// The extent at `lbn`; `None` when it is a hole or was never probed.
    pub fn get(&self, lbn: u64) -> Option<(u32, u32)> {
        self.lookup(lbn).flatten()
    }

    /// `Some(answer)` once `lbn` has been probed.
    fn lookup(&self, lbn: u64) -> Option<Option<(u32, u32)>> {
        self.0.iter().find(|(p, _)| *p == lbn).map(|(_, v)| *v)
    }
}

/// Per-open-file I/O identity: the stream label, the paper's per-inode
/// write throttle and delayed-write state, and the in-flight write count
/// used to quiesce before truncate/remove/fsync completion.
pub struct FileStream {
    vnode: VnodeId,
    stream: StreamId,
    throttle: WriteThrottle,
    /// The delayed-write accumulator (`delayoff`/`delaylen`, in pages)
    /// that [`IoPath::putpage`] feeds.
    delayed: RefCell<DelayedWrite>,
    pending_io: Cell<u32>,
    quiesce: Notify,
    /// Sticky deferred-write failure: asynchronous writeback has no caller
    /// to fail, so a terminal device error lands here and the next fsync
    /// reports it — the UNIX contract for delayed writes.
    io_error: Cell<bool>,
}

impl FileStream {
    /// Allocates a fresh stream id from the sim's registry and builds the
    /// file's throttle against `write_limit` (None = unlimited).
    pub fn new(sim: &Sim, vnode: VnodeId, write_limit: Option<u32>) -> Rc<FileStream> {
        let stream = StreamId::new(sim.stats().alloc_stream());
        Rc::new(FileStream {
            vnode,
            stream,
            throttle: WriteThrottle::for_stream(sim, write_limit, stream.as_u32()),
            delayed: RefCell::default(),
            pending_io: Cell::new(0),
            quiesce: Notify::new(),
            io_error: Cell::new(false),
        })
    }

    /// Page-cache identity of the file this stream belongs to.
    pub fn vnode(&self) -> VnodeId {
        self.vnode
    }

    /// The stream label carried on every request this file issues.
    pub fn id(&self) -> StreamId {
        self.stream
    }

    /// The file's write throttle (the paper's counting semaphore).
    pub fn throttle(&self) -> &WriteThrottle {
        &self.throttle
    }

    /// Forgets the delayed run without pushing it (truncate and remove:
    /// its pages stay dirty, or are about to be discarded).
    pub fn drop_delayed(&self) {
        self.delayed.borrow_mut().flush();
    }

    /// The run a cleaner pushes for dirty victim `lbn`: the whole delayed
    /// run if it holds the victim (which is then no longer delayed), else
    /// the victim alone.
    pub fn take_run_around(&self, lbn: u64) -> Range<u64> {
        let mut dw = self.delayed.borrow_mut();
        match dw.pending() {
            Some(r) if r.contains(&lbn) => {
                dw.flush();
                r
            }
            _ => lbn..lbn + 1,
        }
    }

    /// Writes currently in flight for this file.
    pub fn pending_io(&self) -> u32 {
        self.pending_io.get()
    }

    /// Marks one write started (paired with [`FileStream::io_finished`]).
    pub fn io_started(&self) {
        self.pending_io.set(self.pending_io.get() + 1);
    }

    /// Marks one write finished, waking quiescers when the count drains.
    pub fn io_finished(&self) {
        let p = self.pending_io.get();
        self.pending_io.set(p - 1);
        if p == 1 {
            self.quiesce.notify_all();
        }
    }

    /// Waits until no writes are in flight.
    pub async fn quiesce(&self) {
        while self.pending_io.get() > 0 {
            self.quiesce.wait().await;
        }
    }

    /// Records a terminal asynchronous-write failure (see
    /// [`FileStream::take_io_error`]).
    pub fn set_io_error(&self) {
        self.io_error.set(true);
    }

    /// Consumes the sticky write-failure flag. fsync calls this after
    /// quiescing: `true` means some deferred write was lost since the last
    /// check and the sync must fail with `FsError::Io`.
    pub fn take_io_error(&self) -> bool {
        self.io_error.replace(false)
    }
}

/// CPU charges the executor pays on behalf of the file system.
#[derive(Clone, Copy, Debug)]
pub struct IoCosts {
    /// Per-transfer setup (driver + controller command build).
    pub io_setup: SimDuration,
    /// Per-transfer completion interrupt.
    pub io_intr: SimDuration,
}

/// Cached per-stream metric handles (`iopath.cluster_*_blocks{stream=N}`).
#[derive(Clone)]
struct PerStream {
    read_blocks: Histogram,
    write_blocks: Histogram,
}

/// Prefetch instrumentation (`io.prefetch_*`): issued blocks, blocks a
/// demand access later claimed (accuracy = hits / issued), bytes read
/// speculatively but recycled unconsumed (plus sieve gap filler), and
/// the distance each issuing plan ran at.
#[derive(Clone)]
struct PrefetchMetrics {
    issued: Counter,
    hits: Counter,
    wasted: Counter,
    distance: Histogram,
}

struct IoPathInner {
    sim: Sim,
    cpu: Cpu,
    disk: SharedDevice,
    cache: PageCache,
    costs: IoCosts,
    block_size: usize,
    sectors_per_block: u32,
    /// Pages created by read-ahead and not yet claimed by a demand access
    /// (feeds the "readahead used" accounting in the caller). Shared with
    /// the page cache's recycle hook, which counts unclaimed prefetched
    /// pages as wasted when their identity is destroyed.
    ra_pending: Rc<RefCell<IntSet<PageKey>>>,
    streams: RefCell<IntMap<u32, PerStream>>,
    /// Per-stream prefetch engines (the adaptive-readahead state the
    /// mounts used to keep in their in-core inodes).
    prefetchers: RefCell<IntMap<u32, Prefetcher>>,
    /// Policy new streams start under (set once at mount).
    prefetch_policy: Cell<PrefetchPolicy>,
    /// The mount's I/O unit in blocks — the adaptive engine's distance
    /// quantum.
    prefetch_unit: Cell<u32>,
    pf: PrefetchMetrics,
    /// Device-error retries before a transfer fails with `FsError::Io`
    /// (see `Tuning::io_retry_max`).
    retry_max: Cell<u32>,
    /// Base virtual-time backoff between retries; doubles per attempt.
    retry_backoff: Cell<SimDuration>,
}

/// Default retry budget when the mount does not call
/// [`IoPath::set_retry`] (matches `Tuning::io_retry_max`).
const DEFAULT_RETRY_MAX: u32 = 4;

/// Default base backoff (matches `Tuning::io_retry_backoff_ms`).
const DEFAULT_RETRY_BACKOFF_MS: u64 = 2;

/// The per-mount I/O executor. Clones share the engine.
#[derive(Clone)]
pub struct IoPath {
    inner: Rc<IoPathInner>,
}

impl IoPath {
    /// Cluster-length buckets, matching the file systems' histograms.
    const LEN_EDGES: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

    /// Builds an executor over the mount's devices. The block size is the
    /// cache's page size and must be a whole number of disk sectors.
    pub fn new(
        sim: &Sim,
        cpu: &Cpu,
        disk: &SharedDevice,
        cache: &PageCache,
        costs: IoCosts,
    ) -> IoPath {
        let block_size = cache.page_size();
        let sector = disk.sector_size() as usize;
        assert_eq!(block_size % sector, 0, "page size must be whole sectors");
        let s = sim.stats();
        let pf = PrefetchMetrics {
            issued: s.counter("io.prefetch_issued"),
            hits: s.counter("io.prefetch_hits"),
            wasted: s.counter("io.prefetch_wasted_bytes"),
            distance: s.histogram("io.prefetch_distance", &Self::LEN_EDGES),
        };
        let ra_pending: Rc<RefCell<IntSet<PageKey>>> = Rc::default();
        // Wasted-prefetch accounting: a page read ahead but never claimed
        // by a demand access still holds its claim when the cache recycles
        // its identity — those bytes moved for nothing.
        {
            let pending = Rc::clone(&ra_pending);
            let wasted = pf.wasted.clone();
            let bytes = block_size as u64;
            cache.add_recycle_hook(move |key| {
                if pending.borrow_mut().remove(&key) {
                    wasted.add(bytes);
                }
            });
        }
        IoPath {
            inner: Rc::new(IoPathInner {
                sim: sim.clone(),
                cpu: cpu.clone(),
                disk: disk.clone(),
                cache: cache.clone(),
                costs,
                block_size,
                sectors_per_block: (block_size / sector) as u32,
                ra_pending,
                streams: RefCell::default(),
                prefetchers: RefCell::default(),
                prefetch_policy: Cell::new(PrefetchPolicy::Fixed),
                prefetch_unit: Cell::new(1),
                pf,
                retry_max: Cell::new(DEFAULT_RETRY_MAX),
                retry_backoff: Cell::new(SimDuration::from_millis(DEFAULT_RETRY_BACKOFF_MS)),
            }),
        }
    }

    /// Selects the prefetch engine new streams run (set once at mount)
    /// and the mount's I/O unit in blocks — the quantum the adaptive
    /// engine measures distance in.
    pub fn set_prefetch(&self, policy: PrefetchPolicy, unit_blocks: u32) {
        self.inner.prefetch_policy.set(policy);
        self.inner.prefetch_unit.set(unit_blocks.max(1));
    }

    /// Plans the stream's I/O for an access to `lbn`: the prefetch
    /// engine's sync read and read-ahead runs, with the state transition
    /// committed.
    ///
    /// The engine asks for cluster lengths synchronously, but a file
    /// system may have to await them (UFS `bmap` charges CPU and can read
    /// an indirect block). So the engine is dry-run on a clone until
    /// every probe it makes is known — each distinct block resolved once
    /// through `probe`, as the dry runs miss it — and then committed with
    /// the same answers. Cache pressure (`cache.free_pages` vs the
    /// pageout reserve) is read in the same synchronous stretch as the
    /// last dry run, so the two agree. `seed` holds probes the caller
    /// already made; they are returned with the rest.
    pub async fn plan<F, Fut>(
        &self,
        stream: StreamId,
        lbn: u64,
        cached: bool,
        hint_blocks: u32,
        seed: Probes,
        mut probe: F,
    ) -> FsResult<(PrefetchPlan, Probes)>
    where
        F: FnMut(u64) -> Fut,
        Fut: Future<Output = FsResult<Option<(u32, u32)>>>,
    {
        let mut probes = seed;
        loop {
            let free = self.inner.cache.free_count() as u64;
            let reserve = self.inner.cache.lotsfree() as u64;
            let mut missing = None;
            let dry = self.with_engine(stream, |e| e.clone()).on_access(
                lbn,
                cached,
                |p| match probes.lookup(p) {
                    Some(v) => v.map_or(0, |(_, n)| n),
                    None => {
                        missing = Some(p);
                        0
                    }
                },
                hint_blocks,
                free,
                reserve,
            );
            if let Some(p) = missing {
                let v = probe(p).await?;
                probes.insert(p, v);
                continue;
            }
            let plan = self.with_engine(stream, |e| {
                let len = |p| probes.get(p).map_or(0, |(_, n)| n);
                e.on_access(lbn, cached, len, hint_blocks, free, reserve)
            });
            debug_assert_eq!(plan, dry);
            if !plan.runs.is_empty() {
                self.inner.pf.distance.observe(plan.distance.max(1) as u64);
            }
            return Ok((plan, probes));
        }
    }

    /// Runs `f` on the stream's prefetch engine, creating it on first use.
    fn with_engine<R>(&self, stream: StreamId, f: impl FnOnce(&mut Prefetcher) -> R) -> R {
        let mut engines = self.inner.prefetchers.borrow_mut();
        let engine = engines.entry(stream.as_u32()).or_insert_with(|| {
            Prefetcher::new(
                self.inner.prefetch_policy.get(),
                self.inner.prefetch_unit.get(),
            )
        });
        f(engine)
    }

    /// Tunes the bounded-retry policy: up to `max` resubmissions per
    /// transfer, sleeping `backoff_ms * 2^attempt` virtual milliseconds
    /// between them.
    pub fn set_retry(&self, max: u32, backoff_ms: u32) {
        self.inner.retry_max.set(max);
        self.inner
            .retry_backoff
            .set(SimDuration::from_millis(backoff_ms as u64));
    }

    /// Exponential backoff for retry `attempt` (0-based).
    fn backoff(&self, attempt: u32) -> SimDuration {
        let base = self.inner.retry_backoff.get().as_nanos();
        SimDuration::from_nanos(base.saturating_mul(1u64 << attempt.min(16)))
    }

    /// Awaits a read, absorbing transient device errors: on `MediaError`
    /// the transfer is resubmitted up to the tuned budget with exponential
    /// virtual-time backoff (under an `iopath.retry` span); `DeviceGone`
    /// fails fast — the device will not answer, only redundancy below or
    /// the caller above can help. Terminal failures return `FsError::Io`.
    async fn await_read(
        &self,
        mut handle: IoHandle,
        lba: u64,
        nsect: u32,
        stream: u32,
        parent: SpanId,
    ) -> FsResult<DataView> {
        let inner = &*self.inner;
        let mut attempt = 0u32;
        loop {
            let res = handle.wait().await;
            match res.status {
                IoStatus::Ok => return Ok(res.data.expect("read returns data")),
                IoStatus::MediaError if attempt < inner.retry_max.get() => {
                    let s = inner.sim.stats();
                    s.counter("io.errors{kind=media}").inc();
                    s.counter("io.retries").inc();
                    let rs = inner.sim.tracer().start("iopath.retry", stream, parent);
                    inner.sim.tracer().arg(rs, "attempt", attempt as u64 + 1);
                    inner.sim.sleep(self.backoff(attempt)).await;
                    handle = inner.disk.submit_read_for(lba, nsect, stream, parent);
                    inner.sim.tracer().end(rs);
                    attempt += 1;
                }
                status => {
                    inner
                        .sim
                        .stats()
                        .counter(if status == IoStatus::DeviceGone {
                            "io.errors{kind=gone}"
                        } else {
                            "io.errors{kind=media}"
                        })
                        .inc();
                    return Err(FsError::Io);
                }
            }
        }
    }

    /// Tears down the busy pages of a failed fill: each page's identity is
    /// destroyed (waiters re-fault) and any read-ahead claim is dropped.
    fn drop_failed_pages(&self, vnode: VnodeId, pages: &[(u64, PageId)]) {
        let inner = &*self.inner;
        for &(lbn, id) in pages {
            let key = PageKey {
                vnode,
                offset: lbn * inner.block_size as u64,
            };
            inner.ra_pending.borrow_mut().remove(&key);
            inner.cache.invalidate_page(id);
        }
    }

    /// The transfer unit (one page = one file system block).
    pub fn block_size(&self) -> usize {
        self.inner.block_size
    }

    fn key(&self, fstream: &FileStream, lbn: u64) -> PageKey {
        PageKey {
            vnode: fstream.vnode,
            offset: lbn * self.inner.block_size as u64,
        }
    }

    fn per_stream(&self, stream: StreamId) -> PerStream {
        self.inner
            .streams
            .borrow_mut()
            .entry(stream.as_u32())
            .or_insert_with(|| {
                let s = self.inner.sim.stats();
                PerStream {
                    read_blocks: s.stream_histogram(
                        "iopath.cluster_read_blocks",
                        stream.as_u32(),
                        &Self::LEN_EDGES,
                    ),
                    write_blocks: s.stream_histogram(
                        "iopath.cluster_write_blocks",
                        stream.as_u32(),
                        &Self::LEN_EDGES,
                    ),
                }
            })
            .clone()
    }

    /// True if `key` was produced by read-ahead and not yet claimed;
    /// claims it and counts an `io.prefetch_hits` block. Call on a
    /// demand hit to account read-ahead usefulness.
    pub fn take_ra_pending(&self, key: PageKey) -> bool {
        let hit = self.inner.ra_pending.borrow_mut().remove(&key);
        if hit {
            self.inner.pf.hits.inc();
        }
        hit
    }

    /// The pagein retry tail, for a fault that did not read the page
    /// itself: it was resident when the caller looked (`seen`), or the
    /// demand read found a concurrent fault had created it first
    /// (`None`). Planning and issuing I/O awaited (CPU charges, `bmap`,
    /// read-ahead page allocation), and meanwhile the pageout daemon may
    /// have recycled it. Re-resolves the page, waits out any fill in
    /// progress and returns it if it is still current; `None` means it
    /// vanished and the caller must retry the whole fault.
    pub async fn revalidate(&self, key: PageKey, seen: Option<PageId>) -> Option<PageId> {
        let cache = &self.inner.cache;
        let id = match seen {
            Some(id) if cache.is_current(id) => id,
            _ => cache.lookup(key)?,
        };
        cache.wait_unbusy(id).await;
        if !cache.is_current(id) {
            return None;
        }
        cache.set_referenced(id);
        Some(id)
    }

    /// Issues a demand read: resolves the file's run-list once (or takes
    /// the caller's `at`) and moves up to `rr.len` blocks in one batch,
    /// nested under `parent`. Busy pages are created for the absent
    /// prefix (clipped at the first already-cached page), one `io_setup`
    /// is charged for the whole batch, and one stream-tagged transfer is
    /// submitted per physical run. Returns the in-flight [`BatchRead`] for
    /// [`IoPath::finish_batch`], or `None` when the first page is already
    /// resident (a concurrent fault created it first): the caller takes it
    /// through [`IoPath::revalidate`].
    pub async fn read_runs(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        rr: ReadRuns,
        parent: SpanId,
    ) -> FsResult<Option<BatchRead>> {
        self.issue(fstream, map, rr, Some(parent)).await
    }

    /// Issues a read-ahead batch the same way and spawns its fill; returns
    /// the blocks issued (0 when the first page is already resident or
    /// nothing is mapped there).
    ///
    /// Its `iopath.readahead` span is a root: the fill completes after the
    /// faulting operation returns, and a span must lie within its parent's
    /// interval for the trace to mean anything.
    pub async fn read_ahead(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        rr: ReadRuns,
    ) -> FsResult<u32> {
        let inner = &*self.inner;
        if inner.cache.lookup(self.key(fstream, rr.lbn)).is_some() {
            return Ok(0);
        }
        let Some(io) = self.issue(fstream, map, rr, None).await? else {
            return Ok(0);
        };
        let blocks = io.blocks();
        inner.pf.issued.add(blocks as u64);
        // Claim every wanted page; sieve gap filler is known wasted the
        // moment it is issued.
        let mut gap_blocks = 0u64;
        {
            let mut ra = inner.ra_pending.borrow_mut();
            for part in &io.parts {
                for (run_lbn, _) in &part.pages {
                    let wanted = match rr.sieve {
                        Some((keep, period)) if period > 0 => {
                            ((run_lbn - rr.lbn) % period as u64) < keep as u64
                        }
                        _ => true,
                    };
                    if wanted {
                        ra.insert(self.key(fstream, *run_lbn));
                    } else {
                        gap_blocks += 1;
                    }
                }
            }
        }
        if gap_blocks > 0 {
            inner.pf.wasted.add(gap_blocks * inner.block_size as u64);
        }
        self.spawn_readahead_fill(io);
        Ok(blocks)
    }

    /// The batch issue shared by both reads; `demand` carries a demand
    /// read's parent span (`None` = read-ahead).
    async fn issue(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        rr: ReadRuns,
        demand: Option<SpanId>,
    ) -> FsResult<Option<BatchRead>> {
        let inner = &*self.inner;
        let (one, listed);
        let runs: &[(u32, u32)] = match rr.at {
            Some(pbn) => {
                one = [(pbn, rr.len.max(1))];
                &one
            }
            None => {
                listed = map.runs(rr.lbn, rr.len.max(1)).await?;
                &listed
            }
        };
        let covered: u32 = runs.iter().map(|&(_, n)| n).sum();
        if covered == 0 {
            return match demand {
                // The caller saw the block mapped; an empty run-list here
                // means the map lost it underneath us.
                Some(_) => Err(FsError::Corrupt),
                None => Ok(None),
            };
        }
        let stream = fstream.id().as_u32();
        let span = match demand {
            Some(parent) => inner.sim.tracer().start("iopath.read_runs", stream, parent),
            None => inner
                .sim
                .tracer()
                .start("iopath.readahead", stream, SpanId::NONE),
        };
        inner.sim.tracer().arg(span, "lbn", rr.lbn);
        let mut pages = Vec::new();
        for i in 0..covered.min(rr.len.max(1)) {
            let key = self.key(fstream, rr.lbn + i as u64);
            if inner.cache.lookup(key).is_some() {
                break; // Already resident: clip the batch here.
            }
            // Unzeroed: the read fills every byte before the page leaves
            // busy, and a failed read invalidates it.
            let id = inner.cache.create_for_fill(key, stream, span).await;
            // The page identity is fresh; drop any stale read-ahead claim
            // a recycled predecessor left behind.
            inner.ra_pending.borrow_mut().remove(&key);
            pages.push((rr.lbn + i as u64, id));
        }
        let n = pages.len() as u32;
        if n == 0 {
            // The first page arrived while the run-list resolved (the map's
            // translation may await, e.g. an indirect-block read), or a
            // concurrent fault created it first.
            inner.sim.tracer().end(span);
            return Ok(None);
        }
        inner.sim.tracer().arg(span, "blocks", n as u64);
        // One setup for the whole batch: this is the amortization a
        // fragmented file gets from list-style I/O.
        inner.cpu.charge("io_setup", inner.costs.io_setup).await;
        self.per_stream(fstream.id()).read_blocks.observe(n as u64);
        let mut parts = Vec::with_capacity(runs.len());
        let mut rest = pages;
        for &(pbn, len) in runs {
            if rest.is_empty() {
                break;
            }
            // Split this run's pages off the front; the last run keeps
            // the buffer itself.
            let tail = rest.split_off((len as usize).min(rest.len()));
            let pages = std::mem::replace(&mut rest, tail);
            let lba = pbn as u64 * inner.sectors_per_block as u64;
            let nsect = pages.len() as u32 * inner.sectors_per_block;
            let handle = inner.disk.submit_read_for(lba, nsect, stream, span);
            parts.push(BatchPart {
                handle,
                lba,
                nsect,
                pages,
            });
        }
        inner.sim.tracer().arg(span, "runs", parts.len() as u64);
        Ok(Some(BatchRead {
            parts,
            stream,
            vnode: fstream.vnode,
            span,
        }))
    }

    /// Waits out a demand batch part by part, charging one interrupt per
    /// transfer, fills and releases every page, and returns the page for
    /// `want_lbn`.
    ///
    /// Transient device errors are retried per part (see
    /// [`IoPath::set_retry`]); a part that fails terminally has its pages
    /// invalidated, and the whole call fails with `FsError::Io` if the
    /// failed part was the one carrying `want_lbn`. Other parts still
    /// complete — their handles are in flight and their busy pages must be
    /// resolved either way.
    pub async fn finish_batch(&self, io: BatchRead, want_lbn: u64) -> FsResult<PageId> {
        let mut want = None;
        let mut want_failed = false;
        for part in io.parts {
            let carries_want = part.pages.iter().any(|&(l, _)| l == want_lbn);
            // The wanted page stays busy until the whole batch lands: a
            // later part's await must not let pageout recycle the page
            // this batch was issued for.
            match self
                .land(part, io.stream, io.vnode, io.span, Some(want_lbn))
                .await
            {
                Ok(held) => want = want.or(held),
                Err(_) => want_failed |= carries_want,
            }
        }
        self.inner.sim.tracer().end(io.span);
        if want_failed {
            return Err(FsError::Io);
        }
        let want = want.expect("requested page is in the batch");
        self.inner.cache.unbusy(want);
        Ok(want)
    }

    /// Asynchronous completion for a read-ahead batch: wait out each
    /// part, charge the interrupt, fill and release. A part that fails
    /// terminally has its pages invalidated — the read was speculative,
    /// so there is nobody to tell; a later demand access re-faults and
    /// takes the error itself if the fault persists.
    fn spawn_readahead_fill(&self, io: BatchRead) {
        let this = self.clone();
        self.inner.sim.spawn(async move {
            let tracer = this.inner.sim.tracer();
            for part in io.parts {
                // One child span per physical transfer, under the batch's
                // `iopath.readahead` root: the trace shows how the
                // speculative window split across the disk.
                let ps = tracer.start("iopath.readahead.part", io.stream, io.span);
                tracer.arg(ps, "lba", part.lba);
                tracer.arg(ps, "blocks", part.pages.len() as u64);
                let _ = this.land(part, io.stream, io.vnode, io.span, None).await;
                tracer.end(ps);
            }
            tracer.end(io.span);
        });
    }

    /// Waits out one transfer of a batch (retrying transient device
    /// errors), charges its interrupt and fills its pages, releasing all
    /// but the page for `hold`, which is returned still busy. A terminal
    /// failure invalidates the part's pages instead.
    async fn land(
        &self,
        part: BatchPart,
        stream: u32,
        vnode: VnodeId,
        span: SpanId,
        hold: Option<u64>,
    ) -> FsResult<Option<PageId>> {
        let inner = &*self.inner;
        let res = self
            .await_read(part.handle, part.lba, part.nsect, stream, span)
            .await;
        inner.cpu.charge("io_intr", inner.costs.io_intr).await;
        let data = match res {
            Ok(data) => data,
            Err(e) => {
                self.drop_failed_pages(vnode, &part.pages);
                return Err(e);
            }
        };
        let mut held = None;
        for (i, &(lbn, id)) in part.pages.iter().enumerate() {
            inner
                .cache
                .fill_with(id, |frame| data.copy_to(i * inner.block_size, frame));
            if Some(lbn) == hold {
                held = Some(id);
            } else {
                inner.cache.unbusy(id);
            }
        }
        Ok(held)
    }

    /// `ufs_putpage` for one dirtied page (Figures 7 and 8): offers `lbn`
    /// to the stream's delayed-write state with `unit`-block clusters and
    /// pushes whatever run that completes. "Pretending the I/O completed"
    /// is the common case: nothing is pushed and no I/O is started. At
    /// `unit` 1 every page is pushed on its own (the unclustered path).
    /// Returns the pushed cluster sizes, as [`IoPath::write_clusters`].
    pub async fn putpage(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        lbn: u64,
        unit: u32,
    ) -> FsResult<Vec<u32>> {
        let action = fstream.delayed.borrow_mut().on_putpage(lbn, unit);
        match action {
            WriteAction::Delay => Ok(Vec::new()),
            WriteAction::Push(r) | WriteAction::PushThenDelay(r) => {
                self.write_clusters(fstream, map, r, false).await
            }
        }
    }

    /// The data half of fsync: pushes the delayed run, then sweeps the
    /// other dirty pages (random writes, cleaner races) as `sweep` says,
    /// waits for the file's writes to land and reports a deferred-write
    /// failure as `FsError::Io`. `count` sees each push's cluster sizes
    /// as soon as that push returns.
    pub async fn fsync(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        sweep: DirtySweep,
        count: impl Fn(&[u32]),
    ) -> FsResult<()> {
        let pending = fstream.delayed.borrow_mut().flush();
        if let Some(r) = pending {
            count(&self.write_clusters(fstream, map, r, false).await?);
        }
        let offsets = self.inner.cache.dirty_offsets(fstream.vnode);
        let bs = self.inner.block_size as u64;
        let mut ranges = contiguous_runs(offsets.iter().map(|o| o / bs));
        if sweep == DirtySweep::Span {
            // One sweep from the first dirty page to the last.
            if let Some(end) = ranges.last().map(|r| r.end) {
                ranges.truncate(1);
                ranges[0].end = end;
            }
        }
        for range in ranges {
            count(&self.write_clusters(fstream, map, range, false).await?);
        }
        fstream.quiesce().await;
        // Deferred writes fail with no caller to tell; the sticky stream
        // error makes this fsync the one that reports the loss.
        if fstream.take_io_error() {
            return Err(FsError::Io);
        }
        Ok(())
    }

    /// The paper's Figure 8 while loop: sweep `[range)` for dirty resident
    /// pages, gather each block-map-contiguous dirty run under page locks,
    /// reserve throttle space, and push one stream-tagged write per run.
    /// With `free_behind`, pages are freed once written (pageout-initiated
    /// cleaning). Returns the blocks in each cluster pushed. Completions
    /// (interrupt charge, page release, throttle credit) run
    /// asynchronously; [`FileStream::quiesce`] waits them out.
    pub async fn write_clusters(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        range: Range<u64>,
        free_behind: bool,
    ) -> FsResult<Vec<u32>> {
        let inner = &*self.inner;
        let bs = inner.block_size;
        let mut cluster_blocks = Vec::new();
        let mut cur = range.start;
        while cur < range.end {
            // Find the next dirty resident page in the range and lock it.
            // Re-check dirtiness after the lock: a concurrent flush (fsync
            // racing putpage, or the cleaner) may have written it while we
            // waited.
            let key = self.key(fstream, cur);
            let id = match inner.cache.lookup(key) {
                Some(id) if inner.cache.is_dirty(id) => id,
                _ => {
                    cur += 1;
                    continue;
                }
            };
            if !inner.cache.lock_busy(id).await {
                cur += 1;
                continue; // Page recycled while we waited.
            }
            if !inner.cache.is_dirty(id) {
                inner.cache.unbusy(id);
                cur += 1;
                continue;
            }
            // How far can one transfer go? The block map knows.
            let cap = ((range.end - cur) as u32).min(map.max_cluster());
            let (pbn, contig) = match map.extent(cur, cap).await? {
                Some(v) => v,
                None => {
                    // A dirty page over a hole cannot happen: writes allocate.
                    inner.cache.unbusy(id);
                    return Err(FsError::Corrupt);
                }
            };
            // Gather the dirty run (clipped at the first clean/absent page),
            // locking as we go.
            let mut run: Vec<PageId> = vec![id];
            for i in 1..contig {
                let k = self.key(fstream, cur + i as u64);
                match inner.cache.lookup(k) {
                    Some(pid) if inner.cache.is_dirty(pid) => {
                        if !inner.cache.lock_busy(pid).await {
                            break; // Recycled while waiting.
                        }
                        if !inner.cache.is_dirty(pid) {
                            inner.cache.unbusy(pid);
                            break;
                        }
                        run.push(pid);
                    }
                    _ => break,
                }
            }
            let n = run.len() as u32;
            // Snapshot contents for the transfer.
            let mut payload = Vec::with_capacity(n as usize * bs);
            for pid in &run {
                inner
                    .cache
                    .with_page(*pid, |d| payload.extend_from_slice(d));
            }
            // A root span per cluster: the push completes after the caller
            // returns, so it cannot nest anywhere.
            let span = inner.sim.tracer().start(
                "iopath.write_cluster",
                fstream.id().as_u32(),
                SpanId::NONE,
            );
            inner.sim.tracer().arg(span, "lbn", cur);
            inner.sim.tracer().arg(span, "blocks", n as u64);
            // Fairness: reserve write-queue space before submitting.
            let token = fstream
                .throttle
                .begin_write_traced(n as u64 * bs as u64, span)
                .await;
            inner.cpu.charge("io_setup", inner.costs.io_setup).await;
            self.per_stream(fstream.id()).write_blocks.observe(n as u64);
            fstream.io_started();
            let lba = pbn as u64 * inner.sectors_per_block as u64;
            let nsect = n * inner.sectors_per_block;
            let stream = fstream.id().as_u32();
            let mut handle = inner
                .disk
                .submit_write_for(lba, nsect, payload, stream, span);
            let this = self.clone();
            let fstream2 = Rc::clone(fstream);
            inner.sim.spawn(async move {
                let inner = &*this.inner;
                let mut attempt = 0u32;
                let status = loop {
                    let res = handle.wait().await;
                    inner.cpu.charge("io_intr", inner.costs.io_intr).await;
                    match res.status {
                        IoStatus::MediaError if attempt < inner.retry_max.get() => {
                            let s = inner.sim.stats();
                            s.counter("io.errors{kind=media}").inc();
                            s.counter("io.retries").inc();
                            let rs = inner.sim.tracer().start("iopath.retry", stream, span);
                            inner.sim.tracer().arg(rs, "attempt", attempt as u64 + 1);
                            inner.sim.sleep(this.backoff(attempt)).await;
                            // Re-snapshot the payload: the run's pages are
                            // still locked busy by this writeback, so their
                            // contents are stable and current.
                            let bs = inner.block_size;
                            let mut payload = Vec::with_capacity(run.len() * bs);
                            for pid in &run {
                                inner
                                    .cache
                                    .with_page(*pid, |d| payload.extend_from_slice(d));
                            }
                            handle = inner
                                .disk
                                .submit_write_for(lba, nsect, payload, stream, span);
                            inner.sim.tracer().end(rs);
                            attempt += 1;
                        }
                        status => break status,
                    }
                };
                if !status.is_ok() {
                    inner
                        .sim
                        .stats()
                        .counter(if status == IoStatus::DeviceGone {
                            "io.errors{kind=gone}"
                        } else {
                            "io.errors{kind=media}"
                        })
                        .inc();
                    // The data is lost; there is no caller to fail. Record
                    // the sticky error for the next fsync and release the
                    // pages anyway — leaving them dirty would wedge the
                    // throttle and every quiescer forever.
                    fstream2.set_io_error();
                }
                for pid in &run {
                    inner.cache.clear_dirty(*pid);
                    inner.cache.unbusy(*pid);
                    if free_behind {
                        inner.cache.free_page(*pid);
                    }
                }
                fstream2.throttle.complete(token);
                fstream2.io_finished();
                inner.sim.tracer().end(span);
            });
            cluster_blocks.push(n);
            cur += n as u64;
        }
        Ok(cluster_blocks)
    }

    /// Free-behind mechanism: releases one consumed page behind a
    /// sequential reader (the policy already decided it should go) unless
    /// it became busy or dirty since the policy looked. Returns whether
    /// the page was freed.
    pub fn free_behind(&self, page: PageId) -> bool {
        let inner = &*self.inner;
        if !inner.cache.is_busy(page) && !inner.cache.is_dirty(page) {
            inner.cache.free_page(page);
            true
        } else {
            false
        }
    }
}

/// Groups ascending block numbers into runs of consecutive blocks.
fn contiguous_runs(blocks: impl Iterator<Item = u64>) -> Vec<Range<u64>> {
    let mut out: Vec<Range<u64>> = Vec::new();
    for b in blocks {
        match out.last_mut() {
            Some(run) if run.end == b => run.end += 1,
            _ => out.push(b..b + 1),
        }
    }
    out
}
