//! The shared I/O execution engine.
//!
//! The paper's contribution is policy layered over unchanged mechanism:
//! read-ahead, delayed-write accumulation, free-behind and write limits
//! decide *what* to transfer, while the code that creates busy pages,
//! charges setup/interrupt CPU, talks to the disk and completes pages is
//! the same in every kernel. This module is that mechanism, factored out
//! of `ufs::vnops` so both `ufs` and `extentfs` drive one executor:
//! policy engines emit typed [`IoIntent`] values and [`IoPath::execute`]
//! resolves them against the page cache and the disk.
//!
//! Every open file carries a [`FileStream`] whose [`StreamId`] rides each
//! request end to end — demand-fault cache lookups, cluster issues,
//! throttle stalls and `diskmodel` queue entries are all labelled with the
//! originating stream, so the registry can answer "which stream got what
//! share of the disk" (`disk.sectors_*{stream=N}`,
//! `core.throttle_stalls{stream=N}`, `iopath.cluster_*_blocks{stream=N}`).

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use clufs::{PrefetchPlan, PrefetchPolicy, Prefetcher, WriteThrottle};
use diskmodel::{DataView, IoHandle, IoStatus, SharedDevice};
use pagecache::{PageCache, PageId, PageKey};
use simkit::stats::{Counter, Histogram};
use simkit::{Cpu, IntMap, IntSet, Notify, Sim, SimDuration, SpanId};

use crate::{FsError, FsResult, StreamId, VnodeId};

/// Why a cluster read is being issued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadReason {
    /// A faulting access needs the first block now; the caller waits.
    Demand,
    /// Speculative read-ahead; the executor fills pages asynchronously.
    Readahead,
}

/// Why dirty pages are being pushed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteReason {
    /// The delayed-write policy decided a cluster is full (putpage push).
    Flush,
    /// An explicit fsync is forcing everything out.
    Fsync,
    /// The pageout daemon is cleaning under memory pressure.
    Cleaner,
}

/// A cluster read: `len` blocks starting at logical block `lbn`, backed by
/// physical block `pbn`. The executor clips the transfer at the first
/// already-cached page.
#[derive(Clone, Copy, Debug)]
pub struct ReadCluster {
    pub lbn: u64,
    pub pbn: u32,
    pub len: u32,
    pub reason: ReadReason,
}

/// A batched run-list read: up to `len` logical blocks from `lbn`,
/// resolved through [`BlockMap::runs`] in one pass. Unlike
/// [`ReadCluster`], the blocks need not be physically contiguous — the
/// executor pays one setup for the whole batch and issues one transfer
/// per physical run, back to back (the list-I/O shape: tree walks and
/// command builds amortize even on a fragmented file).
#[derive(Clone, Copy, Debug)]
pub struct ReadRuns {
    pub lbn: u64,
    pub len: u32,
    pub reason: ReadReason,
    /// Data-sieving pattern for a speculative batch: `Some((keep,
    /// period))` marks the block at offset `o` from `lbn` as wanted iff
    /// `o % period < keep`; the rest is gap filler, read only to keep
    /// the transfer contiguous and accounted as
    /// `io.prefetch_wasted_bytes` at issue. `None` = every block is
    /// wanted. Ignored for demand reads.
    pub sieve: Option<(u32, u32)>,
}

/// A writeback sweep over `[range)` of dirty pages, one block-map
/// contiguous cluster at a time. With `free_behind`, pages are freed once
/// written (pageout-initiated cleaning).
#[derive(Clone, Debug)]
pub struct WriteCluster {
    pub range: Range<u64>,
    pub reason: WriteReason,
    pub free_behind: bool,
}

/// Release one consumed page behind a sequential reader (the free-behind
/// policy already decided it should go).
#[derive(Clone, Copy, Debug)]
pub struct FreeBehind {
    pub lbn: u64,
    pub page: PageId,
}

/// A typed I/O request emitted by policy code and resolved by
/// [`IoPath::execute`].
#[derive(Clone, Debug)]
pub enum IoIntent {
    ReadCluster(ReadCluster),
    ReadRuns(ReadRuns),
    WriteCluster(WriteCluster),
    FreeBehind(FreeBehind),
}

/// What executing an [`IoIntent`] did.
pub enum Executed {
    /// A demand read is in flight; wait for it with [`IoPath::finish_read`].
    ReadIssued(ClusterRead),
    /// A demand run-list batch is in flight; wait for it with
    /// [`IoPath::finish_batch`].
    BatchIssued(BatchRead),
    /// A read-ahead was issued; `blocks` pages are being filled
    /// asynchronously by the executor's completion task.
    ReadaheadIssued { blocks: u32 },
    /// The first page was already resident; no I/O was started.
    AlreadyCached,
    /// The writeback sweep issued one cluster per entry (`blocks` each);
    /// completions run asynchronously — quiesce via [`FileStream`].
    Wrote { cluster_blocks: Vec<u32> },
    /// Whether the free-behind page was actually released (busy or dirty
    /// pages are left alone).
    Freed(bool),
}

/// An issued cluster read: the disk handle plus the busy pages created for
/// it, in block order. Carries enough of the original request (device
/// range, stream, owning vnode) to resubmit the transfer on a transient
/// device error and to tear the pages back down on a permanent one.
pub struct ClusterRead {
    handle: IoHandle,
    lba: u64,
    nsect: u32,
    stream: u32,
    vnode: VnodeId,
    pages: Vec<(u64, PageId)>,
    span: SpanId,
}

impl ClusterRead {
    /// Number of blocks in the transfer.
    pub fn blocks(&self) -> u32 {
        self.pages.len() as u32
    }
}

/// One in-flight transfer of a [`BatchRead`]: the handle, the device range
/// it covers (for retry), and the busy pages it fills, in block order.
struct BatchPart {
    handle: IoHandle,
    lba: u64,
    nsect: u32,
    pages: Vec<(u64, PageId)>,
}

/// An issued run-list batch: one in-flight transfer per physical run.
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

/// Per-open-file I/O identity: the stream label, the paper's per-inode
/// write throttle, and the in-flight write count used to quiesce before
/// truncate/remove/fsync completion.
pub struct FileStream {
    vnode: VnodeId,
    stream: StreamId,
    throttle: WriteThrottle,
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

    /// Dry-runs the stream's prefetch engine for an access to `lbn`
    /// without committing the state transition. Callers whose
    /// `cluster_len` probes resolve lazily (UFS `bmap` awaits) loop on
    /// this until every probe is known, then call
    /// [`IoPath::prefetch_commit`] with identical inputs.
    pub fn prefetch_dry(
        &self,
        stream: StreamId,
        lbn: u64,
        cached: bool,
        cluster_len: impl FnMut(u64) -> u32,
        size_hint_blocks: u32,
    ) -> PrefetchPlan {
        let mut engine = self.engine(stream);
        engine.on_access(
            lbn,
            cached,
            cluster_len,
            size_hint_blocks,
            self.inner.cache.free_count() as u64,
            self.inner.cache.lotsfree() as u64,
        )
    }

    /// Runs the stream's prefetch engine for an access to `lbn`,
    /// committing the state transition, and returns the plan. Pressure
    /// (`cache.free_pages` vs the pageout reserve) is read here, so a
    /// dry run and a commit in the same synchronous stretch agree.
    pub fn prefetch_commit(
        &self,
        stream: StreamId,
        lbn: u64,
        cached: bool,
        cluster_len: impl FnMut(u64) -> u32,
        size_hint_blocks: u32,
    ) -> PrefetchPlan {
        let free = self.inner.cache.free_count() as u64;
        let reserve = self.inner.cache.lotsfree() as u64;
        let mut engines = self.inner.prefetchers.borrow_mut();
        let engine = engines.entry(stream.as_u32()).or_insert_with(|| {
            Prefetcher::new(
                self.inner.prefetch_policy.get(),
                self.inner.prefetch_unit.get(),
            )
        });
        let plan = engine.on_access(lbn, cached, cluster_len, size_hint_blocks, free, reserve);
        drop(engines);
        if !plan.runs.is_empty() {
            self.inner.pf.distance.observe(plan.distance.max(1) as u64);
        }
        plan
    }

    /// A clone of the stream's engine (creating it on first use).
    fn engine(&self, stream: StreamId) -> Prefetcher {
        self.inner
            .prefetchers
            .borrow_mut()
            .entry(stream.as_u32())
            .or_insert_with(|| {
                Prefetcher::new(
                    self.inner.prefetch_policy.get(),
                    self.inner.prefetch_unit.get(),
                )
            })
            .clone()
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

    /// Resolves one typed intent against the cache and the disk.
    pub async fn execute(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        intent: IoIntent,
    ) -> FsResult<Executed> {
        self.execute_traced(fstream, map, intent, SpanId::NONE)
            .await
    }

    /// [`IoPath::execute`], nesting the intent's trace spans under
    /// `parent`.
    ///
    /// Only a demand read's span is actually parented there: read-ahead
    /// fills and cluster writebacks complete asynchronously, *after* the
    /// faulting operation returns, so their spans are roots — a span must
    /// lie within its parent's interval for the trace to mean anything.
    pub async fn execute_traced(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        intent: IoIntent,
        parent: SpanId,
    ) -> FsResult<Executed> {
        match intent {
            IoIntent::ReadCluster(rc) => self.read_cluster(fstream, rc, parent).await,
            IoIntent::ReadRuns(rr) => self.read_runs(fstream, map, rr, parent).await,
            IoIntent::WriteCluster(wc) => self.write_clusters(fstream, map, wc).await,
            IoIntent::FreeBehind(fb) => Ok(Executed::Freed(self.free_page(fb))),
        }
    }

    /// Creates busy pages for `[lbn, lbn+len)` — clipped at the first
    /// already-cached page — and submits one contiguous, stream-tagged
    /// read. Demand reads return the in-flight [`ClusterRead`]; read-ahead
    /// spawns the fill task and returns immediately.
    async fn read_cluster(
        &self,
        fstream: &Rc<FileStream>,
        rc: ReadCluster,
        parent: SpanId,
    ) -> FsResult<Executed> {
        let inner = &*self.inner;
        if rc.reason == ReadReason::Readahead
            && inner.cache.lookup(self.key(fstream, rc.lbn)).is_some()
        {
            // The data already arrived (or was never evicted): nothing to do.
            return Ok(Executed::AlreadyCached);
        }
        let stream = fstream.id().as_u32();
        let span = match rc.reason {
            ReadReason::Demand => inner
                .sim
                .tracer()
                .start("iopath.read_cluster", stream, parent),
            // Read-ahead outlives the faulting operation; see
            // `execute_traced`.
            ReadReason::Readahead => {
                inner
                    .sim
                    .tracer()
                    .start("iopath.readahead", stream, SpanId::NONE)
            }
        };
        inner.sim.tracer().arg(span, "lbn", rc.lbn);
        let mut pages = Vec::new();
        for i in 0..rc.len.max(1) {
            let key = self.key(fstream, rc.lbn + i as u64);
            if inner.cache.lookup(key).is_some() {
                break; // Already resident: clip the cluster here.
            }
            // Unzeroed: the read fills every byte before the page leaves
            // busy, and a failed read invalidates it.
            let id = inner.cache.create_for_fill(key, stream, span).await;
            // The page identity is fresh; drop any stale read-ahead claim
            // a recycled predecessor left behind.
            inner.ra_pending.borrow_mut().remove(&key);
            pages.push((rc.lbn + i as u64, id));
        }
        let n = pages.len() as u32;
        assert!(n > 0, "cluster read with zero absent pages");
        inner.sim.tracer().arg(span, "blocks", n as u64);
        inner.cpu.charge("io_setup", inner.costs.io_setup).await;
        self.per_stream(fstream.id()).read_blocks.observe(n as u64);
        let lba = rc.pbn as u64 * inner.sectors_per_block as u64;
        let nsect = n * inner.sectors_per_block;
        let handle = inner.disk.submit_read_for(lba, nsect, stream, span);
        let io = ClusterRead {
            handle,
            lba,
            nsect,
            stream,
            vnode: fstream.vnode,
            pages,
            span,
        };
        match rc.reason {
            ReadReason::Demand => Ok(Executed::ReadIssued(io)),
            ReadReason::Readahead => {
                let blocks = io.blocks();
                inner.pf.issued.add(blocks as u64);
                {
                    let mut ra = inner.ra_pending.borrow_mut();
                    for (run_lbn, _) in &io.pages {
                        ra.insert(self.key(fstream, *run_lbn));
                    }
                }
                self.spawn_fill(io);
                Ok(Executed::ReadaheadIssued { blocks })
            }
        }
    }

    /// Resolves the file's run-list once and moves up to `rr.len` blocks
    /// in one batch — busy pages are created for the absent prefix
    /// (clipped at the first already-cached page), one `io_setup` is
    /// charged for the whole batch, and one stream-tagged transfer is
    /// submitted per physical run. Demand batches return the in-flight
    /// [`BatchRead`]; read-ahead spawns the fill task and returns.
    async fn read_runs(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        rr: ReadRuns,
        parent: SpanId,
    ) -> FsResult<Executed> {
        let inner = &*self.inner;
        if rr.reason == ReadReason::Readahead
            && inner.cache.lookup(self.key(fstream, rr.lbn)).is_some()
        {
            return Ok(Executed::AlreadyCached);
        }
        let runs = map.runs(rr.lbn, rr.len.max(1)).await?;
        let covered: u32 = runs.iter().map(|&(_, n)| n).sum();
        if covered == 0 {
            return match rr.reason {
                // The caller saw the block mapped; an empty run-list here
                // means the map lost it underneath us.
                ReadReason::Demand => Err(FsError::Corrupt),
                ReadReason::Readahead => Ok(Executed::AlreadyCached),
            };
        }
        let stream = fstream.id().as_u32();
        let span = match rr.reason {
            ReadReason::Demand => inner.sim.tracer().start("iopath.read_runs", stream, parent),
            // Read-ahead outlives the faulting operation; see
            // `execute_traced`.
            ReadReason::Readahead => {
                inner
                    .sim
                    .tracer()
                    .start("iopath.readahead", stream, SpanId::NONE)
            }
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
            // Everything arrived while the run-list resolved (the map's
            // translation may await, e.g. an indirect-block read).
            inner.sim.tracer().end(span);
            return Ok(Executed::AlreadyCached);
        }
        inner.sim.tracer().arg(span, "blocks", n as u64);
        // One setup for the whole batch: this is the amortization a
        // fragmented file gets from list-style I/O.
        inner.cpu.charge("io_setup", inner.costs.io_setup).await;
        self.per_stream(fstream.id()).read_blocks.observe(n as u64);
        let mut parts = Vec::new();
        let mut idx = 0usize;
        for &(pbn, len) in &runs {
            if idx >= pages.len() {
                break;
            }
            let take = (len as usize).min(pages.len() - idx);
            let part: Vec<(u64, PageId)> = pages[idx..idx + take].to_vec();
            let lba = pbn as u64 * inner.sectors_per_block as u64;
            let nsect = take as u32 * inner.sectors_per_block;
            let handle = inner.disk.submit_read_for(lba, nsect, stream, span);
            parts.push(BatchPart {
                handle,
                lba,
                nsect,
                pages: part,
            });
            idx += take;
        }
        inner.sim.tracer().arg(span, "runs", parts.len() as u64);
        let io = BatchRead {
            parts,
            stream,
            vnode: fstream.vnode,
            span,
        };
        match rr.reason {
            ReadReason::Demand => Ok(Executed::BatchIssued(io)),
            ReadReason::Readahead => {
                let blocks = io.blocks();
                inner.pf.issued.add(blocks as u64);
                // Claim every wanted page; sieve gap filler is known
                // wasted the moment it is issued.
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
                self.spawn_fill_batch(io);
                Ok(Executed::ReadaheadIssued { blocks })
            }
        }
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
        let inner = &*self.inner;
        let bs = inner.block_size;
        let mut want = None;
        let mut want_failed = false;
        for part in io.parts {
            let res = self
                .await_read(part.handle, part.lba, part.nsect, io.stream, io.span)
                .await;
            inner.cpu.charge("io_intr", inner.costs.io_intr).await;
            match res {
                Ok(data) => {
                    for (i, (run_lbn, id)) in part.pages.iter().enumerate() {
                        inner
                            .cache
                            .fill_with(*id, |frame| data.copy_to(i * bs, frame));
                        if *run_lbn == want_lbn {
                            // Stays busy until the whole batch lands: a later
                            // part's await must not let pageout recycle the page
                            // this batch was issued for.
                            want = Some(*id);
                        } else {
                            inner.cache.unbusy(*id);
                        }
                    }
                }
                Err(_) => {
                    if part.pages.iter().any(|&(l, _)| l == want_lbn) {
                        want_failed = true;
                    }
                    self.drop_failed_pages(io.vnode, &part.pages);
                }
            }
        }
        inner.sim.tracer().end(io.span);
        if want_failed {
            return Err(FsError::Io);
        }
        let want = want.expect("requested page is in the batch");
        inner.cache.unbusy(want);
        Ok(want)
    }

    /// Asynchronous completion for a read-ahead batch: wait out each
    /// part, charge the interrupt, fill and release. A part that fails
    /// terminally has its pages invalidated — the read was speculative,
    /// so there is nobody to tell; a later demand access re-faults and
    /// takes the error itself if the fault persists.
    fn spawn_fill_batch(&self, io: BatchRead) {
        let this = self.clone();
        self.inner.sim.spawn(async move {
            let inner = &*this.inner;
            let bs = inner.block_size;
            for part in io.parts {
                // One child span per physical transfer, under the batch's
                // `iopath.readahead` root: the trace shows how the
                // speculative window split across the disk.
                let ps = inner
                    .sim
                    .tracer()
                    .start("iopath.readahead.part", io.stream, io.span);
                inner.sim.tracer().arg(ps, "lba", part.lba);
                inner
                    .sim
                    .tracer()
                    .arg(ps, "blocks", part.pages.len() as u64);
                let res = this
                    .await_read(part.handle, part.lba, part.nsect, io.stream, io.span)
                    .await;
                inner.cpu.charge("io_intr", inner.costs.io_intr).await;
                match res {
                    Ok(data) => {
                        for (i, (_lbn, id)) in part.pages.iter().enumerate() {
                            inner
                                .cache
                                .fill_with(*id, |frame| data.copy_to(i * bs, frame));
                            inner.cache.unbusy(*id);
                        }
                    }
                    Err(_) => this.drop_failed_pages(io.vnode, &part.pages),
                }
                inner.sim.tracer().end(ps);
            }
            inner.sim.tracer().end(io.span);
        });
    }

    /// Waits out a demand read, charges the interrupt, fills and releases
    /// every page of the run, and returns the page for `want_lbn`.
    ///
    /// Transient device errors are retried (see [`IoPath::set_retry`]); a
    /// terminal failure invalidates the run's pages and surfaces
    /// `FsError::Io`.
    pub async fn finish_read(&self, io: ClusterRead, want_lbn: u64) -> FsResult<PageId> {
        let inner = &*self.inner;
        let res = self
            .await_read(io.handle, io.lba, io.nsect, io.stream, io.span)
            .await;
        inner.cpu.charge("io_intr", inner.costs.io_intr).await;
        let data = match res {
            Ok(data) => data,
            Err(e) => {
                self.drop_failed_pages(io.vnode, &io.pages);
                inner.sim.tracer().end(io.span);
                return Err(e);
            }
        };
        let bs = inner.block_size;
        let mut want = None;
        for (i, (run_lbn, id)) in io.pages.iter().enumerate() {
            inner
                .cache
                .fill_with(*id, |frame| data.copy_to(i * bs, frame));
            inner.cache.unbusy(*id);
            if *run_lbn == want_lbn {
                want = Some(*id);
            }
        }
        inner.sim.tracer().end(io.span);
        Ok(want.expect("requested page is in the run"))
    }

    /// Asynchronous completion for read-ahead: wait, charge the interrupt,
    /// fill and release. Terminal failures invalidate the speculative
    /// pages (see [`IoPath::spawn_fill_batch`] for the rationale).
    fn spawn_fill(&self, io: ClusterRead) {
        let this = self.clone();
        self.inner.sim.spawn(async move {
            let inner = &*this.inner;
            let res = this
                .await_read(io.handle, io.lba, io.nsect, io.stream, io.span)
                .await;
            inner.cpu.charge("io_intr", inner.costs.io_intr).await;
            match res {
                Ok(data) => {
                    let bs = inner.block_size;
                    for (i, (_lbn, id)) in io.pages.iter().enumerate() {
                        inner
                            .cache
                            .fill_with(*id, |frame| data.copy_to(i * bs, frame));
                        inner.cache.unbusy(*id);
                    }
                }
                Err(_) => this.drop_failed_pages(io.vnode, &io.pages),
            }
            inner.sim.tracer().end(io.span);
        });
    }

    /// The paper's Figure 8 while loop: sweep `[range)` for dirty resident
    /// pages, gather each block-map-contiguous dirty run under page locks,
    /// reserve throttle space, and push one stream-tagged write per run.
    /// Completions (interrupt charge, page release, throttle credit) run
    /// asynchronously; [`FileStream::quiesce`] waits them out.
    async fn write_clusters(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        wc: WriteCluster,
    ) -> FsResult<Executed> {
        let inner = &*self.inner;
        let bs = inner.block_size;
        let mut cluster_blocks = Vec::new();
        let mut cur = wc.range.start;
        while cur < wc.range.end {
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
            let cap = ((wc.range.end - cur) as u32).min(map.max_cluster());
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
            // returns (see `execute_traced`), so it cannot nest anywhere.
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
            let free_after = wc.free_behind;
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
                    if free_after {
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
        Ok(Executed::Wrote { cluster_blocks })
    }

    /// Free-behind mechanism: release the page unless it became busy or
    /// dirty since the policy looked.
    fn free_page(&self, fb: FreeBehind) -> bool {
        let inner = &*self.inner;
        if !inner.cache.is_busy(fb.page) && !inner.cache.is_dirty(fb.page) {
            inner.cache.free_page(fb.page);
            true
        } else {
            false
        }
    }
}
