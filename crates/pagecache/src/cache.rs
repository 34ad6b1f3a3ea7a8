//! The page name cache: `<vnode, offset>` → physical page.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use simkit::stats::{Counter, Gauge, NameId};
use simkit::{IntMap, Notify, Sim, SimDuration, SpanId};

/// Identifies a file for page naming purposes.
pub type VnodeId = u64;

/// The name of a cached page: a vnode plus a page-aligned byte offset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PageKey {
    /// Owning vnode.
    pub vnode: VnodeId,
    /// Byte offset within the file (page aligned).
    pub offset: u64,
}

/// Sizing and thresholds for the cache.
#[derive(Clone, Copy, Debug)]
pub struct PageCacheParams {
    /// Physical pages available to the cache.
    pub total_pages: usize,
    /// Bytes per page (the reproduction uses 8 KB = one fs block).
    pub page_size: usize,
    /// Low-water mark: the pageout daemon runs while `free < lotsfree`.
    pub lotsfree: usize,
}

impl PageCacheParams {
    /// The paper's measurement machine: 8 MB SPARCstation 1. Roughly 6 MB
    /// is page cache after the kernel; at 8 KB pages that is 768 pages.
    pub fn sparcstation_8mb() -> PageCacheParams {
        PageCacheParams {
            total_pages: 768,
            page_size: 8192,
            lotsfree: 48, // 1/16 of memory, the classic lotsfree ratio.
        }
    }

    /// A tiny cache for unit tests.
    pub fn small_test() -> PageCacheParams {
        PageCacheParams {
            total_pages: 32,
            page_size: 8192,
            lotsfree: 4,
        }
    }
}

/// Counters exposed for experiments and assertions.
#[derive(Clone, Copy, Debug, Default)]
pub struct PageCacheStats {
    /// Lookups that found the page (including reclaims).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Hits that pulled the page back off the free list.
    pub reclaims: u64,
    /// Pages created (identity assigned).
    pub creates: u64,
    /// Pages returned to the free list.
    pub frees: u64,
    /// Identities destroyed (truncate/unlink/reuse).
    pub destroys: u64,
    /// Allocations that had to wait for a free page.
    pub alloc_stalls: u64,
    /// Total virtual time allocations spent waiting.
    pub alloc_stall_time: SimDuration,
}

/// "Not linked" sentinel for the intrusive free-list links.
const NIL: usize = usize::MAX;

struct Page {
    key: Option<PageKey>,
    generation: u64,
    data: Vec<u8>,
    busy: bool,
    dirty: bool,
    referenced: bool,
    on_free_list: bool,
    waiters: Vec<Waker>,
    /// Intrusive free-list links ([`NIL`] when not on the list). The list
    /// orders pages by when they were freed (LRU-of-free): `create` steals
    /// from the head, so the longest-free identity is recycled first.
    free_prev: usize,
    free_next: usize,
}

/// The free list as an intrusive doubly-linked list threaded through
/// [`Page::free_prev`]/[`Page::free_next`]. Push, pop, and — the operation
/// the previous `VecDeque` representation made O(free) on every reclaim —
/// removal of an arbitrary page are all O(1).
struct FreeList {
    head: usize,
    tail: usize,
    len: usize,
}

impl FreeList {
    fn new() -> FreeList {
        FreeList {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    fn push_back(&mut self, pages: &mut [Page], idx: usize) {
        debug_assert!(pages[idx].free_prev == NIL && pages[idx].free_next == NIL);
        pages[idx].free_prev = self.tail;
        pages[idx].free_next = NIL;
        if self.tail == NIL {
            self.head = idx;
        } else {
            pages[self.tail].free_next = idx;
        }
        self.tail = idx;
        self.len += 1;
    }

    fn pop_front(&mut self, pages: &mut [Page]) -> Option<usize> {
        if self.head == NIL {
            return None;
        }
        let idx = self.head;
        self.unlink(pages, idx);
        Some(idx)
    }

    /// Unlinks `idx` wherever it sits in the list (reclaim).
    fn unlink(&mut self, pages: &mut [Page], idx: usize) {
        let (prev, next) = (pages[idx].free_prev, pages[idx].free_next);
        debug_assert!(
            prev != NIL || next != NIL || self.head == idx,
            "unlinked page"
        );
        if prev == NIL {
            self.head = next;
        } else {
            pages[prev].free_next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            pages[next].free_prev = prev;
        }
        pages[idx].free_prev = NIL;
        pages[idx].free_next = NIL;
        self.len -= 1;
    }
}

/// Stable reference to a page; all accessors panic if the page identity was
/// recycled (generation mismatch), which turns use-after-free bugs into
/// loud failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageId {
    idx: usize,
    generation: u64,
}

/// Registry handles mirroring [`PageCacheStats`] into `sim.stats()`
/// under the `cache.*` namespace (schema: DESIGN.md "Observability").
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    reclaims: Counter,
    creates: Counter,
    frees: Counter,
    destroys: Counter,
    alloc_stalls: Counter,
    alloc_stall_ns: Counter,
    /// Occupancy gauges sampled by the telemetry sampler: pages currently
    /// on the free list and pages currently dirty. Kept in lockstep with
    /// the free list / dirty index at every mutation site.
    free_pages: Gauge,
    dirty_pages: Gauge,
    /// Registry handle for lazily materialized per-stream counters.
    registry: simkit::stats::StatsRegistry,
    /// Interned `cache.hits`/`cache.misses` base names: per-stream lookup
    /// attribution ([`PageCache::lookup_for`]) resolves `base{stream=N}`
    /// through the registry's integer-hash interned table instead of
    /// formatting and re-hashing a `String` per fault.
    hits_id: NameId,
    misses_id: NameId,
}

impl CacheMetrics {
    fn new(sim: &Sim) -> CacheMetrics {
        let s = sim.stats();
        CacheMetrics {
            hits: s.counter("cache.hits"),
            misses: s.counter("cache.misses"),
            reclaims: s.counter("cache.reclaims"),
            creates: s.counter("cache.creates"),
            frees: s.counter("cache.frees"),
            destroys: s.counter("cache.destroys"),
            alloc_stalls: s.counter("cache.alloc_stalls"),
            alloc_stall_ns: s.counter("cache.alloc_stall_ns"),
            free_pages: s.gauge("cache.free_pages"),
            dirty_pages: s.gauge("cache.dirty_pages"),
            hits_id: s.intern("cache.hits"),
            misses_id: s.intern("cache.misses"),
            registry: s.clone(),
        }
    }

    fn stream_lookup(&self, stream: u32, hit: bool) -> Counter {
        let base = if hit { self.hits_id } else { self.misses_id };
        self.registry.stream_counter_id(base, stream)
    }
}

struct CacheInner {
    sim: Sim,
    params: PageCacheParams,
    pages: RefCell<Vec<Page>>,
    hash: RefCell<IntMap<PageKey, usize>>,
    free: RefCell<FreeList>,
    /// Per-vnode index of dirty page offsets, kept in lockstep with the
    /// per-page dirty bits so [`PageCache::dirty_offsets`] reads the
    /// answer instead of scanning the whole name hash.
    dirty: RefCell<IntMap<VnodeId, BTreeSet<u64>>>,
    /// Signaled whenever a page joins the free list (allocation stalls wait
    /// here).
    mem_notify: Notify,
    /// Signaled whenever free memory drops below `lotsfree` (the pageout
    /// daemon waits here).
    pressure_notify: Notify,
    stats: RefCell<PageCacheStats>,
    metrics: CacheMetrics,
    /// Observers of identity destruction (reuse, invalidation): each is
    /// called with the key a page *stopped* naming. The I/O path uses
    /// this to notice prefetched-but-never-consumed pages leaving the
    /// cache (wasted-read accounting).
    recycle_hooks: RefCell<Vec<RecycleHook>>,
}

/// An identity-destruction observer (see `CacheInner::recycle_hooks`).
type RecycleHook = Box<dyn Fn(PageKey)>;

/// The unified page cache. Clones share the same memory.
#[derive(Clone)]
pub struct PageCache {
    inner: Rc<CacheInner>,
}

impl PageCache {
    /// Creates an empty cache: every page starts on the free list with no
    /// identity.
    pub fn new(sim: &Sim, params: PageCacheParams) -> PageCache {
        assert!(params.total_pages > 0, "cache needs at least one page");
        assert!(
            params.lotsfree < params.total_pages,
            "lotsfree must be below total_pages"
        );
        let mut pages: Vec<Page> = (0..params.total_pages)
            .map(|_| Page {
                key: None,
                generation: 0,
                data: vec![0u8; params.page_size],
                busy: false,
                dirty: false,
                referenced: false,
                on_free_list: true,
                waiters: Vec::new(),
                free_prev: NIL,
                free_next: NIL,
            })
            .collect();
        let mut free = FreeList::new();
        for idx in 0..params.total_pages {
            free.push_back(&mut pages, idx);
        }
        let cache = PageCache {
            inner: Rc::new(CacheInner {
                sim: sim.clone(),
                params,
                pages: RefCell::new(pages),
                hash: RefCell::new(IntMap::default()),
                free: RefCell::new(free),
                dirty: RefCell::new(IntMap::default()),
                mem_notify: Notify::new(),
                pressure_notify: Notify::new(),
                stats: RefCell::new(PageCacheStats::default()),
                metrics: CacheMetrics::new(sim),
                recycle_hooks: RefCell::new(Vec::new()),
            }),
        };
        cache
            .inner
            .metrics
            .free_pages
            .set(params.total_pages as f64);
        cache
    }

    /// Mirrors the free-list length into the `cache.free_pages` gauge;
    /// called after every free-list mutation so the telemetry sampler
    /// reads a current value.
    fn sync_free_gauge(&self) {
        self.inner
            .metrics
            .free_pages
            .set(self.inner.free.borrow().len as f64);
    }

    /// Registers an observer of page-identity destruction: `hook(key)`
    /// runs synchronously whenever a page stops naming `key` (free-list
    /// reuse, [`PageCache::invalidate_page`],
    /// [`PageCache::invalidate_vnode`]). Hooks must not call back into
    /// the cache.
    pub fn add_recycle_hook(&self, hook: impl Fn(PageKey) + 'static) {
        self.inner.recycle_hooks.borrow_mut().push(Box::new(hook));
    }

    fn fire_recycle(&self, key: PageKey) {
        for hook in self.inner.recycle_hooks.borrow().iter() {
            hook(key);
        }
    }

    /// Bytes per page.
    pub fn page_size(&self) -> usize {
        self.inner.params.page_size
    }

    /// Total physical pages.
    pub fn total_pages(&self) -> usize {
        self.inner.params.total_pages
    }

    /// Pages currently on the free list.
    pub fn free_count(&self) -> usize {
        self.inner.free.borrow().len
    }

    /// The pageout daemon's low-water mark.
    pub fn lotsfree(&self) -> usize {
        self.inner.params.lotsfree
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PageCacheStats {
        *self.inner.stats.borrow()
    }

    /// Resets counters (sizing is unaffected).
    pub fn reset_stats(&self) {
        *self.inner.stats.borrow_mut() = PageCacheStats::default();
    }

    /// Notifier used by the pageout daemon; fires when memory runs low.
    pub(crate) fn pressure_notify(&self) -> Notify {
        self.inner.pressure_notify.clone()
    }

    fn check(&self, id: PageId) {
        let pages = self.inner.pages.borrow();
        assert_eq!(
            pages[id.idx].generation, id.generation,
            "stale PageId: page was recycled"
        );
    }

    /// Finds the page named `key`, reclaiming it from the free list if
    /// needed, and marks it referenced.
    pub fn lookup(&self, key: PageKey) -> Option<PageId> {
        let idx = self.inner.hash.borrow().get(&key).copied();
        match idx {
            Some(idx) => {
                let mut pages = self.inner.pages.borrow_mut();
                debug_assert_eq!(pages[idx].key, Some(key));
                if pages[idx].on_free_list {
                    self.inner.free.borrow_mut().unlink(&mut pages, idx);
                    pages[idx].on_free_list = false;
                    self.inner.stats.borrow_mut().reclaims += 1;
                    self.inner.metrics.reclaims.inc();
                    self.sync_free_gauge();
                }
                pages[idx].referenced = true;
                let generation = pages[idx].generation;
                self.inner.stats.borrow_mut().hits += 1;
                self.inner.metrics.hits.inc();
                Some(PageId { idx, generation })
            }
            None => {
                self.inner.stats.borrow_mut().misses += 1;
                self.inner.metrics.misses.inc();
                None
            }
        }
    }

    /// [`PageCache::lookup`], with the hit or miss additionally attributed
    /// to `stream` (`cache.hits{stream=N}` / `cache.misses{stream=N}`).
    /// Used by the demand-fault path, where the faulting stream is known;
    /// internal probes (cluster clipping, writeback gathering) stay
    /// unattributed.
    pub fn lookup_for(&self, key: PageKey, stream: u32) -> Option<PageId> {
        self.lookup_traced(key, stream, SpanId::NONE)
    }

    /// [`PageCache::lookup_for`], additionally recording the outcome as an
    /// instant `cache.hit` / `cache.miss` trace span under `parent`, so the
    /// analyzer can read hit ratios straight out of a trace. Lookups take
    /// no virtual time, so the span is zero-width.
    pub fn lookup_traced(&self, key: PageKey, stream: u32, parent: SpanId) -> Option<PageId> {
        let found = self.lookup(key);
        self.inner
            .metrics
            .stream_lookup(stream, found.is_some())
            .inc();
        let tracer = self.inner.sim.tracer();
        let name = if found.is_some() {
            "cache.hit"
        } else {
            "cache.miss"
        };
        let now = self.inner.sim.now();
        let span = tracer.record(name, stream, parent, now, now);
        tracer.arg(span, "offset", key.offset);
        found
    }

    /// Allocates a page for `key`, waiting for free memory if necessary.
    /// The new page is returned **busy** (the caller fills it and calls
    /// [`PageCache::unbusy`]).
    ///
    /// # Panics
    ///
    /// Panics if `key` is already cached (callers must `lookup` first) or
    /// if the offset is not page aligned.
    pub async fn create(&self, key: PageKey) -> PageId {
        self.create_traced(key, 0, SpanId::NONE).await
    }

    /// [`PageCache::create`], recording any allocation stall (waiting for
    /// the pageout daemon to free memory) as a retroactive
    /// `cache.alloc_stall` trace span for `stream` under `parent`.
    pub async fn create_traced(&self, key: PageKey, stream: u32, parent: SpanId) -> PageId {
        self.create_inner(key, stream, parent, true).await
    }

    /// [`PageCache::create_traced`] for a page about to be filled whole
    /// from disk: the frame is **not** zeroed, so until the caller fills
    /// it the page holds whatever its previous identity left there. That
    /// is safe because the page is returned busy and every reader waits
    /// for busy to clear: the caller must overwrite every byte (see
    /// [`PageCache::fill_with`]) before [`PageCache::unbusy`], or destroy
    /// the page with [`PageCache::invalidate_page`] if the fill fails.
    pub async fn create_for_fill(&self, key: PageKey, stream: u32, parent: SpanId) -> PageId {
        self.create_inner(key, stream, parent, false).await
    }

    async fn create_inner(&self, key: PageKey, stream: u32, parent: SpanId, zero: bool) -> PageId {
        assert_eq!(
            key.offset % self.inner.params.page_size as u64,
            0,
            "page offset must be page aligned"
        );
        assert!(
            self.inner.hash.borrow().get(&key).is_none(),
            "create of already-cached page {key:?}"
        );
        let start = self.inner.sim.now();
        let mut stalled = false;
        let idx = loop {
            let candidate = {
                let mut pages = self.inner.pages.borrow_mut();
                self.inner.free.borrow_mut().pop_front(&mut pages)
            };
            match candidate {
                Some(idx) => {
                    self.sync_free_gauge();
                    break idx;
                }
                None => {
                    if !stalled {
                        stalled = true;
                        self.inner.stats.borrow_mut().alloc_stalls += 1;
                        self.inner.metrics.alloc_stalls.inc();
                    }
                    // Out of memory: kick the daemon and wait for a free.
                    self.inner.pressure_notify.notify_all();
                    self.inner.mem_notify.wait().await;
                }
            }
        };
        if stalled {
            let now = self.inner.sim.now();
            let waited = now.duration_since(start);
            self.inner.stats.borrow_mut().alloc_stall_time += waited;
            self.inner.metrics.alloc_stall_ns.add(waited.as_nanos());
            self.inner
                .sim
                .tracer()
                .record("cache.alloc_stall", stream, parent, start, now);
        }
        {
            let mut pages = self.inner.pages.borrow_mut();
            let page = &mut pages[idx];
            debug_assert!(!page.busy, "free page cannot be busy");
            debug_assert!(!page.dirty, "free page cannot be dirty");
            // Destroy the old identity (the reuse that ends reclaimability).
            let recycled = page.key.take();
            if let Some(old) = recycled {
                self.inner.hash.borrow_mut().remove(&old);
                self.inner.stats.borrow_mut().destroys += 1;
                self.inner.metrics.destroys.inc();
            }
            page.key = Some(key);
            page.generation += 1;
            page.on_free_list = false;
            page.busy = true;
            page.dirty = false;
            page.referenced = true;
            if zero {
                page.data.fill(0);
            }
            self.inner.hash.borrow_mut().insert(key, idx);
            self.inner.stats.borrow_mut().creates += 1;
            self.inner.metrics.creates.inc();
            let generation = page.generation;
            drop(pages);
            if let Some(old) = recycled {
                self.fire_recycle(old);
            }
            self.maybe_signal_pressure();
            PageId { idx, generation }
        }
    }

    fn maybe_signal_pressure(&self) {
        if self.free_count() < self.inner.params.lotsfree {
            self.inner.pressure_notify.notify_all();
        }
    }

    /// Waits until the page is not busy, then marks it busy (exclusive
    /// I/O-side lock). Resolves to `false` if the page's identity was
    /// recycled while waiting (the caller should forget the page).
    pub fn lock_busy(&self, id: PageId) -> LockBusy {
        self.check(id);
        LockBusy {
            cache: self.clone(),
            id,
        }
    }

    /// Waits until the page is not busy without acquiring it (used to wait
    /// out someone else's I/O, e.g. a fault on a page being read ahead).
    ///
    /// Tolerates recycled identities: if the page was reused (its
    /// generation changed), the wait resolves immediately — callers must
    /// re-lookup afterwards if they need the page itself.
    pub fn wait_unbusy(&self, id: PageId) -> WaitUnbusy {
        WaitUnbusy {
            cache: self.clone(),
            id,
        }
    }

    /// Whether `id` still names the same page (its identity has not been
    /// recycled).
    pub fn is_current(&self, id: PageId) -> bool {
        self.inner.pages.borrow()[id.idx].generation == id.generation
    }

    /// Clears busy and wakes waiters.
    pub fn unbusy(&self, id: PageId) {
        self.check(id);
        let mut pages = self.inner.pages.borrow_mut();
        let page = &mut pages[id.idx];
        assert!(page.busy, "unbusy of non-busy page");
        page.busy = false;
        for w in page.waiters.drain(..) {
            w.wake();
        }
    }

    /// Whether the page is currently busy.
    pub fn is_busy(&self, id: PageId) -> bool {
        self.check(id);
        self.inner.pages.borrow()[id.idx].busy
    }

    /// Marks the page modified (and indexes it under its vnode so
    /// [`PageCache::dirty_offsets`] needs no scan).
    pub fn mark_dirty(&self, id: PageId) {
        self.check(id);
        let mut pages = self.inner.pages.borrow_mut();
        if pages[id.idx].dirty {
            return;
        }
        // The page may have drifted onto the free list (e.g. a concurrent
        // cleaner wrote it out and freed it while this writer held no busy
        // lock). A dirty page must never be reusable, so reclaim it here —
        // otherwise a later allocation would pop it and discard the update.
        if pages[id.idx].on_free_list {
            self.inner.free.borrow_mut().unlink(&mut pages, id.idx);
            pages[id.idx].on_free_list = false;
            self.inner.stats.borrow_mut().reclaims += 1;
            self.inner.metrics.reclaims.inc();
            self.sync_free_gauge();
        }
        let page = &mut pages[id.idx];
        page.dirty = true;
        let key = page.key.expect("dirtying a page with no identity");
        if self
            .inner
            .dirty
            .borrow_mut()
            .entry(key.vnode)
            .or_default()
            .insert(key.offset)
        {
            self.inner.metrics.dirty_pages.add(1.0);
        }
    }

    /// Clears the modified flag (after a successful write to backing store).
    pub fn clear_dirty(&self, id: PageId) {
        self.check(id);
        let mut pages = self.inner.pages.borrow_mut();
        let page = &mut pages[id.idx];
        if !page.dirty {
            return;
        }
        page.dirty = false;
        if let Some(key) = page.key {
            self.remove_dirty_entry(key);
        }
    }

    /// Drops `key` from the per-vnode dirty index.
    fn remove_dirty_entry(&self, key: PageKey) {
        let mut dirty = self.inner.dirty.borrow_mut();
        if let Some(set) = dirty.get_mut(&key.vnode) {
            if set.remove(&key.offset) {
                self.inner.metrics.dirty_pages.add(-1.0);
            }
            if set.is_empty() {
                dirty.remove(&key.vnode);
            }
        }
    }

    /// Whether the page is dirty.
    pub fn is_dirty(&self, id: PageId) -> bool {
        self.check(id);
        self.inner.pages.borrow()[id.idx].dirty
    }

    /// Sets the simulated hardware reference bit (a touch).
    pub fn set_referenced(&self, id: PageId) {
        self.check(id);
        self.inner.pages.borrow_mut()[id.idx].referenced = true;
    }

    /// Runs `f` over the page contents without copying. This (plus
    /// [`PageCache::read_at`] for copy-into-caller-buffer access) replaced
    /// the old whole-page-cloning `read_page`; nothing on the I/O path
    /// allocates or copies 8 KB per page anymore.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> R {
        self.check(id);
        f(&self.inner.pages.borrow()[id.idx].data)
    }

    /// Alias of [`PageCache::with_page`] (the original borrow-based name).
    pub fn with_data<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> R {
        self.with_page(id, f)
    }

    /// Runs `f` over the whole page frame, mutably — how a completed read
    /// fills a page straight from the device's data view. Like
    /// [`PageCache::write_at`] it does not set the dirty flag.
    pub fn fill_with<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.check(id);
        f(&mut self.inner.pages.borrow_mut()[id.idx].data)
    }

    /// Overwrites page bytes at `off` (does NOT set the dirty flag — the
    /// caller decides, since fills from disk are not modifications).
    pub fn write_at(&self, id: PageId, off: usize, src: &[u8]) {
        self.check(id);
        let mut pages = self.inner.pages.borrow_mut();
        let data = &mut pages[id.idx].data;
        assert!(off + src.len() <= data.len(), "write beyond page");
        data[off..off + src.len()].copy_from_slice(src);
    }

    /// Reads page bytes at `off` into `dst`.
    pub fn read_at(&self, id: PageId, off: usize, dst: &mut [u8]) {
        self.check(id);
        let pages = self.inner.pages.borrow();
        let data = &pages[id.idx].data;
        assert!(off + dst.len() <= data.len(), "read beyond page");
        dst.copy_from_slice(&data[off..off + dst.len()]);
    }

    /// Returns the page to the free list, keeping its identity so it can be
    /// reclaimed until reused.
    ///
    /// # Panics
    ///
    /// Panics if the page is busy or dirty — dirty pages must be cleaned
    /// before they are freed.
    pub fn free_page(&self, id: PageId) {
        self.check(id);
        let mut pages = self.inner.pages.borrow_mut();
        assert!(!pages[id.idx].busy, "freeing a busy page");
        assert!(!pages[id.idx].dirty, "freeing a dirty page");
        if pages[id.idx].on_free_list {
            return; // Idempotent.
        }
        pages[id.idx].referenced = false;
        pages[id.idx].on_free_list = true;
        self.inner.free.borrow_mut().push_back(&mut pages, id.idx);
        drop(pages);
        self.sync_free_gauge();
        self.inner.stats.borrow_mut().frees += 1;
        self.inner.metrics.frees.inc();
        self.inner.mem_notify.notify_all();
    }

    /// Destroys one page's identity — the failed-read path. The page was
    /// created busy for a transfer that never delivered data, so its
    /// contents are garbage and no later lookup may find it. Unlike
    /// [`PageCache::invalidate_vnode`] the page may be busy (it usually
    /// is): busy is cleared and waiters woken — they observe the recycled
    /// generation and re-fault.
    pub fn invalidate_page(&self, id: PageId) {
        self.check(id);
        let mut pages = self.inner.pages.borrow_mut();
        let key = pages[id.idx].key.take();
        if pages[id.idx].dirty {
            pages[id.idx].dirty = false;
            if let Some(k) = key {
                self.remove_dirty_entry(k);
            }
        }
        pages[id.idx].generation += 1;
        pages[id.idx].referenced = false;
        pages[id.idx].busy = false;
        for w in pages[id.idx].waiters.drain(..).collect::<Vec<_>>() {
            w.wake();
        }
        let was_free = pages[id.idx].on_free_list;
        pages[id.idx].on_free_list = true;
        if !was_free {
            self.inner.free.borrow_mut().push_back(&mut pages, id.idx);
        }
        drop(pages);
        if let Some(k) = key {
            self.inner.hash.borrow_mut().remove(&k);
            self.fire_recycle(k);
        }
        if !was_free {
            self.sync_free_gauge();
            self.inner.mem_notify.notify_all();
        }
        self.inner.stats.borrow_mut().destroys += 1;
        self.inner.metrics.destroys.inc();
    }

    /// Destroys the identity of every page of `vnode` with offset ≥ `from`
    /// (truncate/unlink). Pages must not be busy.
    pub fn invalidate_vnode(&self, vnode: VnodeId, from: u64) {
        let mut victims: Vec<(PageKey, usize)> = self
            .inner
            .hash
            .borrow()
            .iter()
            .filter(|(k, _)| k.vnode == vnode && k.offset >= from)
            .map(|(k, &i)| (*k, i))
            .collect();
        // Free pages in ascending offset order, not hash-iteration order:
        // the free list feeds page reuse, so a hash-dependent order here
        // would leak into which physical page holds which identity — and
        // from there into pageout-daemon scan counts — making the
        // simulation depend on the hasher and the table's history.
        victims.sort_unstable_by_key(|&(k, _)| k.offset);
        for (key, idx) in victims {
            let mut pages = self.inner.pages.borrow_mut();
            assert!(!pages[idx].busy, "invalidating a busy page");
            if pages[idx].dirty {
                self.remove_dirty_entry(key);
            }
            pages[idx].key = None;
            pages[idx].generation += 1;
            pages[idx].dirty = false;
            pages[idx].referenced = false;
            let was_free = pages[idx].on_free_list;
            pages[idx].on_free_list = true;
            if !was_free {
                self.inner.free.borrow_mut().push_back(&mut pages, idx);
            }
            drop(pages);
            self.inner.hash.borrow_mut().remove(&key);
            self.fire_recycle(key);
            if !was_free {
                self.sync_free_gauge();
                self.inner.mem_notify.notify_all();
            }
            self.inner.stats.borrow_mut().destroys += 1;
            self.inner.metrics.destroys.inc();
        }
    }

    /// Offsets of all dirty pages belonging to `vnode`, sorted ascending
    /// (used by fsync and inode deactivation). Served from the per-vnode
    /// dirty index — O(dirty pages of this vnode), not a whole-cache scan.
    pub fn dirty_offsets(&self, vnode: VnodeId) -> Vec<u64> {
        self.inner
            .dirty
            .borrow()
            .get(&vnode)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Number of resident (identified, not-free) pages.
    pub fn resident_count(&self) -> usize {
        let pages = self.inner.pages.borrow();
        pages
            .iter()
            .filter(|p| p.key.is_some() && !p.on_free_list)
            .count()
    }

    /// Number of resident pages belonging to `vnode` (cache-survival
    /// experiments).
    pub fn resident_of(&self, vnode: VnodeId) -> usize {
        let pages = self.inner.pages.borrow();
        pages
            .iter()
            .filter(|p| !p.on_free_list && p.key.map(|k| k.vnode == vnode).unwrap_or(false))
            .count()
    }

    // ---- pageout daemon access (crate-internal) ----

    pub(crate) fn scan_snapshot(&self, idx: usize) -> (Option<PageKey>, bool, bool, bool, bool) {
        let pages = self.inner.pages.borrow();
        let p = &pages[idx];
        (p.key, p.busy, p.dirty, p.referenced, p.on_free_list)
    }

    pub(crate) fn clear_referenced_at(&self, idx: usize) {
        self.inner.pages.borrow_mut()[idx].referenced = false;
    }

    /// Back-hand free attempt; returns `true` if the page was freed.
    pub(crate) fn try_free_at(&self, idx: usize) -> bool {
        let mut pages = self.inner.pages.borrow_mut();
        let p = &pages[idx];
        if p.busy || p.dirty || p.referenced || p.on_free_list || p.key.is_none() {
            return false;
        }
        pages[idx].on_free_list = true;
        self.inner.free.borrow_mut().push_back(&mut pages, idx);
        drop(pages);
        self.sync_free_gauge();
        self.inner.stats.borrow_mut().frees += 1;
        self.inner.metrics.frees.inc();
        self.inner.mem_notify.notify_all();
        true
    }

    /// Validates internal invariants (tests only; O(pages)).
    pub fn assert_consistent(&self) {
        let pages = self.inner.pages.borrow();
        let hash = self.inner.hash.borrow();
        let free = self.inner.free.borrow();
        let dirty = self.inner.dirty.borrow();
        for (key, &idx) in hash.iter() {
            assert_eq!(pages[idx].key, Some(*key), "hash points at wrong page");
        }
        // Walk the intrusive free list, checking links and flags.
        let mut seen = std::collections::HashSet::new();
        let mut idx = free.head;
        let mut prev = NIL;
        while idx != NIL {
            assert!(seen.insert(idx), "page {idx} on free list twice");
            assert_eq!(pages[idx].free_prev, prev, "free list back-link broken");
            assert!(pages[idx].on_free_list, "free list flag mismatch");
            assert!(!pages[idx].busy, "busy page on free list");
            assert!(!pages[idx].dirty, "dirty page on free list");
            prev = idx;
            idx = pages[idx].free_next;
        }
        assert_eq!(free.tail, prev, "free list tail mismatch");
        assert_eq!(free.len, seen.len(), "free list length mismatch");
        for (idx, p) in pages.iter().enumerate() {
            if p.on_free_list {
                assert!(seen.contains(&idx), "flagged free but not listed");
            } else {
                assert!(
                    p.free_prev == NIL && p.free_next == NIL,
                    "off-list page still linked"
                );
            }
            if let Some(k) = p.key {
                assert_eq!(hash.get(&k), Some(&idx), "page identity not hashed");
                assert_eq!(
                    p.dirty,
                    dirty.get(&k.vnode).is_some_and(|s| s.contains(&k.offset)),
                    "dirty index out of sync for {k:?}"
                );
            }
        }
        let indexed: usize = dirty.values().map(|s| s.len()).sum();
        let actually_dirty = pages.iter().filter(|p| p.dirty).count();
        assert_eq!(indexed, actually_dirty, "dirty index size mismatch");
    }
}

/// Future returned by [`PageCache::lock_busy`].
pub struct LockBusy {
    cache: PageCache,
    id: PageId,
}

impl Future for LockBusy {
    type Output = bool;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        let mut pages = self.cache.inner.pages.borrow_mut();
        let page = &mut pages[self.id.idx];
        if page.generation != self.id.generation {
            // Recycled while we waited: the page we wanted no longer exists.
            return Poll::Ready(false);
        }
        if page.busy {
            page.waiters.push(cx.waker().clone());
            Poll::Pending
        } else {
            // The page may have drifted onto the free list while this lock
            // waited (e.g. a concurrent cleaner freed it after its own
            // write). A busy page must never sit on the free list, so
            // reclaim it here.
            let reclaimed = page.on_free_list;
            if reclaimed {
                self.cache
                    .inner
                    .free
                    .borrow_mut()
                    .unlink(&mut pages, self.id.idx);
                pages[self.id.idx].on_free_list = false;
            }
            pages[self.id.idx].busy = true;
            drop(pages);
            if reclaimed {
                self.cache.inner.stats.borrow_mut().reclaims += 1;
                self.cache.inner.metrics.reclaims.inc();
            }
            Poll::Ready(true)
        }
    }
}

/// Future returned by [`PageCache::wait_unbusy`].
pub struct WaitUnbusy {
    cache: PageCache,
    id: PageId,
}

impl Future for WaitUnbusy {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut pages = self.cache.inner.pages.borrow_mut();
        let page = &mut pages[self.id.idx];
        if page.generation != self.id.generation {
            // The page was recycled while we waited — it is certainly not
            // busy on our behalf anymore.
            return Poll::Ready(());
        }
        if page.busy {
            page.waiters.push(cx.waker().clone());
            Poll::Pending
        } else {
            Poll::Ready(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sim: &Sim) -> PageCache {
        PageCache::new(sim, PageCacheParams::small_test())
    }

    fn key(v: VnodeId, off: u64) -> PageKey {
        PageKey {
            vnode: v,
            offset: off,
        }
    }

    #[test]
    fn create_lookup_roundtrip() {
        let sim = Sim::new();
        let pc = cache(&sim);
        let pc2 = pc.clone();
        sim.run_until(async move {
            let id = pc2.create(key(1, 0)).await;
            pc2.write_at(id, 0, b"hello");
            pc2.unbusy(id);
            let found = pc2.lookup(key(1, 0)).expect("cached");
            assert_eq!(found, id);
            pc2.with_data(found, |d| assert_eq!(&d[..5], b"hello"));
            assert!(pc2.lookup(key(1, 8192)).is_none());
            pc2.assert_consistent();
        });
        let st = pc.stats();
        assert_eq!(st.creates, 1);
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
    }

    #[test]
    fn fill_creates_skip_zeroing_and_stay_busy_until_filled() {
        let sim = Sim::new();
        // One frame, so every create recycles it.
        let pc = PageCache::new(
            &sim,
            PageCacheParams {
                total_pages: 1,
                page_size: 8192,
                lotsfree: 0,
            },
        );
        let pc2 = pc.clone();
        sim.run_until(async move {
            let id = pc2.create(key(1, 0)).await;
            pc2.write_at(id, 0, &[0xab; 8192]);
            pc2.unbusy(id);
            pc2.free_page(id);
            // The fill create leaves the old bytes; busy keeps them unseen.
            let id = pc2.create_for_fill(key(2, 0), 0, SpanId::NONE).await;
            assert!(pc2.is_busy(id));
            pc2.with_page(id, |d| assert!(d.iter().all(|&b| b == 0xab)));
            pc2.fill_with(id, |frame| frame.fill(0x5c));
            pc2.unbusy(id);
            let found = pc2.lookup(key(2, 0)).expect("filled page cached");
            pc2.with_page(found, |d| assert!(d.iter().all(|&b| b == 0x5c)));
            pc2.free_page(found);
            // A failed fill destroys the page; the next plain create zeroes.
            let id = pc2.create_for_fill(key(3, 0), 0, SpanId::NONE).await;
            pc2.invalidate_page(id);
            assert!(pc2.lookup(key(3, 0)).is_none(), "failed fill left a name");
            let id = pc2.create(key(4, 0)).await;
            pc2.with_page(id, |d| assert!(d.iter().all(|&b| b == 0)));
            pc2.unbusy(id);
            pc2.assert_consistent();
        });
    }

    #[test]
    fn free_then_reclaim_keeps_contents() {
        let sim = Sim::new();
        let pc = cache(&sim);
        let pc2 = pc.clone();
        sim.run_until(async move {
            let id = pc2.create(key(1, 0)).await;
            pc2.write_at(id, 0, b"data");
            pc2.unbusy(id);
            pc2.free_page(id);
            assert_eq!(pc2.free_count(), 32);
            // Reclaim: the identity survived the free.
            let back = pc2.lookup(key(1, 0)).expect("reclaimable");
            pc2.with_data(back, |d| assert_eq!(&d[..4], b"data"));
            assert_eq!(pc2.free_count(), 31);
            pc2.assert_consistent();
        });
        assert_eq!(pc.stats().reclaims, 1);
    }

    #[test]
    fn mark_dirty_reclaims_from_free_list() {
        let sim = Sim::new();
        let pc = cache(&sim);
        let pc2 = pc.clone();
        sim.run_until(async move {
            let id = pc2.create(key(1, 0)).await;
            pc2.write_at(id, 0, b"v1");
            pc2.unbusy(id);
            // A cleaner wrote the page out and freed it...
            pc2.free_page(id);
            assert_eq!(pc2.free_count(), 32);
            // ...then a writer who still held the PageId re-dirties it.
            // The page must come back off the free list, or a later
            // allocation would pop it dirty and discard the update.
            pc2.mark_dirty(id);
            assert_eq!(pc2.free_count(), 31);
            assert_eq!(pc2.dirty_offsets(1), vec![0]);
            // Churn through every free page: none may come up dirty.
            for i in 0..31u64 {
                let n = pc2.create(key(2, i * 8192)).await;
                pc2.unbusy(n);
            }
            assert!(pc2.is_current(id), "dirty page must not be recycled");
            pc2.assert_consistent();
        });
        assert_eq!(pc.stats().reclaims, 1);
    }

    #[test]
    fn reuse_destroys_old_identity() {
        let sim = Sim::new();
        let pc = cache(&sim);
        let pc2 = pc.clone();
        sim.run_until(async move {
            // Fill all 32 pages for vnode 1, freeing each.
            let mut ids = Vec::new();
            for i in 0..32u64 {
                let id = pc2.create(key(1, i * 8192)).await;
                pc2.unbusy(id);
                ids.push(id);
            }
            for id in ids {
                pc2.free_page(id);
            }
            // Allocate one page for vnode 2: reuses the oldest free page,
            // which was vnode 1 offset 0.
            let id2 = pc2.create(key(2, 0)).await;
            pc2.unbusy(id2);
            assert!(
                pc2.lookup(key(1, 0)).is_none(),
                "reused page lost its old identity"
            );
            assert!(pc2.lookup(key(1, 8192)).is_some(), "others reclaimable");
            pc2.assert_consistent();
        });
        assert!(pc.stats().destroys >= 1);
    }

    #[test]
    fn stale_page_id_panics() {
        let sim = Sim::new();
        let pc = cache(&sim);
        let pc2 = pc.clone();
        let stale = sim.run_until(async move {
            let mut last = None;
            for i in 0..33u64 {
                // One more than capacity: forces reuse.
                if let Some(id) = last.take() {
                    pc2.unbusy(id);
                    pc2.free_page(id);
                }
                last = Some(pc2.create(key(1, i * 8192)).await);
            }
            pc2.lookup(key(1, 0)) // Offset 0 was reused by offset 32*8192.
        });
        assert!(stale.is_none(), "identity gone after reuse");
    }

    #[test]
    fn alloc_stalls_until_free() {
        let sim = Sim::new();
        let pc = cache(&sim);
        // Fill memory with busy pages (cannot be stolen).
        let pc2 = pc.clone();
        let s = sim.clone();
        sim.run_until(async move {
            let mut ids = Vec::new();
            for i in 0..32u64 {
                ids.push(pc2.create(key(1, i * 8192)).await);
            }
            // A second task frees one page at t = 3 ms.
            let pc3 = pc2.clone();
            let s2 = s.clone();
            let first = ids[0];
            s.spawn(async move {
                s2.sleep(SimDuration::from_millis(3)).await;
                pc3.unbusy(first);
                pc3.free_page(first);
            });
            // This create must wait for that free.
            let id = pc2.create(key(2, 0)).await;
            assert_eq!(s.now().as_nanos(), 3_000_000);
            pc2.unbusy(id);
        });
        let st = pc.stats();
        assert_eq!(st.alloc_stalls, 1);
        assert_eq!(st.alloc_stall_time, SimDuration::from_millis(3));
    }

    #[test]
    fn lock_busy_waits_for_io() {
        let sim = Sim::new();
        let pc = cache(&sim);
        let pc2 = pc.clone();
        let s = sim.clone();
        sim.run_until(async move {
            let id = pc2.create(key(1, 0)).await; // Busy (being filled).
            let pc3 = pc2.clone();
            let s2 = s.clone();
            s.spawn(async move {
                s2.sleep(SimDuration::from_millis(2)).await;
                pc3.unbusy(id); // "I/O complete."
            });
            pc2.lock_busy(id).await;
            assert_eq!(s.now().as_nanos(), 2_000_000);
            assert!(pc2.is_busy(id));
            pc2.unbusy(id);
        });
    }

    #[test]
    fn dirty_offsets_sorted() {
        let sim = Sim::new();
        let pc = cache(&sim);
        let pc2 = pc.clone();
        sim.run_until(async move {
            for off in [3u64, 0, 2] {
                let id = pc2.create(key(9, off * 8192)).await;
                pc2.mark_dirty(id);
                pc2.unbusy(id);
            }
            let id = pc2.create(key(9, 4 * 8192)).await;
            pc2.unbusy(id); // Clean.
            assert_eq!(pc2.dirty_offsets(9), vec![0, 2 * 8192, 3 * 8192]);
        });
    }

    #[test]
    fn invalidate_vnode_truncates() {
        let sim = Sim::new();
        let pc = cache(&sim);
        let pc2 = pc.clone();
        sim.run_until(async move {
            for off in 0..4u64 {
                let id = pc2.create(key(5, off * 8192)).await;
                pc2.mark_dirty(id);
                pc2.unbusy(id);
            }
            pc2.invalidate_vnode(5, 2 * 8192);
            assert!(pc2.lookup(key(5, 0)).is_some());
            assert!(pc2.lookup(key(5, 8192)).is_some());
            assert!(pc2.lookup(key(5, 2 * 8192)).is_none());
            assert!(pc2.lookup(key(5, 3 * 8192)).is_none());
            pc2.assert_consistent();
        });
    }

    #[test]
    #[should_panic(expected = "freeing a dirty page")]
    fn freeing_dirty_page_panics() {
        let sim = Sim::new();
        let pc = cache(&sim);
        let pc2 = pc.clone();
        sim.run_until(async move {
            let id = pc2.create(key(1, 0)).await;
            pc2.mark_dirty(id);
            pc2.unbusy(id);
            pc2.free_page(id);
        });
    }

    #[test]
    fn resident_of_counts_per_vnode() {
        let sim = Sim::new();
        let pc = cache(&sim);
        let pc2 = pc.clone();
        sim.run_until(async move {
            for off in 0..3u64 {
                let id = pc2.create(key(1, off * 8192)).await;
                pc2.unbusy(id);
            }
            let id = pc2.create(key(2, 0)).await;
            pc2.unbusy(id);
            assert_eq!(pc2.resident_of(1), 3);
            assert_eq!(pc2.resident_of(2), 1);
            assert_eq!(pc2.resident_count(), 4);
        });
    }
}
