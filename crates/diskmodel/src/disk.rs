//! The drive mechanism: a single server that seeks, waits for rotation, and
//! transfers, advancing the virtual clock through each phase.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simkit::stats::{Counter, Histogram, NameId, StatsRegistry, TimeWeighted};
use simkit::{Notify, Sim, SimDuration, SpanId};

use crate::device::BlockDevice;
use crate::geometry::Geometry;
use crate::queue::{DiskQueue, Queued};
use crate::request::{new_handle, DiskOp, DiskRequest, IoHandle, IoResult, IoStatus};
use crate::store::{DataView, SectorStore};
use crate::trackbuf::{BufProbe, TrackBuf};

/// Seek time model: `min + factor * sqrt(distance_in_cylinders)` ms.
#[derive(Clone, Copy, Debug)]
pub struct SeekModel {
    /// Settle + single-track seek, milliseconds.
    pub min_ms: f64,
    /// Multiplies the square root of the cylinder distance, milliseconds.
    pub factor_ms: f64,
}

impl SeekModel {
    /// A 1990-vintage drive: ~3 ms track-to-track, ~25 ms full stroke.
    pub fn vintage_1990() -> SeekModel {
        SeekModel {
            min_ms: 2.5,
            factor_ms: 0.6,
        }
    }

    /// Seek duration for a move of `distance` cylinders (0 → zero).
    pub fn time(&self, distance: u32) -> SimDuration {
        if distance == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_millis_f64(self.min_ms + self.factor_ms * (distance as f64).sqrt())
        }
    }
}

/// Full configuration of a simulated drive.
#[derive(Clone, Debug)]
pub struct DiskParams {
    /// Physical layout.
    pub geometry: Geometry,
    /// Arm movement model.
    pub seek: SeekModel,
    /// Time to switch between heads on the same cylinder.
    pub head_switch: SimDuration,
    /// Fixed controller/command overhead per request batch.
    pub controller_overhead: SimDuration,
    /// Whether the controller has a one-track read buffer.
    pub track_buffer: bool,
    /// Host transfer rate for track-buffer hits, bytes per second.
    pub bus_rate: f64,
    /// When set, the driver coalesces physically contiguous queued requests
    /// into one transfer of at most this many sectors ("driver clustering").
    pub coalesce_limit: Option<u32>,
    /// When `false`, requests are serviced strictly in submission order
    /// (no `disksort`) — some drivers "depend on intelligent controllers"
    /// instead; modeled as FIFO here.
    pub use_disksort: bool,
}

impl DiskParams {
    /// The paper's measurement drive: 400 MB SCSI with a track buffer.
    pub fn sun0424() -> DiskParams {
        DiskParams {
            geometry: Geometry::sun_scsi_400mb(),
            seek: SeekModel::vintage_1990(),
            head_switch: SimDuration::from_micros(700),
            controller_overhead: SimDuration::from_micros(800),
            track_buffer: true,
            bus_rate: 5.0e6, // Synchronous SCSI-1 host transfer.
            coalesce_limit: None,
            use_disksort: true,
        }
    }

    /// Same drive without a track buffer ("not all drives have track
    /// buffers").
    pub fn sun0424_no_track_buffer() -> DiskParams {
        DiskParams {
            track_buffer: false,
            ..Self::sun0424()
        }
    }

    /// A small, fast-to-simulate drive for unit tests.
    pub fn small_test() -> DiskParams {
        DiskParams {
            geometry: Geometry::small_test(),
            seek: SeekModel::vintage_1990(),
            head_switch: SimDuration::from_millis(1),
            controller_overhead: SimDuration::from_micros(500),
            track_buffer: true,
            bus_rate: 4.0e6,
            coalesce_limit: None,
            use_disksort: true,
        }
    }
}

/// Aggregate drive statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskStats {
    /// Read requests completed (after any coalescing).
    pub reads: u64,
    /// Write requests completed (after any coalescing).
    pub writes: u64,
    /// Sectors transferred from media or buffer to host.
    pub sectors_read: u64,
    /// Sectors transferred to media.
    pub sectors_written: u64,
    /// Total arm seek time.
    pub seek_time: SimDuration,
    /// Number of non-zero seeks.
    pub seeks: u64,
    /// Rotational latency waited (excludes transfer).
    pub rot_wait: SimDuration,
    /// Media/bus transfer time.
    pub transfer_time: SimDuration,
    /// Reads fully served from the track buffer.
    pub trackbuf_hits: u64,
    /// Reads that had to touch the media.
    pub trackbuf_misses: u64,
    /// Requests merged away by driver clustering.
    pub coalesced: u64,
    /// Total time requests spent queued before service began.
    pub queue_wait: SimDuration,
    /// Time the mechanism was busy (any service phase).
    pub busy: SimDuration,
}

/// Registry handles mirroring [`DiskStats`] into `sim.stats()` under the
/// `disk.*` namespace (schema: DESIGN.md "Observability").
struct DiskMetrics {
    reads: Counter,
    writes: Counter,
    sectors_read: Counter,
    sectors_written: Counter,
    seeks: Counter,
    seek_distance: Histogram,
    seek_time_ns: Counter,
    rot_wait_ns: Counter,
    transfer_time_ns: Counter,
    trackbuf_hits: Counter,
    trackbuf_misses: Counter,
    coalesced: Counter,
    queue_wait_ns: Counter,
    busy_ns: Counter,
    queue_depth: TimeWeighted,
    /// Registry handle for lazily materialized per-stream counters.
    registry: StatsRegistry,
    /// Interned base names for the per-stream counters below: the
    /// per-sub-request attribution path resolves `base{stream=N}` through
    /// the registry's integer-hash interned table instead of formatting
    /// and re-hashing a `String` key per I/O. Sectors are attributed per
    /// sub-request, so the per-stream counters sum to the global
    /// `disk.sectors_*` exactly. Each stream present in a serviced batch
    /// is charged the batch's full service interval — the same interval
    /// its `disk.service` span covers — so per-stream span sums and the
    /// `disk.busy_ns{stream=N}` counters agree exactly. (A coalesced
    /// batch that mixes streams charges the interval to each stream, so
    /// the per-stream values can exceed the global `disk.busy_ns`.)
    sectors_read_id: NameId,
    sectors_written_id: NameId,
    busy_ns_id: NameId,
    /// Set when this drive is one spindle of a volume: mirrors busy time
    /// and sector counts into `disk.*{spindle=K}`, so an array's traffic
    /// can be attributed per leg. The `spindle=K` family sums exactly to
    /// the global `disk.busy_ns`/`disk.sectors_*` when every drive in the
    /// sim is labelled (each batch is charged to exactly one spindle).
    spindle: Option<SpindleMetrics>,
}

/// Per-spindle mirrors of the hot counters (see [`DiskMetrics::spindle`]).
struct SpindleMetrics {
    busy_ns: Counter,
    sectors_read: Counter,
    sectors_written: Counter,
    /// Per-leg `disk.queue_depth{spindle=K}`: the shared global gauge
    /// mixes every spindle of an array together, which hides a single
    /// hot leg; the telemetry sampler reads this one per drive.
    queue_depth: TimeWeighted,
}

impl DiskMetrics {
    /// Cylinder-distance buckets: track-to-track up to a full stroke.
    const SEEK_DIST_EDGES: [u64; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 512, 2048];

    fn new(sim: &Sim, spindle: Option<u32>) -> DiskMetrics {
        let s = sim.stats();
        let spindle = spindle.map(|k| SpindleMetrics {
            busy_ns: s.labelled_counter("disk.busy_ns", "spindle", k),
            sectors_read: s.labelled_counter("disk.sectors_read", "spindle", k),
            sectors_written: s.labelled_counter("disk.sectors_written", "spindle", k),
            queue_depth: s.time_weighted(&StatsRegistry::labelled_name(
                "disk.queue_depth",
                "spindle",
                k,
            )),
        });
        DiskMetrics {
            spindle,
            reads: s.counter("disk.reads"),
            writes: s.counter("disk.writes"),
            sectors_read: s.counter("disk.sectors_read"),
            sectors_written: s.counter("disk.sectors_written"),
            seeks: s.counter("disk.seeks"),
            seek_distance: s.histogram("disk.seek_distance_cyls", &Self::SEEK_DIST_EDGES),
            seek_time_ns: s.counter("disk.seek_time_ns"),
            rot_wait_ns: s.counter("disk.rot_wait_ns"),
            transfer_time_ns: s.counter("disk.transfer_time_ns"),
            trackbuf_hits: s.counter("disk.trackbuf_hits"),
            trackbuf_misses: s.counter("disk.trackbuf_misses"),
            coalesced: s.counter("disk.requests_coalesced"),
            queue_wait_ns: s.counter("disk.queue_wait_ns"),
            busy_ns: s.counter("disk.busy_ns"),
            queue_depth: s.time_weighted("disk.queue_depth"),
            sectors_read_id: s.intern("disk.sectors_read"),
            sectors_written_id: s.intern("disk.sectors_written"),
            busy_ns_id: s.intern("disk.busy_ns"),
            registry: s.clone(),
        }
    }

    fn stream_sectors(&self, stream: u32, op: DiskOp) -> Counter {
        let base = match op {
            DiskOp::Read => self.sectors_read_id,
            DiskOp::Write => self.sectors_written_id,
        };
        self.registry.stream_counter_id(base, stream)
    }

    fn stream_busy(&self, stream: u32) -> Counter {
        self.registry.stream_counter_id(self.busy_ns_id, stream)
    }
}

struct DiskInner {
    sim: Sim,
    params: DiskParams,
    store: RefCell<SectorStore>,
    queue: RefCell<DiskQueue>,
    notify: Notify,
    cur_cyl: Cell<u32>,
    cur_head: Cell<u32>,
    trackbuf: RefCell<TrackBuf>,
    stats: RefCell<DiskStats>,
    metrics: DiskMetrics,
    shutdown: Cell<bool>,
}

/// A simulated drive. Cloning shares the device.
#[derive(Clone)]
pub struct Disk {
    inner: Rc<DiskInner>,
}

impl Disk {
    /// Creates the drive and spawns its service task on `sim`.
    pub fn new(sim: &Sim, params: DiskParams) -> Disk {
        Self::build(sim, params, None)
    }

    /// [`Disk::new`], additionally labelling the drive as spindle `k` of a
    /// volume: busy time and sector counts are mirrored into
    /// `disk.busy_ns{spindle=K}` / `disk.sectors_*{spindle=K}`.
    pub fn new_spindle(sim: &Sim, params: DiskParams, k: u32) -> Disk {
        Self::build(sim, params, Some(k))
    }

    fn build(sim: &Sim, params: DiskParams, spindle: Option<u32>) -> Disk {
        params.geometry.validate();
        let store = SectorStore::new(params.geometry.sector_size, params.geometry.total_sectors());
        let disk = Disk {
            inner: Rc::new(DiskInner {
                sim: sim.clone(),
                params,
                store: RefCell::new(store),
                queue: RefCell::new(DiskQueue::new()),
                notify: Notify::new(),
                cur_cyl: Cell::new(0),
                cur_head: Cell::new(0),
                trackbuf: RefCell::new(TrackBuf::new()),
                stats: RefCell::new(DiskStats::default()),
                metrics: DiskMetrics::new(sim, spindle),
                shutdown: Cell::new(false),
            }),
        };
        let d = disk.clone();
        sim.spawn(async move { d.service_loop().await });
        disk
    }

    /// The drive's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.inner.params.geometry
    }

    /// The drive's configuration.
    pub fn params(&self) -> &DiskParams {
        &self.inner.params
    }

    async fn service_loop(&self) {
        loop {
            let batch: Option<Vec<Queued>> = {
                let head_lba = self.current_head_lba();
                let mut q = self.inner.queue.borrow_mut();
                if !self.inner.params.use_disksort {
                    // FIFO: emulate by always taking the lowest sequence.
                    q.take_fifo().map(|item| vec![item])
                } else if let Some(limit) = self.inner.params.coalesce_limit {
                    q.take_next_coalesced(head_lba, limit)
                } else {
                    q.take_next(head_lba).map(|item| vec![item])
                }
            };
            match batch {
                Some(batch) => {
                    self.inner.metrics.queue_depth.add(-(batch.len() as f64));
                    if let Some(sp) = &self.inner.metrics.spindle {
                        sp.queue_depth.add(-(batch.len() as f64));
                    }
                    self.service_batch(batch).await
                }
                None => {
                    if self.inner.shutdown.get() {
                        return;
                    }
                    self.inner.notify.wait().await;
                }
            }
        }
    }

    /// LBA corresponding to the arm's current track (sector 0), used as the
    /// elevator position.
    fn current_head_lba(&self) -> u64 {
        let g = &self.inner.params.geometry;
        g.chs_to_lba(crate::geometry::Chs {
            cyl: self.inner.cur_cyl.get(),
            head: self.inner.cur_head.get(),
            sector: 0,
        })
    }

    async fn service_batch(&self, batch: Vec<Queued>) {
        let started = self.inner.sim.now();
        let tracer = self.inner.sim.tracer().clone();
        {
            let mut stats = self.inner.stats.borrow_mut();
            let merged = (batch.len() as u64).saturating_sub(1);
            stats.coalesced += merged;
            self.inner.metrics.coalesced.add(merged);
            for q in &batch {
                let waited = started.duration_since(q.submitted_at);
                stats.queue_wait += waited;
                self.inner.metrics.queue_wait_ns.add(waited.as_nanos());
                // The wait is only known once service begins, so the queue
                // span is recorded retroactively.
                tracer.record(
                    "disk.queue",
                    q.req.stream,
                    q.req.span,
                    q.submitted_at,
                    started,
                );
            }
        }
        let op = batch[0].req.op;
        let span_lba = batch[0].req.lba;
        let span_sectors: u32 = batch.iter().map(|q| q.req.nsect).sum();
        debug_assert!(
            batch
                .windows(2)
                .all(|w| w[0].req.lba + w[0].req.nsect as u64 == w[1].req.lba),
            "batch must be contiguous"
        );
        // One live service span for the whole batch, parented under the
        // first sub-request's originator; additional streams in a coalesced
        // batch get their own retroactive copy below so every stream's
        // service time is visible in its own trace row.
        let svc = tracer.start("disk.service", batch[0].req.stream, batch[0].req.span);
        tracer.arg(svc, "lba", span_lba);
        tracer.arg(svc, "nsect", span_sectors as u64);

        self.inner
            .sim
            .sleep(self.inner.params.controller_overhead)
            .await;

        let span_data = match op {
            DiskOp::Read => {
                let data = self
                    .media_read(span_lba, span_sectors, batch[0].req.stream, svc)
                    .await;
                Some(data)
            }
            DiskOp::Write => {
                self.media_write(span_lba, span_sectors).await;
                // Each sub-request's own payload goes to the platters: a
                // coalesced batch is contiguous, so there is nothing to
                // gather into one buffer first.
                let mut store = self.inner.store.borrow_mut();
                for q in &batch {
                    match q.req.data.as_deref() {
                        Some(d) => store.write(q.req.lba, q.req.nsect, d),
                        None => {
                            // Upstream bug (submit validates this); the
                            // debug build trips, the release build writes
                            // zeros of the right length instead of dying.
                            debug_assert!(false, "write request without payload");
                            let ssz = self.inner.params.geometry.sector_size as usize;
                            let zeros = vec![0; q.req.nsect as usize * ssz];
                            store.write(q.req.lba, q.req.nsect, &zeros);
                        }
                    }
                }
                None
            }
        };

        let finished_at = self.inner.sim.now();
        tracer.end(svc);
        {
            let mut stats = self.inner.stats.borrow_mut();
            let m = &self.inner.metrics;
            stats.busy += finished_at.duration_since(started);
            m.busy_ns
                .add(finished_at.duration_since(started).as_nanos());
            if let Some(sp) = &m.spindle {
                sp.busy_ns
                    .add(finished_at.duration_since(started).as_nanos());
            }
            // Per-stream busy attribution (and service spans for streams a
            // coalesced batch merged in behind batch[0]'s): each distinct
            // stream is charged the full service interval once.
            let mut seen: Vec<u32> = Vec::new();
            for q in &batch {
                if seen.contains(&q.req.stream) {
                    continue;
                }
                seen.push(q.req.stream);
                m.stream_busy(q.req.stream)
                    .add(finished_at.duration_since(started).as_nanos());
                if q.req.stream != batch[0].req.stream {
                    tracer.record(
                        "disk.service",
                        q.req.stream,
                        q.req.span,
                        started,
                        finished_at,
                    );
                }
            }
            match op {
                DiskOp::Read => {
                    stats.reads += 1;
                    stats.sectors_read += span_sectors as u64;
                    m.reads.inc();
                    m.sectors_read.add(span_sectors as u64);
                    if let Some(sp) = &m.spindle {
                        sp.sectors_read.add(span_sectors as u64);
                    }
                }
                DiskOp::Write => {
                    stats.writes += 1;
                    stats.sectors_written += span_sectors as u64;
                    m.writes.inc();
                    m.sectors_written.add(span_sectors as u64);
                    if let Some(sp) = &m.spindle {
                        sp.sectors_written.add(span_sectors as u64);
                    }
                }
            }
            // Attribute sectors per sub-request: a coalesced batch may mix
            // streams, and the per-stream counters must sum to the globals.
            for q in &batch {
                m.stream_sectors(q.req.stream, op).add(q.req.nsect as u64);
            }
        }
        // Complete every sub-request; a coalesced read hands each
        // requester its slice of the batch's view (no bytes copied).
        let ssz = self.inner.params.geometry.sector_size as usize;
        let whole = batch.len() == 1;
        let mut span_data = span_data;
        for q in batch {
            let data = if whole {
                span_data.take()
            } else {
                span_data.as_ref().map(|d| {
                    let off = (q.req.lba - span_lba) as usize * ssz;
                    d.slice(off, q.req.nsect as usize * ssz)
                })
            };
            q.slot.borrow_mut().result = Some(IoResult::ok(data, finished_at));
            q.event.signal();
        }
    }

    /// Rotational positioning: time until the leading edge of angular
    /// `slot` arrives on a track with `spt` sectors.
    ///
    /// Uses the *effective* revolution `spt * sector_time` so the angular
    /// clock is exactly consistent with transfer durations (which advance
    /// in whole sector times); otherwise integer truncation of the sector
    /// time would drift a few ns per revolution and turn every
    /// back-to-back transfer into a full-revolution miss.
    fn rot_wait_to_slot(&self, slot: u32, spt: u32, sector_ns: u64) -> SimDuration {
        let rev_eff = sector_ns * spt as u64;
        let now_in_rev = self.inner.sim.now().as_nanos() % rev_eff;
        let target = slot as u64 * sector_ns;
        let wait = (target + rev_eff - now_in_rev) % rev_eff;
        SimDuration::from_nanos(wait)
    }

    /// Positions the arm for the track holding `chs`, charging seek and
    /// head-switch time and aborting any in-progress buffer fill.
    async fn position(&self, chs: crate::geometry::Chs) {
        let g = &self.inner.params.geometry;
        let moved_cyl = chs.cyl != self.inner.cur_cyl.get();
        let moved_head = chs.head != self.inner.cur_head.get();
        if moved_cyl || moved_head {
            // Leaving the current track ends any fill in progress.
            let leaving = self
                .inner
                .trackbuf
                .borrow()
                .buffered_track()
                .map(|t| {
                    t == g.track_index(crate::geometry::Chs {
                        cyl: self.inner.cur_cyl.get(),
                        head: self.inner.cur_head.get(),
                        sector: 0,
                    })
                })
                .unwrap_or(false);
            if leaving {
                self.inner
                    .trackbuf
                    .borrow_mut()
                    .arm_left_track(self.inner.sim.now());
            }
        }
        if moved_cyl {
            let dist = chs.cyl.abs_diff(self.inner.cur_cyl.get());
            let t = self.inner.params.seek.time(dist);
            self.inner.sim.sleep(t).await;
            let mut stats = self.inner.stats.borrow_mut();
            stats.seek_time += t;
            stats.seeks += 1;
            drop(stats);
            self.inner.metrics.seeks.inc();
            self.inner.metrics.seek_distance.observe(dist as u64);
            self.inner.metrics.seek_time_ns.add(t.as_nanos());
            self.inner.cur_cyl.set(chs.cyl);
        }
        if moved_head || moved_cyl {
            self.inner.sim.sleep(self.inner.params.head_switch).await;
            self.inner.cur_head.set(chs.head);
        }
    }

    async fn media_read(&self, lba: u64, nsect: u32, stream: u32, svc: SpanId) -> DataView {
        let g = self.inner.params.geometry.clone();
        let mut remaining = nsect;
        let mut cur = lba;
        // Host (bus) transfers from the track buffer overlap the
        // mechanism's further motion (DMA): they only delay the request's
        // completion, not subsequent media runs.
        let mut host_until = self.inner.sim.now();
        while remaining > 0 {
            let chs = g.lba_to_chs(cur);
            let run = remaining.min(g.sectors_to_track_end(chs));
            let track = g.track_index(chs);
            let spt = g.spt(chs.cyl);
            let sector_ns = g.sector_time_ns(chs.cyl);

            let probe = if self.inner.params.track_buffer {
                let slots = (0..run).map(|i| {
                    g.angular_slot(crate::geometry::Chs {
                        sector: chs.sector + i,
                        ..chs
                    })
                });
                self.inner.trackbuf.borrow().probe(track, slots)
            } else {
                BufProbe::Miss
            };

            match probe {
                BufProbe::Hit { ready_at } => {
                    self.inner.stats.borrow_mut().trackbuf_hits += 1;
                    self.inner.metrics.trackbuf_hits.inc();
                    if ready_at > self.inner.sim.now() {
                        self.inner.sim.sleep_until(ready_at).await;
                    }
                    // Host transfer from buffer over the bus (overlapped).
                    let bytes = run as u64 * g.sector_size as u64;
                    let bus = SimDuration::from_secs_f64(bytes as f64 / self.inner.params.bus_rate);
                    let start = host_until.max(self.inner.sim.now());
                    host_until = start + bus;
                    self.inner.stats.borrow_mut().transfer_time += bus;
                    self.inner.metrics.transfer_time_ns.add(bus.as_nanos());
                    // The hit's cost is the overlapped bus transfer window.
                    let hit = self.inner.sim.tracer().record(
                        "disk.trackbuf_hit",
                        stream,
                        svc,
                        start,
                        host_until,
                    );
                    self.inner.sim.tracer().arg(hit, "sectors", run as u64);
                }
                BufProbe::Miss => {
                    if self.inner.params.track_buffer {
                        self.inner.stats.borrow_mut().trackbuf_misses += 1;
                        self.inner.metrics.trackbuf_misses.inc();
                    }
                    self.position(chs).await;
                    let start_slot = g.angular_slot(chs);
                    let rot = self.rot_wait_to_slot(start_slot, spt, sector_ns);
                    self.inner.sim.sleep(rot).await;
                    self.inner.stats.borrow_mut().rot_wait += rot;
                    self.inner.metrics.rot_wait_ns.add(rot.as_nanos());
                    let fill_start = self.inner.sim.now();
                    let xfer = SimDuration::from_nanos(run as u64 * sector_ns);
                    self.inner.sim.sleep(xfer).await;
                    self.inner.stats.borrow_mut().transfer_time += xfer;
                    self.inner.metrics.transfer_time_ns.add(xfer.as_nanos());
                    if self.inner.params.track_buffer {
                        self.inner
                            .trackbuf
                            .borrow_mut()
                            .begin_fill(track, fill_start, start_slot, spt, sector_ns);
                    }
                }
            }
            cur += run as u64;
            remaining -= run;
        }
        // Wait out any remaining host transfer before completing.
        if host_until > self.inner.sim.now() {
            self.inner.sim.sleep_until(host_until).await;
        }
        self.inner.store.borrow().read(lba, nsect)
    }

    /// Moves the mechanism through a write of `[lba, lba + nsect)`; the
    /// caller stores the bytes once the transfer is over.
    async fn media_write(&self, lba: u64, nsect: u32) {
        let g = self.inner.params.geometry.clone();
        let mut remaining = nsect;
        let mut cur = lba;
        while remaining > 0 {
            let chs = g.lba_to_chs(cur);
            let run = remaining.min(g.sectors_to_track_end(chs));
            let track = g.track_index(chs);
            let spt = g.spt(chs.cyl);
            let sector_ns = g.sector_time_ns(chs.cyl);

            // Write-through: a write to the buffered track invalidates it.
            if self.inner.trackbuf.borrow().buffered_track() == Some(track) {
                self.inner.trackbuf.borrow_mut().invalidate();
            }
            self.position(chs).await;
            let start_slot = g.angular_slot(chs);
            let rot = self.rot_wait_to_slot(start_slot, spt, sector_ns);
            self.inner.sim.sleep(rot).await;
            self.inner.stats.borrow_mut().rot_wait += rot;
            self.inner.metrics.rot_wait_ns.add(rot.as_nanos());
            let xfer = SimDuration::from_nanos(run as u64 * sector_ns);
            self.inner.sim.sleep(xfer).await;
            self.inner.stats.borrow_mut().transfer_time += xfer;
            self.inner.metrics.transfer_time_ns.add(xfer.as_nanos());

            cur += run as u64;
            remaining -= run;
        }
    }
}

impl Disk {
    /// Rejects a malformed request: the debug build trips an assertion
    /// (malformed requests are bugs in the layer above), the release build
    /// completes the handle immediately with [`IoStatus::MediaError`] so
    /// the error path above gets exercised instead of the process dying.
    fn reject(&self, why: &'static str) -> IoHandle {
        debug_assert!(false, "malformed disk request: {why}");
        let _ = why;
        let (handle, event, slot) = new_handle();
        slot.borrow_mut().result =
            Some(IoResult::error(IoStatus::MediaError, self.inner.sim.now()));
        event.signal();
        handle
    }
}

impl BlockDevice for Disk {
    fn submit(&self, req: DiskRequest) -> IoHandle {
        if req.nsect == 0 {
            return self.reject("zero-length disk request");
        }
        if req.lba + req.nsect as u64 > self.inner.params.geometry.total_sectors() {
            return self.reject("request beyond end of device");
        }
        match &req.data {
            Some(data)
                if data.len()
                    != req.nsect as usize * self.inner.params.geometry.sector_size as usize =>
            {
                return self.reject("write payload length mismatch");
            }
            None if req.op == DiskOp::Write => {
                return self.reject("write without payload");
            }
            _ => {}
        }
        let (handle, event, slot) = new_handle();
        self.inner
            .queue
            .borrow_mut()
            .push(req, event, slot, self.inner.sim.now());
        self.inner.metrics.queue_depth.add(1.0);
        if let Some(sp) = &self.inner.metrics.spindle {
            sp.queue_depth.add(1.0);
        }
        self.inner.notify.notify_all();
        handle
    }

    fn sector_size(&self) -> u32 {
        self.inner.params.geometry.sector_size
    }

    fn total_sectors(&self) -> u64 {
        self.inner.params.geometry.total_sectors()
    }

    fn sector_time_ns(&self) -> u64 {
        self.inner.params.geometry.sector_time_ns(0)
    }

    fn stats(&self) -> DiskStats {
        *self.inner.stats.borrow()
    }

    fn reset_stats(&self) {
        *self.inner.stats.borrow_mut() = DiskStats::default();
    }

    fn queue_len(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    fn shutdown(&self) {
        self.inner.shutdown.set(true);
        self.inner.notify.notify_all();
    }
}
