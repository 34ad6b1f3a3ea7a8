//! The volume device: N drives behind one [`BlockDevice`].
//!
//! A volume is not a mechanism — it owns no arm and no platter. `submit`
//! validates the request, splits it into per-spindle child requests, and
//! spawns an orchestration task that fans them out to the member devices,
//! reassembles the result, and completes the parent handle. Each child
//! request carries its own `vol.spindle` trace span (argument `spindle=K`)
//! parented under the volume's `vol.read`/`vol.write` span, so a Chrome
//! trace shows a cluster fanning out across the array; each member drive
//! is constructed with [`Disk::new_spindle`], so `disk.busy_ns{spindle=K}`
//! attributes the queueing per leg.
//!
//! Address math (sector units throughout):
//!
//! - **RAID-0**: chunk `c = lba / stripe` lands on spindle `c % n` at
//!   child chunk `c / n`. Successive chunks on one spindle are contiguous
//!   on that child, so one volume request becomes at most one child
//!   request per spindle (scatter/gather lists, like a real HBA).
//! - **RAID-1**: writes go to every leg; reads round-robin across legs.
//! - **RAID-5** (left-asymmetric): parity for row `r` lives on spindle
//!   `(n-1) - (r % n)`; data chunks fill the remaining spindles in order.
//!   A full-row write computes parity from the new data alone; anything
//!   less pays the small-write penalty — read old data and old parity,
//!   XOR the delta, write data and parity back.
//!
//! ## Failure and recovery
//!
//! Members answer with an [`IoStatus`], and the volume is where
//! redundancy turns child failures back into service:
//!
//! - A child completing [`IoStatus::DeviceGone`] marks its spindle
//!   [`SpindleState::Dead`]; later requests skip it without waiting for
//!   the timeout again.
//! - Degraded **reads**: RAID-1 falls over to the next healthy leg;
//!   RAID-5 reconstructs the missing chunk by XOR-ing the matching range
//!   of every surviving spindle in the row (counted in
//!   `vol.degraded_reads`). RAID-0 has nothing to fall back on and fails
//!   the request.
//! - Degraded RAID-5 **writes** switch from delta-RMW to full-row
//!   reconstruction: read the surviving chunks, rebuild the row, overlay
//!   the new data, recompute parity, write everything that still has a
//!   home. Transient child write errors are retried in place (the row's
//!   bytes are at hand); a *permanently* unwritable sector under new
//!   parity is data-loss territory and fails the request.
//! - [`Volume::rebuild`] brings a replacement spindle (see
//!   [`Volume::replace_spindle`]) back into redundancy online: row by row
//!   it reconstructs the missing member from the survivors while the
//!   volume keeps serving. Writes racing the sweep land on the
//!   replacement too and mark their rows dirty, so the sweep re-does any
//!   row it may have reconstructed from a stale snapshot.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use diskmodel::request::handle_pair;
use diskmodel::{
    BlockDevice, BlockDeviceExt, DataView, Disk, DiskOp, DiskParams, DiskRequest, DiskStats,
    IoCompletion, IoHandle, IoResult, IoStatus, SharedDevice, EXT_RETRIES,
};
use simkit::{IntSet, Sim, SpanId};

use crate::spec::{RaidLevel, VolumeSpec};

/// RAID-0 address mapping: volume sector → (spindle, child sector).
pub fn raid0_map(lba: u64, stripe_sectors: u32, spindles: u32) -> (u32, u64) {
    let stripe = stripe_sectors as u64;
    let chunk = lba / stripe;
    let off = lba % stripe;
    let spindle = (chunk % spindles as u64) as u32;
    (spindle, (chunk / spindles as u64) * stripe + off)
}

/// Inverse of [`raid0_map`]: (spindle, child sector) → volume sector.
pub fn raid0_unmap(spindle: u32, child_lba: u64, stripe_sectors: u32, spindles: u32) -> u64 {
    let stripe = stripe_sectors as u64;
    let chunk_on_child = child_lba / stripe;
    let off = child_lba % stripe;
    (chunk_on_child * spindles as u64 + spindle as u64) * stripe + off
}

/// The spindle holding row `row`'s parity (left-asymmetric rotation).
pub fn raid5_parity_spindle(row: u64, spindles: u32) -> u32 {
    (spindles - 1) - (row % spindles as u64) as u32
}

/// RAID-5 data-address mapping: volume sector → (spindle, child sector).
pub fn raid5_map(lba: u64, stripe_sectors: u32, spindles: u32) -> (u32, u64) {
    let stripe = stripe_sectors as u64;
    let nd = (spindles - 1) as u64;
    let chunk = lba / stripe;
    let off = lba % stripe;
    let row = chunk / nd;
    let d = (chunk % nd) as u32;
    let p = raid5_parity_spindle(row, spindles);
    let spindle = if d < p { d } else { d + 1 };
    (spindle, row * stripe + off)
}

/// Health of one member device, as the volume last observed it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpindleState {
    /// Serving requests normally.
    Healthy,
    /// Stopped answering ([`IoStatus::DeviceGone`]); skipped entirely.
    Dead,
    /// A replacement is being resynchronized: it takes writes (so new
    /// data is not lost from it) but cannot serve reads until
    /// [`Volume::rebuild`] completes.
    Rebuilding,
}

/// Sectors per copy unit of a RAID-1 rebuild sweep (64 KB at 512 B).
const REBUILD_CHUNK: u64 = 128;

/// One child request: a contiguous run on one spindle, covering the listed
/// `(offset, len)` byte ranges of the volume request's buffer in order.
struct ChildIo {
    spindle: usize,
    lba: u64,
    nsect: u32,
    pieces: Vec<(usize, usize)>,
}

struct VolInner {
    sim: Sim,
    spec: VolumeSpec,
    /// Member devices. A `RefCell` because [`Volume::replace_spindle`]
    /// swaps a dead member for its replacement in place.
    children: RefCell<Vec<SharedDevice>>,
    states: Vec<Cell<SpindleState>>,
    sector_size: u32,
    /// Stripe unit in sectors (RAID-0/5; 0 for RAID-1).
    stripe_sectors: u32,
    total_sectors: u64,
    /// Round-robin position for RAID-1 read balancing. A `Cell`, not
    /// randomness: balancing must be deterministic for byte-identical
    /// runs.
    next_mirror: Cell<usize>,
    /// Rows (RAID-5) / copy chunks (RAID-1) written while a spindle is
    /// rebuilding: the sweep re-does any unit whose snapshot may be stale.
    rebuild_dirty: RefCell<IntSet<u64>>,
    /// RAID-5 rows with a parity read-modify-write (or a reconstructing
    /// read) in flight. Concurrent writers to one row must serialize, or
    /// both read the old parity and the later write-back erases the
    /// earlier delta — the parity write hole, invisible until a spindle
    /// dies and reconstruction XORs against the stale parity.
    locked_rows: RefCell<IntSet<u64>>,
    /// Tasks waiting for any row lock to release.
    row_waiters: RefCell<Vec<Waker>>,
}

/// A RAID volume over N simulated drives. Clones share the volume.
#[derive(Clone)]
pub struct Volume {
    inner: Rc<VolInner>,
}

impl Volume {
    /// Builds the volume, creating `spec.spindles` identical member drives
    /// (labelled spindle 0..N-1) on `sim`.
    pub fn new(sim: &Sim, spec: &VolumeSpec, params: DiskParams) -> Volume {
        let children: Vec<SharedDevice> = (0..spec.spindles)
            .map(|k| Rc::new(Disk::new_spindle(sim, params.clone(), k)) as SharedDevice)
            .collect();
        Self::with_children(sim, spec, children)
    }

    /// Builds the volume over caller-provided member devices — the seam
    /// the fault-injection layer uses to stand a `FaultDevice` in front of
    /// each spindle. The members must agree on sector size and capacity.
    pub fn with_children(sim: &Sim, spec: &VolumeSpec, children: Vec<SharedDevice>) -> Volume {
        assert_eq!(
            children.len(),
            spec.spindles as usize,
            "member count must match the spec"
        );
        let sector_size = children[0].sector_size();
        let child_sectors = children[0].total_sectors();
        for c in &children {
            assert_eq!(c.sector_size(), sector_size, "mixed sector sizes");
            assert_eq!(c.total_sectors(), child_sectors, "mixed member sizes");
        }
        let stripe_sectors = spec.stripe_bytes.map_or(0, |b| b / sector_size);
        let n = spec.spindles as u64;
        let total_sectors = match spec.level {
            // Striped levels use whole rows only, so the mapping stays a
            // clean bijection (the partial last row is sacrificed).
            RaidLevel::Raid0 => (child_sectors / stripe_sectors as u64) * stripe_sectors as u64 * n,
            RaidLevel::Raid1 => child_sectors,
            RaidLevel::Raid5 => {
                (child_sectors / stripe_sectors as u64) * stripe_sectors as u64 * (n - 1)
            }
        };
        assert!(total_sectors > 0, "volume has no addressable capacity");
        let states = (0..children.len())
            .map(|_| Cell::new(SpindleState::Healthy))
            .collect();
        Volume {
            inner: Rc::new(VolInner {
                sim: sim.clone(),
                spec: *spec,
                children: RefCell::new(children),
                states,
                sector_size,
                stripe_sectors,
                total_sectors,
                next_mirror: Cell::new(0),
                rebuild_dirty: RefCell::new(IntSet::default()),
                locked_rows: RefCell::new(IntSet::default()),
                row_waiters: RefCell::new(Vec::new()),
            }),
        }
    }

    /// The spec this volume was built from.
    pub fn spec(&self) -> &VolumeSpec {
        &self.inner.spec
    }

    /// The member devices, indexed by spindle (tests and reports read legs
    /// directly to check mirror and parity invariants).
    pub fn children(&self) -> Vec<SharedDevice> {
        self.inner.children.borrow().clone()
    }

    /// Stripe unit in sectors (0 for RAID-1).
    pub fn stripe_sectors(&self) -> u32 {
        self.inner.stripe_sectors
    }

    /// Number of member spindles.
    pub fn spindles(&self) -> usize {
        self.inner.states.len()
    }

    /// The volume's view of spindle `k`'s health.
    pub fn spindle_state(&self, k: u32) -> SpindleState {
        self.inner.states[k as usize].get()
    }

    /// Administratively marks spindle `k` dead — the same transition a
    /// [`IoStatus::DeviceGone`] completion causes, available to tests and
    /// operators without waiting for a request to trip over the corpse.
    pub fn fail_spindle(&self, k: u32) {
        self.mark_dead(k as usize);
    }

    /// Swaps in a replacement device for spindle `k` and marks it
    /// [`SpindleState::Rebuilding`]: it takes writes immediately but
    /// serves no reads until [`Volume::rebuild`] resynchronizes it.
    pub fn replace_spindle(&self, k: u32, dev: SharedDevice) {
        let mut children = self.inner.children.borrow_mut();
        assert_eq!(dev.sector_size(), self.inner.sector_size, "sector size");
        assert_eq!(
            dev.total_sectors(),
            children[k as usize].total_sectors(),
            "replacement capacity"
        );
        children[k as usize] = dev;
        self.inner.states[k as usize].set(SpindleState::Rebuilding);
    }

    fn child(&self, k: usize) -> SharedDevice {
        Rc::clone(&self.inner.children.borrow()[k])
    }

    fn healthy(&self, k: usize) -> bool {
        self.inner.states[k].get() == SpindleState::Healthy
    }

    fn mark_dead(&self, k: usize) {
        if self.inner.states[k].get() != SpindleState::Dead {
            self.inner.states[k].set(SpindleState::Dead);
            self.inner.sim.stats().counter("vol.spindle_dead").inc();
        }
    }

    /// Takes the parity-row lock for `row`, waiting while another writer
    /// (or reconstructing reader) holds it. All multi-row writers acquire
    /// in ascending row order, so waiting cannot deadlock.
    fn lock_row(&self, row: u64) -> LockRow {
        LockRow {
            vol: self.clone(),
            row,
        }
    }

    /// Marks a rebuild unit stale if a sweep is running (no-op otherwise:
    /// the set only matters while a spindle is rebuilding).
    fn mark_rebuild_dirty(&self, unit: u64) {
        if self
            .inner
            .states
            .iter()
            .any(|s| s.get() == SpindleState::Rebuilding)
        {
            self.inner.rebuild_dirty.borrow_mut().insert(unit);
        }
    }

    // ---- request splitting ----

    fn map_striped(&self, lba: u64, nsect: u32, level: RaidLevel) -> Vec<ChildIo> {
        let stripe = self.inner.stripe_sectors as u64;
        let n = self.spindles();
        let ssz = self.inner.sector_size as usize;
        let mut ios: Vec<ChildIo> = Vec::new();
        // Open scatter/gather list per spindle, for merging child-contiguous
        // chunks (RAID-0 only; RAID-5 data chunks skip parity rows, so
        // adjacency on a child is not guaranteed and each chunk stands
        // alone — which keeps every RAID-5 child request inside one row,
        // the invariant degraded-read reconstruction relies on).
        let mut open: Vec<Option<usize>> = vec![None; n];
        let mut cur = lba;
        let end = lba + nsect as u64;
        while cur < end {
            let run = (stripe - cur % stripe).min(end - cur) as u32;
            let (sp, clba) = match level {
                RaidLevel::Raid0 => raid0_map(cur, self.inner.stripe_sectors, n as u32),
                RaidLevel::Raid5 => raid5_map(cur, self.inner.stripe_sectors, n as u32),
                RaidLevel::Raid1 => unreachable!("mirrors are not striped"),
            };
            let piece = ((cur - lba) as usize * ssz, run as usize * ssz);
            match open[sp as usize] {
                Some(i)
                    if level == RaidLevel::Raid0 && ios[i].lba + ios[i].nsect as u64 == clba =>
                {
                    ios[i].nsect += run;
                    ios[i].pieces.push(piece);
                }
                _ => {
                    open[sp as usize] = Some(ios.len());
                    ios.push(ChildIo {
                        spindle: sp as usize,
                        lba: clba,
                        nsect: run,
                        pieces: vec![piece],
                    });
                }
            }
            cur += run as u64;
        }
        ios
    }

    // ---- orchestration ----

    fn start_span(&self, name: &'static str, req: &DiskRequest) -> SpanId {
        let tracer = self.inner.sim.tracer();
        let svc = tracer.start(name, req.stream, req.span);
        tracer.arg(svc, "lba", req.lba);
        tracer.arg(svc, "nsect", req.nsect as u64);
        svc
    }

    /// Submits one child request under a fresh `vol.spindle` span.
    /// `data: Some` means a write, `None` a read.
    fn submit_child(
        &self,
        spindle: usize,
        lba: u64,
        nsect: u32,
        data: Option<Vec<u8>>,
        req: &DiskRequest,
        svc: SpanId,
    ) -> (IoHandle, SpanId) {
        let tracer = self.inner.sim.tracer();
        let sp = tracer.start("vol.spindle", req.stream, svc);
        tracer.arg(sp, "spindle", spindle as u64);
        let op = if data.is_some() {
            DiskOp::Write
        } else {
            DiskOp::Read
        };
        let h = self.child(spindle).submit(DiskRequest {
            op,
            lba,
            nsect,
            data,
            ordered: req.ordered,
            stream: req.stream,
            span: sp,
        });
        (h, sp)
    }

    /// Serves a child read some other way after its home spindle failed:
    /// RAID-1 from the next healthy leg, RAID-5 by XOR-reconstructing from
    /// every surviving spindle of the row, RAID-0 not at all. `why` is the
    /// status that sent us here and is returned when recovery also fails.
    async fn recover_read(
        &self,
        io: &ChildIo,
        req: &DiskRequest,
        svc: SpanId,
        why: IoStatus,
    ) -> Result<DataView, IoStatus> {
        self.inner.sim.stats().counter("vol.degraded_reads").inc();
        let n = self.spindles();
        match self.inner.spec.level {
            RaidLevel::Raid0 => Err(why),
            RaidLevel::Raid1 => {
                // The other legs hold the same bytes; try them in
                // deterministic rotation order.
                for d in 1..n {
                    let j = (io.spindle + d) % n;
                    if !self.healthy(j) {
                        continue;
                    }
                    let (h, sp) = self.submit_child(j, io.lba, io.nsect, None, req, svc);
                    let res = h.wait().await;
                    self.inner.sim.tracer().end(sp);
                    match res.status {
                        IoStatus::Ok => return Ok(res.data.expect("read returns data")),
                        IoStatus::DeviceGone => self.mark_dead(j),
                        IoStatus::MediaError => {}
                    }
                }
                Err(why)
            }
            RaidLevel::Raid5 => {
                // `map_striped` keeps every RAID-5 child request inside
                // one row, so the same child range on every other spindle
                // covers the matching slice of each data chunk and the
                // parity; their XOR is the missing chunk's slice. Hold the
                // row lock so a concurrent RMW cannot leave us XOR-ing new
                // data against old parity mid-update.
                let _row = self
                    .lock_row(io.lba / self.inner.stripe_sectors as u64)
                    .await;
                if (0..n).any(|j| j != io.spindle && !self.healthy(j)) {
                    return Err(why); // A second failure: nothing left to XOR.
                }
                let pending: Vec<(usize, IoHandle, SpanId)> = (0..n)
                    .filter(|&j| j != io.spindle)
                    .map(|j| {
                        let (h, sp) = self.submit_child(j, io.lba, io.nsect, None, req, svc);
                        (j, h, sp)
                    })
                    .collect();
                let mut acc = vec![0u8; io.nsect as usize * self.inner.sector_size as usize];
                let mut failed = None;
                for (j, h, sp) in pending {
                    let res = h.wait().await;
                    self.inner.sim.tracer().end(sp);
                    match res.status {
                        IoStatus::Ok => res.data.expect("read returns data").xor_into(&mut acc),
                        st => {
                            if st == IoStatus::DeviceGone {
                                self.mark_dead(j);
                            }
                            failed = Some(st);
                        }
                    }
                }
                match failed {
                    Some(st) => Err(st),
                    None => Ok(DataView::from_vec(acc)),
                }
            }
        }
    }

    async fn read_fan(&self, req: DiskRequest, ios: Vec<ChildIo>, completion: IoCompletion) {
        let svc = self.start_span("vol.read", &req);
        // The volume's bytes are assembled from the children's views, not
        // copied: each piece is a slice of one child's read.
        let mut parts: Vec<(usize, DataView)> = Vec::new();
        // Submit to every healthy home spindle up front; known-bad homes
        // go straight to recovery when their turn comes.
        let pending: Vec<(ChildIo, Option<(IoHandle, SpanId)>)> = ios
            .into_iter()
            .map(|io| {
                let direct = self
                    .healthy(io.spindle)
                    .then(|| self.submit_child(io.spindle, io.lba, io.nsect, None, &req, svc));
                (io, direct)
            })
            .collect();
        let mut failed: Option<IoStatus> = None;
        for (io, direct) in pending {
            let got = match direct {
                Some((h, sp)) => {
                    let res = h.wait().await;
                    self.inner.sim.tracer().end(sp);
                    match res.status {
                        IoStatus::Ok => Ok(res.data.expect("read returns data")),
                        st => {
                            if st == IoStatus::DeviceGone {
                                self.mark_dead(io.spindle);
                            }
                            self.recover_read(&io, &req, svc, st).await
                        }
                    }
                }
                None => {
                    self.recover_read(&io, &req, svc, IoStatus::DeviceGone)
                        .await
                }
            };
            match got {
                Ok(data) => {
                    let mut src = 0;
                    for &(off, len) in &io.pieces {
                        parts.push((off, data.slice(src, len)));
                        src += len;
                    }
                }
                Err(st) => failed = Some(st),
            }
        }
        self.inner.sim.tracer().end(svc);
        let now = self.inner.sim.now();
        completion.complete(match failed {
            Some(st) => IoResult::error(st, now),
            None => {
                // The pieces tile the request; put them in volume order.
                parts.sort_unstable_by_key(|&(off, _)| off);
                let data = DataView::concat(parts.into_iter().map(|(_, v)| v));
                debug_assert_eq!(
                    data.len(),
                    req.nsect as usize * self.inner.sector_size as usize
                );
                IoResult::ok(Some(data), now)
            }
        });
    }

    /// Awaits a child write, retrying transient media errors in place (the
    /// bytes are rebuilt by `payload()` per attempt). Returns the final
    /// status; `DeviceGone` marks the spindle dead.
    #[allow(clippy::too_many_arguments)]
    async fn await_child_write(
        &self,
        mut handle: IoHandle,
        mut span: SpanId,
        spindle: usize,
        lba: u64,
        nsect: u32,
        req: &DiskRequest,
        svc: SpanId,
        payload: impl Fn() -> Vec<u8>,
    ) -> IoStatus {
        let mut attempt = 0;
        loop {
            let res = handle.wait().await;
            self.inner.sim.tracer().end(span);
            match res.status {
                IoStatus::MediaError if attempt < EXT_RETRIES => {
                    attempt += 1;
                    let (h, sp) = self.submit_child(spindle, lba, nsect, Some(payload()), req, svc);
                    handle = h;
                    span = sp;
                }
                st => {
                    if st == IoStatus::DeviceGone {
                        self.mark_dead(spindle);
                    }
                    return st;
                }
            }
        }
    }

    async fn write_fan(&self, req: DiskRequest, ios: Vec<ChildIo>, completion: IoCompletion) {
        let svc = self.start_span("vol.write", &req);
        let payload = req.data.as_deref().expect("write carries payload");
        let child_bytes = |io: &ChildIo| {
            let mut data = Vec::with_capacity(io.pieces.iter().map(|(_, l)| l).sum());
            for (off, len) in &io.pieces {
                data.extend_from_slice(&payload[*off..*off + *len]);
            }
            data
        };
        if self.inner.spec.level == RaidLevel::Raid1 {
            // A racing rebuild sweep must re-copy any chunk this write
            // touches (the write also lands on the rebuilding leg below).
            let first = req.lba / REBUILD_CHUNK;
            let last = (req.lba + req.nsect as u64 - 1) / REBUILD_CHUNK;
            for c in first..=last {
                self.mark_rebuild_dirty(c);
            }
        }
        // Dead spindles take no writes; rebuilding ones do (new data must
        // not be missing from the replacement when the sweep finishes).
        let pending: Vec<(ChildIo, IoHandle, SpanId)> = ios
            .into_iter()
            .filter(|io| self.inner.states[io.spindle].get() != SpindleState::Dead)
            .map(|io| {
                let (h, sp) = self.submit_child(
                    io.spindle,
                    io.lba,
                    io.nsect,
                    Some(child_bytes(&io)),
                    &req,
                    svc,
                );
                (io, h, sp)
            })
            .collect();
        let mut ok = 0u32;
        let mut last_err = None;
        for (io, h, sp) in pending {
            let st = self
                .await_child_write(h, sp, io.spindle, io.lba, io.nsect, &req, svc, || {
                    child_bytes(&io)
                })
                .await;
            match st {
                IoStatus::Ok => ok += 1,
                st => last_err = Some(st),
            }
        }
        self.inner.sim.tracer().end(svc);
        let now = self.inner.sim.now();
        // RAID-1 succeeds while any leg holds the data; RAID-0 needs every
        // chunk to land, including on spindles that were already dead.
        let success = match self.inner.spec.level {
            RaidLevel::Raid1 => ok > 0,
            _ => {
                last_err.is_none()
                    && (0..self.spindles())
                        .all(|k| self.inner.states[k].get() != SpindleState::Dead)
            }
        };
        completion.complete(if success {
            IoResult::ok(None, now)
        } else {
            IoResult::error(last_err.unwrap_or(IoStatus::DeviceGone), now)
        });
    }

    /// RAID-5 writes: full rows compute parity from the new data; partial
    /// rows read-modify-write. Old-data/old-parity reads for every row are
    /// issued together, then all data+parity writes. Any degradation (or
    /// any phase-1 read failure) falls back to
    /// [`Volume::raid5_write_degraded`], which reconstructs whole rows.
    async fn raid5_write(&self, req: DiskRequest, completion: IoCompletion) {
        let svc = self.start_span("vol.write", &req);
        if (0..self.spindles()).any(|k| !self.healthy(k)) {
            self.raid5_write_degraded(req, completion, svc).await;
            return;
        }
        let stripe = self.inner.stripe_sectors;
        let n = self.spindles() as u32;
        let nd = (n - 1) as u64;
        let ssz = self.inner.sector_size as usize;
        let stripe_bytes = stripe as usize * ssz;
        let payload = req.data.as_deref().expect("write carries payload");

        // Partition into per-row chunk pieces: (data index, intra-chunk
        // sector offset, sectors, byte offset into the request payload).
        struct Piece {
            d: u32,
            intra: u64,
            nsect: u32,
            buf_off: usize,
        }
        let mut rows: BTreeMap<u64, Vec<Piece>> = BTreeMap::new();
        let mut cur = req.lba;
        let end = req.lba + req.nsect as u64;
        while cur < end {
            let run = (stripe as u64 - cur % stripe as u64).min(end - cur) as u32;
            let chunk = cur / stripe as u64;
            rows.entry(chunk / nd).or_default().push(Piece {
                d: (chunk % nd) as u32,
                intra: cur % stripe as u64,
                nsect: run,
                buf_off: (cur - req.lba) as usize * ssz,
            });
            cur += run as u64;
        }

        let spindle_of = |row: u64, d: u32| {
            let p = raid5_parity_spindle(row, n);
            (if d < p { d } else { d + 1 }) as usize
        };

        // Serialize parity RMW per touched row (ascending order, so
        // overlapping writers cannot deadlock): see `locked_rows`.
        let mut row_guards = Vec::with_capacity(rows.len());
        for &row in rows.keys() {
            row_guards.push(self.lock_row(row).await);
        }

        // Phase 1: for partial rows, read old data under each piece and
        // the old parity over the union of intra-chunk ranges.
        struct RowReads {
            handles: Vec<(IoHandle, SpanId)>, // one per piece, then parity
            lo: u64,
        }
        let mut reads: BTreeMap<u64, RowReads> = BTreeMap::new();
        for (&row, pieces) in &rows {
            let full = pieces.len() as u64 == nd && pieces.iter().all(|p| p.nsect == stripe);
            if full {
                continue;
            }
            let lo = pieces.iter().map(|p| p.intra).min().unwrap();
            let hi = pieces
                .iter()
                .map(|p| p.intra + p.nsect as u64)
                .max()
                .unwrap();
            let mut handles = Vec::new();
            for p in pieces {
                handles.push(self.submit_child(
                    spindle_of(row, p.d),
                    row * stripe as u64 + p.intra,
                    p.nsect,
                    None,
                    &req,
                    svc,
                ));
            }
            handles.push(self.submit_child(
                raid5_parity_spindle(row, n) as usize,
                row * stripe as u64 + lo,
                (hi - lo) as u32,
                None,
                &req,
                svc,
            ));
            reads.insert(row, RowReads { handles, lo });
        }

        // Await phase-1 reads and compute each partial row's new parity.
        // Any failure means the delta method has nothing sound to XOR
        // against: fall back to whole-row reconstruction (which re-reads
        // what it needs and routes around the failure).
        let mut parity_writes: BTreeMap<u64, (u64, Vec<u8>)> = BTreeMap::new(); // row -> (lba, bytes)
        let mut phase1_failed = false;
        for (&row, rr) in &mut reads {
            let pieces = &rows[&row];
            let mut old: Vec<DataView> = Vec::new();
            for (h, sp) in rr.handles.drain(..) {
                let res = h.wait().await;
                self.inner.sim.tracer().end(sp);
                match res.status {
                    IoStatus::Ok => old.push(res.data.expect("read returns data")),
                    st => {
                        if st == IoStatus::DeviceGone {
                            // The span args identify the spindle; state is
                            // refreshed by the recovery path's own reads.
                        }
                        phase1_failed = true;
                    }
                }
            }
            if phase1_failed {
                break;
            }
            let old_parity = old.pop().expect("parity read present");
            let mut delta = old_parity.into_vec();
            // delta starts as the old parity; XOR in old^new under each
            // piece, leaving uncovered bytes unchanged.
            for (p, old_data) in pieces.iter().zip(&old) {
                let base = (p.intra - rr.lo) as usize * ssz;
                let new_data = &payload[p.buf_off..p.buf_off + p.nsect as usize * ssz];
                let under = &mut delta[base..base + new_data.len()];
                old_data.xor_into(under);
                for (d, n) in under.iter_mut().zip(new_data) {
                    *d ^= n;
                }
            }
            parity_writes.insert(row, (row * stripe as u64 + rr.lo, delta));
        }
        if phase1_failed {
            drop(row_guards); // The degraded path re-acquires them itself.
            self.raid5_write_degraded(req, completion, svc).await;
            return;
        }

        // Full rows: parity is the XOR of the new data chunks.
        for (&row, pieces) in &rows {
            if reads.contains_key(&row) {
                continue;
            }
            let mut parity = vec![0u8; stripe_bytes];
            for p in pieces {
                let new_data = &payload[p.buf_off..p.buf_off + stripe_bytes];
                for i in 0..stripe_bytes {
                    parity[i] ^= new_data[i];
                }
            }
            parity_writes.insert(row, (row * stripe as u64, parity));
        }

        // Phase 2: write new data and new parity for every row. Parity
        // bytes are retained for in-place retry of transient write errors
        // (a retried RMW cannot recompute them: the data chunks may
        // already hold new contents).
        enum WSrc {
            Payload { buf_off: usize, len: usize },
            Parity(u64),
        }
        let parity_keep: BTreeMap<u64, (u64, Vec<u8>)> = parity_writes;
        let mut pending: Vec<(IoHandle, SpanId, usize, u64, u32, WSrc)> = Vec::new();
        for (&row, pieces) in &rows {
            for p in pieces {
                let len = p.nsect as usize * ssz;
                let sp_idx = spindle_of(row, p.d);
                let lba = row * stripe as u64 + p.intra;
                let (h, sp) = self.submit_child(
                    sp_idx,
                    lba,
                    p.nsect,
                    Some(payload[p.buf_off..p.buf_off + len].to_vec()),
                    &req,
                    svc,
                );
                pending.push((
                    h,
                    sp,
                    sp_idx,
                    lba,
                    p.nsect,
                    WSrc::Payload {
                        buf_off: p.buf_off,
                        len,
                    },
                ));
            }
            let (lba, bytes) = &parity_keep[&row];
            let nsect = (bytes.len() / ssz) as u32;
            let sp_idx = raid5_parity_spindle(row, n) as usize;
            let (h, sp) = self.submit_child(sp_idx, *lba, nsect, Some(bytes.clone()), &req, svc);
            pending.push((h, sp, sp_idx, *lba, nsect, WSrc::Parity(row)));
        }
        let mut failed = None;
        for (h, sp, sp_idx, lba, nsect, src) in pending {
            let st = self
                .await_child_write(h, sp, sp_idx, lba, nsect, &req, svc, || match &src {
                    WSrc::Payload { buf_off, len } => payload[*buf_off..*buf_off + *len].to_vec(),
                    WSrc::Parity(row) => parity_keep[row].1.clone(),
                })
                .await;
            match st {
                IoStatus::Ok => {}
                // A spindle dying under the write leaves the row
                // single-degraded: still serviceable, not an error.
                IoStatus::DeviceGone => {}
                // A permanently unwritable sector under new data or parity
                // is real loss: the row's redundancy no longer covers it.
                IoStatus::MediaError => failed = Some(IoStatus::MediaError),
            }
        }
        // Two dead spindles exceed RAID-5's budget regardless of which
        // writes "succeeded".
        let dead = (0..self.spindles())
            .filter(|&k| self.inner.states[k].get() == SpindleState::Dead)
            .count();
        if dead > 1 {
            failed = Some(IoStatus::DeviceGone);
        }
        self.inner.sim.tracer().end(svc);
        let now = self.inner.sim.now();
        completion.complete(match failed {
            Some(st) => IoResult::error(st, now),
            None => IoResult::ok(None, now),
        });
    }

    /// Degraded-mode RAID-5 write: for every touched row, read the
    /// surviving chunks whole, reconstruct the missing one, overlay the
    /// new data, recompute parity from scratch, and write every chunk
    /// that still has a live home. Slower than delta-RMW (it always moves
    /// whole rows) but correct with a member missing — and the reason
    /// degraded-phase write throughput visibly drops in `iobench faults`.
    async fn raid5_write_degraded(&self, req: DiskRequest, completion: IoCompletion, svc: SpanId) {
        let stripe = self.inner.stripe_sectors;
        let n = self.spindles() as u32;
        let nd = (n - 1) as u64;
        let ssz = self.inner.sector_size as usize;
        let stripe_bytes = stripe as usize * ssz;
        let payload = req.data.as_deref().expect("write carries payload");

        // Row -> pieces of new data, as in the fast path.
        struct Piece {
            d: u32,
            intra: u64,
            nsect: u32,
            buf_off: usize,
        }
        let mut rows: BTreeMap<u64, Vec<Piece>> = BTreeMap::new();
        let mut cur = req.lba;
        let end = req.lba + req.nsect as u64;
        while cur < end {
            let run = (stripe as u64 - cur % stripe as u64).min(end - cur) as u32;
            let chunk = cur / stripe as u64;
            rows.entry(chunk / nd).or_default().push(Piece {
                d: (chunk % nd) as u32,
                intra: cur % stripe as u64,
                nsect: run,
                buf_off: (cur - req.lba) as usize * ssz,
            });
            cur += run as u64;
        }
        let spindle_of = |row: u64, d: u32| {
            let p = raid5_parity_spindle(row, n);
            (if d < p { d } else { d + 1 }) as usize
        };

        // Same per-row serialization as the fast path (ascending order).
        let mut row_guards = Vec::with_capacity(rows.len());
        for &row in rows.keys() {
            row_guards.push(self.lock_row(row).await);
        }

        let mut failed: Option<IoStatus> = None;
        for (&row, pieces) in &rows {
            // A racing rebuild sweep must redo any row this write touches.
            self.mark_rebuild_dirty(row);
            let row_lba = row * stripe as u64;
            // Read the whole row from every healthy spindle.
            let pending: Vec<(usize, IoHandle, SpanId)> = (0..n as usize)
                .filter(|&j| self.healthy(j))
                .map(|j| {
                    let (h, sp) = self.submit_child(j, row_lba, stripe, None, &req, svc);
                    (j, h, sp)
                })
                .collect();
            let mut chunks: Vec<Option<Vec<u8>>> = vec![None; n as usize];
            for (j, h, sp) in pending {
                let res = h.wait().await;
                self.inner.sim.tracer().end(sp);
                match res.status {
                    IoStatus::Ok => {
                        chunks[j] = Some(res.data.expect("read returns data").into_vec())
                    }
                    st => {
                        if st == IoStatus::DeviceGone {
                            self.mark_dead(j);
                        }
                    }
                }
            }
            let missing: Vec<usize> = (0..n as usize).filter(|&j| chunks[j].is_none()).collect();
            match missing.len() {
                0 => {}
                1 => {
                    // XOR of the survivors reconstructs the one absentee
                    // (data or parity: the equation is the same).
                    let mut acc = vec![0u8; stripe_bytes];
                    for c in chunks.iter().flatten() {
                        for (a, b) in acc.iter_mut().zip(c) {
                            *a ^= b;
                        }
                    }
                    chunks[missing[0]] = Some(acc);
                }
                _ => {
                    failed = Some(IoStatus::DeviceGone);
                    continue;
                }
            }
            // Overlay the new data onto its chunks.
            for p in pieces {
                let j = spindle_of(row, p.d);
                let chunk = chunks[j].as_mut().expect("row fully materialized");
                let base = p.intra as usize * ssz;
                let len = p.nsect as usize * ssz;
                chunk[base..base + len].copy_from_slice(&payload[p.buf_off..p.buf_off + len]);
            }
            // Fresh parity from the data chunks.
            let pj = raid5_parity_spindle(row, n) as usize;
            let mut parity = vec![0u8; stripe_bytes];
            for (j, chunk) in chunks.iter().enumerate() {
                if j == pj {
                    continue;
                }
                let chunk = chunk.as_ref().expect("row fully materialized");
                for (a, b) in parity.iter_mut().zip(chunk) {
                    *a ^= b;
                }
            }
            chunks[pj] = Some(parity);
            // Write every chunk that still has a live home (rebuilding
            // replacements included — that is how new rows reach them).
            let writes: Vec<(usize, IoHandle, SpanId)> = (0..n as usize)
                .filter(|&j| self.inner.states[j].get() != SpindleState::Dead)
                .map(|j| {
                    let bytes = chunks[j].as_ref().expect("row fully materialized").clone();
                    let (h, sp) = self.submit_child(j, row_lba, stripe, Some(bytes), &req, svc);
                    (j, h, sp)
                })
                .collect();
            for (j, h, sp) in writes {
                let st = self
                    .await_child_write(h, sp, j, row_lba, stripe, &req, svc, || {
                        chunks[j].as_ref().expect("row fully materialized").clone()
                    })
                    .await;
                match st {
                    IoStatus::Ok | IoStatus::DeviceGone => {}
                    IoStatus::MediaError => failed = Some(IoStatus::MediaError),
                }
            }
            let dead = (0..n as usize)
                .filter(|&j| self.inner.states[j].get() == SpindleState::Dead)
                .count();
            if dead > 1 {
                failed = Some(IoStatus::DeviceGone);
            }
        }
        self.inner.sim.tracer().end(svc);
        let now = self.inner.sim.now();
        completion.complete(match failed {
            Some(st) => IoResult::error(st, now),
            None => IoResult::ok(None, now),
        });
    }

    // ---- rebuild ----

    /// Resynchronizes spindle `k` (previously swapped in via
    /// [`Volume::replace_spindle`], or any non-dead member) from the
    /// surviving spindles, online: RAID-1 copies a healthy leg in
    /// [`REBUILD_CHUNK`]-sector units, RAID-5 XOR-reconstructs each row.
    /// Progress is published on the `vol.rebuild_progress` gauge and the
    /// sweep runs under a `vol.rebuild` span; each completed unit counts
    /// in `vol.rebuild_rows`. Units written by racing traffic are redone
    /// from the fresh state, so the member is exactly consistent when the
    /// state flips back to [`SpindleState::Healthy`].
    pub async fn rebuild(&self, k: u32) -> Result<(), &'static str> {
        let k = k as usize;
        if k >= self.spindles() {
            return Err("no such spindle");
        }
        if self.inner.spec.level == RaidLevel::Raid0 {
            return Err("raid0 has no redundancy to rebuild from");
        }
        if self.inner.states[k].get() == SpindleState::Dead {
            return Err("spindle is dead; swap in a replacement first");
        }
        self.inner.states[k].set(SpindleState::Rebuilding);
        let tracer = self.inner.sim.tracer();
        let span = tracer.start("vol.rebuild", 0, SpanId::NONE);
        tracer.arg(span, "spindle", k as u64);
        let stats = self.inner.sim.stats();
        let progress = stats.gauge("vol.rebuild_progress");
        let rows_done = stats.counter("vol.rebuild_rows");
        progress.set(0.0);
        let result = match self.inner.spec.level {
            RaidLevel::Raid1 => self.rebuild_mirror(k, &progress, &rows_done).await,
            RaidLevel::Raid5 => self.rebuild_parity(k, &progress, &rows_done).await,
            RaidLevel::Raid0 => unreachable!("rejected above"),
        };
        if result.is_ok() {
            self.inner.states[k].set(SpindleState::Healthy);
            progress.set(1.0);
        }
        self.inner.sim.tracer().end(span);
        result
    }

    /// One unit of a rebuild sweep, with the stale-snapshot protocol:
    /// clear the unit's dirty mark, reconstruct, write, and redo if a
    /// racing write re-marked it meanwhile.
    async fn rebuild_unit(
        &self,
        unit: u64,
        reconstruct: impl AsyncFn() -> Result<Vec<u8>, &'static str>,
        lba: u64,
        target: usize,
    ) -> Result<(), &'static str> {
        loop {
            self.inner.rebuild_dirty.borrow_mut().remove(&unit);
            let bytes = reconstruct().await?;
            let nsect = (bytes.len() / self.inner.sector_size as usize) as u32;
            if self
                .child(target)
                .try_write(lba, nsect, bytes)
                .await
                .is_err()
            {
                return Err("replacement spindle failed during rebuild");
            }
            // A write raced the reconstruction: our snapshot may predate
            // it, so the unit is re-done from current bytes.
            if !self.inner.rebuild_dirty.borrow().contains(&unit) {
                return Ok(());
            }
        }
    }

    async fn rebuild_mirror(
        &self,
        k: usize,
        progress: &simkit::stats::Gauge,
        rows_done: &simkit::stats::Counter,
    ) -> Result<(), &'static str> {
        let total = self.inner.total_sectors;
        let chunks = total.div_ceil(REBUILD_CHUNK);
        for c in 0..chunks {
            let lba = c * REBUILD_CHUNK;
            let nsect = REBUILD_CHUNK.min(total - lba) as u32;
            self.rebuild_unit(
                c,
                async || {
                    for j in 0..self.spindles() {
                        if j == k || !self.healthy(j) {
                            continue;
                        }
                        if let Ok(data) = self.child(j).try_read(lba, nsect).await {
                            return Ok(data);
                        }
                    }
                    Err("no healthy mirror leg to rebuild from")
                },
                lba,
                k,
            )
            .await?;
            rows_done.inc();
            progress.set((c + 1) as f64 / chunks as f64);
        }
        Ok(())
    }

    async fn rebuild_parity(
        &self,
        k: usize,
        progress: &simkit::stats::Gauge,
        rows_done: &simkit::stats::Counter,
    ) -> Result<(), &'static str> {
        let stripe = self.inner.stripe_sectors as u64;
        let nd = (self.spindles() - 1) as u64;
        let rows = self.inner.total_sectors / (stripe * nd);
        let stripe_bytes = stripe as usize * self.inner.sector_size as usize;
        for row in 0..rows {
            let lba = row * stripe;
            self.rebuild_unit(
                row,
                async || {
                    let mut acc = vec![0u8; stripe_bytes];
                    for j in 0..self.spindles() {
                        if j == k {
                            continue;
                        }
                        if !self.healthy(j) {
                            return Err("second spindle lost; row unrecoverable");
                        }
                        match self.child(j).try_read(lba, stripe as u32).await {
                            Ok(data) => {
                                for (a, b) in acc.iter_mut().zip(data) {
                                    *a ^= b;
                                }
                            }
                            Err(_) => return Err("survivor read failed during rebuild"),
                        }
                    }
                    Ok(acc)
                },
                lba,
                k,
            )
            .await?;
            rows_done.inc();
            progress.set((row + 1) as f64 / rows as f64);
        }
        Ok(())
    }

    async fn dispatch(self, req: DiskRequest, completion: IoCompletion) {
        match (self.inner.spec.level, req.op) {
            (RaidLevel::Raid0, DiskOp::Read) => {
                let ios = self.map_striped(req.lba, req.nsect, RaidLevel::Raid0);
                self.read_fan(req, ios, completion).await;
            }
            (RaidLevel::Raid0, DiskOp::Write) => {
                let ios = self.map_striped(req.lba, req.nsect, RaidLevel::Raid0);
                self.write_fan(req, ios, completion).await;
            }
            (RaidLevel::Raid1, DiskOp::Read) => {
                // Round-robin over healthy legs (the rotation still
                // advances one slot per read so balancing stays stable as
                // legs come and go).
                let n = self.spindles();
                let start = self.inner.next_mirror.get();
                self.inner.next_mirror.set((start + 1) % n);
                let k = (0..n)
                    .map(|d| (start + d) % n)
                    .find(|&j| self.healthy(j))
                    .unwrap_or(start);
                let ssz = self.inner.sector_size as usize;
                let ios = vec![ChildIo {
                    spindle: k,
                    lba: req.lba,
                    nsect: req.nsect,
                    pieces: vec![(0, req.nsect as usize * ssz)],
                }];
                self.read_fan(req, ios, completion).await;
            }
            (RaidLevel::Raid1, DiskOp::Write) => {
                let ssz = self.inner.sector_size as usize;
                let ios = (0..self.spindles())
                    .map(|k| ChildIo {
                        spindle: k,
                        lba: req.lba,
                        nsect: req.nsect,
                        pieces: vec![(0, req.nsect as usize * ssz)],
                    })
                    .collect();
                self.write_fan(req, ios, completion).await;
            }
            (RaidLevel::Raid5, DiskOp::Read) => {
                let ios = self.map_striped(req.lba, req.nsect, RaidLevel::Raid5);
                self.read_fan(req, ios, completion).await;
            }
            (RaidLevel::Raid5, DiskOp::Write) => {
                self.raid5_write(req, completion).await;
            }
        }
    }

    /// Completes a malformed request with an error instead of panicking
    /// (same contract as the drive: the debug build trips an assertion).
    fn reject(&self, why: &'static str) -> IoHandle {
        debug_assert!(false, "{why}");
        let (handle, completion) = handle_pair();
        completion.complete(IoResult::error(IoStatus::MediaError, self.inner.sim.now()));
        handle
    }
}

/// Future returned by [`Volume::lock_row`]: resolves to the guard once no
/// other task holds the row.
struct LockRow {
    vol: Volume,
    row: u64,
}

impl Future for LockRow {
    type Output = RowGuard;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<RowGuard> {
        if self.vol.inner.locked_rows.borrow_mut().insert(self.row) {
            Poll::Ready(RowGuard {
                vol: self.vol.clone(),
                row: self.row,
            })
        } else {
            self.vol
                .inner
                .row_waiters
                .borrow_mut()
                .push(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Exclusive ownership of one RAID-5 parity row; released (and waiters
/// woken) on drop.
struct RowGuard {
    vol: Volume,
    row: u64,
}

impl Drop for RowGuard {
    fn drop(&mut self) {
        self.vol.inner.locked_rows.borrow_mut().remove(&self.row);
        for w in self.vol.inner.row_waiters.borrow_mut().drain(..) {
            w.wake();
        }
    }
}

impl BlockDevice for Volume {
    fn submit(&self, req: DiskRequest) -> IoHandle {
        if req.nsect == 0 {
            return self.reject("zero-length volume request");
        }
        if req.lba + req.nsect as u64 > self.inner.total_sectors {
            return self.reject("request beyond end of volume");
        }
        if let Some(data) = &req.data {
            if data.len() != req.nsect as usize * self.inner.sector_size as usize {
                return self.reject("write payload length mismatch");
            }
        } else if req.op == DiskOp::Write {
            return self.reject("write without payload");
        }
        let (handle, completion) = handle_pair();
        let vol = self.clone();
        self.inner
            .sim
            .spawn(async move { vol.dispatch(req, completion).await });
        handle
    }

    fn sector_size(&self) -> u32 {
        self.inner.sector_size
    }

    fn total_sectors(&self) -> u64 {
        self.inner.total_sectors
    }

    fn sector_time_ns(&self) -> u64 {
        self.child(0).sector_time_ns()
    }

    fn stats(&self) -> DiskStats {
        let mut sum = DiskStats::default();
        for c in self.inner.children.borrow().iter() {
            let s = c.stats();
            sum.reads += s.reads;
            sum.writes += s.writes;
            sum.sectors_read += s.sectors_read;
            sum.sectors_written += s.sectors_written;
            sum.seek_time += s.seek_time;
            sum.seeks += s.seeks;
            sum.rot_wait += s.rot_wait;
            sum.transfer_time += s.transfer_time;
            sum.trackbuf_hits += s.trackbuf_hits;
            sum.trackbuf_misses += s.trackbuf_misses;
            sum.coalesced += s.coalesced;
            sum.queue_wait += s.queue_wait;
            sum.busy += s.busy;
        }
        sum
    }

    fn reset_stats(&self) {
        for c in self.inner.children.borrow().iter() {
            c.reset_stats();
        }
    }

    fn queue_len(&self) -> usize {
        self.inner
            .children
            .borrow()
            .iter()
            .map(|c| c.queue_len())
            .sum()
    }

    fn shutdown(&self) {
        for c in self.inner.children.borrow().iter() {
            c.shutdown();
        }
    }
}
