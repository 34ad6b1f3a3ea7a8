//! The storage seam: what the I/O path needs from "a thing that services
//! [`DiskRequest`]s".
//!
//! Everything above the driver — the cluster executor, the file systems,
//! the benchmarks — used to hold a concrete [`Disk`](crate::Disk). The
//! trait splits that dependency so a composed device (a RAID volume in
//! `volmgr`, fanning one request out across several spindles) can stand in
//! for a single drive without the layers above noticing. Only geometry the
//! upper layers actually consume is exposed: the sector size (transfer
//! alignment), the device length, and the nominal media rate (the
//! `rotdelay` → blocks conversion); cylinders, heads and zones stay the
//! drive's private business, because a volume has no single answer for
//! them.

use std::rc::Rc;

use simkit::SpanId;

use crate::disk::DiskStats;
use crate::request::{DiskOp, DiskRequest, IoHandle, IoStatus};

/// A request-queueing block device: one disk, or a volume composed of
/// several.
///
/// Object-safe by design — mounts hold `Rc<dyn BlockDevice>` (see
/// [`SharedDevice`]). The async wait side lives on [`IoHandle`]; the
/// convenience read/write wrappers live in [`BlockDeviceExt`] so this
/// trait stays dyn-compatible.
pub trait BlockDevice {
    /// Submits an arbitrary request (including `ordered` barriers) and
    /// returns the handle to await its completion.
    ///
    /// Malformed requests (zero length, out of range, payload length
    /// mismatch) are bugs in the layer above: implementations trip a
    /// `debug_assert!` and, in release builds, complete the handle with
    /// [`IoStatus::MediaError`] instead of panicking.
    fn submit(&self, req: DiskRequest) -> IoHandle;

    /// Bytes per sector (the transfer alignment unit).
    fn sector_size(&self) -> u32;

    /// Addressable sectors. Requests must lie in `[0, total_sectors)`.
    fn total_sectors(&self) -> u64;

    /// Nominal media time to transfer one sector, nanoseconds (the
    /// fastest zone for zoned drives; a representative child for
    /// volumes). Upper layers use it for the `rotdelay` → blocks
    /// conversion, not for exact accounting.
    fn sector_time_ns(&self) -> u64;

    /// Snapshot of accumulated statistics (volumes: summed over
    /// spindles).
    fn stats(&self) -> DiskStats;

    /// Resets accumulated statistics.
    fn reset_stats(&self);

    /// Requests currently waiting for service (volumes: summed over
    /// spindles).
    fn queue_len(&self) -> usize;

    /// Stops the service task(s) once the queue drains.
    fn shutdown(&self);

    /// Submits a read of `nsect` sectors at `lba` (untagged stream).
    fn submit_read(&self, lba: u64, nsect: u32) -> IoHandle {
        self.submit_read_tagged(lba, nsect, 0)
    }

    /// Submits a read of `nsect` sectors at `lba` on behalf of `stream`.
    fn submit_read_tagged(&self, lba: u64, nsect: u32, stream: u32) -> IoHandle {
        self.submit_read_for(lba, nsect, stream, SpanId::NONE)
    }

    /// Submits a read on behalf of `stream`, parenting the device's trace
    /// spans under `span`.
    fn submit_read_for(&self, lba: u64, nsect: u32, stream: u32, span: SpanId) -> IoHandle {
        self.submit(DiskRequest {
            op: DiskOp::Read,
            lba,
            nsect,
            data: None,
            ordered: false,
            stream,
            span,
        })
    }

    /// Submits a write of `data` (exactly `nsect` sectors) at `lba`
    /// (untagged stream).
    fn submit_write(&self, lba: u64, nsect: u32, data: Vec<u8>) -> IoHandle {
        self.submit_write_tagged(lba, nsect, data, 0)
    }

    /// Submits a write of `data` at `lba` on behalf of `stream`.
    fn submit_write_tagged(&self, lba: u64, nsect: u32, data: Vec<u8>, stream: u32) -> IoHandle {
        self.submit_write_for(lba, nsect, data, stream, SpanId::NONE)
    }

    /// Submits a write on behalf of `stream`, parenting the device's trace
    /// spans under `span`.
    fn submit_write_for(
        &self,
        lba: u64,
        nsect: u32,
        data: Vec<u8>,
        stream: u32,
        span: SpanId,
    ) -> IoHandle {
        self.submit(DiskRequest {
            op: DiskOp::Write,
            lba,
            nsect,
            data: Some(data),
            ordered: false,
            stream,
            span,
        })
    }
}

/// A shared handle to any block device — the type mounts actually hold.
pub type SharedDevice = Rc<dyn BlockDevice>;

/// Immediate resubmissions [`BlockDeviceExt::try_read`]/[`try_write`]
/// attempt on a transient [`IoStatus::MediaError`] before giving up.
/// Resubmission is free in virtual time (the mechanism still charges
/// rotation for the retry pass), so there is no backoff here — the
/// policy-level retry with backoff lives in `vfs::iopath`.
///
/// [`try_write`]: BlockDeviceExt::try_write
pub const EXT_RETRIES: u32 = 4;

/// Await-style convenience over any [`BlockDevice`] (including `dyn`).
/// Separate from the object-safe trait because async methods would make it
/// non-dispatchable.
#[allow(async_fn_in_trait)] // Single-threaded simulation: futures are !Send by design.
pub trait BlockDeviceExt: BlockDevice {
    /// Read and wait, resubmitting up to [`EXT_RETRIES`] times on a media
    /// error (transient faults clear under retry; latent ones do not).
    async fn try_read(&self, lba: u64, nsect: u32) -> Result<Vec<u8>, IoStatus>;

    /// Write and wait, with the same bounded retry as
    /// [`BlockDeviceExt::try_read`].
    async fn try_write(&self, lba: u64, nsect: u32, data: Vec<u8>) -> Result<(), IoStatus>;

    /// Read and wait.
    ///
    /// # Panics
    ///
    /// Panics if the device reports an unrecoverable error — for callers
    /// (mkfs, tests) that run on devices known to be healthy. Fallible
    /// paths use [`BlockDeviceExt::try_read`].
    async fn read(&self, lba: u64, nsect: u32) -> Vec<u8>;

    /// Write and wait.
    ///
    /// # Panics
    ///
    /// Panics on unrecoverable device errors, like
    /// [`BlockDeviceExt::read`].
    async fn write(&self, lba: u64, nsect: u32, data: Vec<u8>);
}

impl<T: BlockDevice + ?Sized> BlockDeviceExt for T {
    async fn try_read(&self, lba: u64, nsect: u32) -> Result<Vec<u8>, IoStatus> {
        let mut attempt = 0;
        loop {
            let res = self.submit_read(lba, nsect).wait().await;
            match res.status {
                IoStatus::Ok => return Ok(res.data.expect("read returns data").into_vec()),
                IoStatus::MediaError if attempt < EXT_RETRIES => attempt += 1,
                status => return Err(status),
            }
        }
    }

    async fn try_write(&self, lba: u64, nsect: u32, data: Vec<u8>) -> Result<(), IoStatus> {
        let mut attempt = 0;
        loop {
            // Submission consumes its payload, so retries need the original
            // kept here. These wrappers carry metadata traffic (superblock,
            // group headers, mkfs), not the clustered data path — the extra
            // clone per write is off the hot path, and the last attempt
            // moves the buffer instead of copying it.
            let payload = if attempt < EXT_RETRIES {
                data.clone()
            } else {
                return match self.submit_write(lba, nsect, data).wait().await.status {
                    IoStatus::Ok => Ok(()),
                    status => Err(status),
                };
            };
            let res = self.submit_write(lba, nsect, payload).wait().await;
            match res.status {
                IoStatus::Ok => return Ok(()),
                IoStatus::MediaError => attempt += 1,
                status => return Err(status),
            }
        }
    }

    async fn read(&self, lba: u64, nsect: u32) -> Vec<u8> {
        self.try_read(lba, nsect)
            .await
            .expect("unrecoverable device error on read")
    }

    async fn write(&self, lba: u64, nsect: u32, data: Vec<u8>) {
        self.try_write(lba, nsect, data)
            .await
            .expect("unrecoverable device error on write");
    }
}
