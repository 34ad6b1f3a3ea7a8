//! Disk request and completion types.

use std::cell::RefCell;
use std::rc::Rc;

use simkit::{Event, SimTime, SpanId};

use crate::store::DataView;

/// Direction of a transfer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DiskOp {
    /// Transfer from media to memory.
    Read,
    /// Transfer from memory to media.
    Write,
}

/// A request as submitted to the drive.
#[derive(Debug)]
pub struct DiskRequest {
    /// Direction.
    pub op: DiskOp,
    /// Starting sector.
    pub lba: u64,
    /// Sector count (must be positive).
    pub nsect: u32,
    /// Payload for writes (exactly `nsect` sectors); `None` for reads.
    pub data: Option<Vec<u8>>,
    /// The paper's proposed `B_ORDER` flag: this request may not be
    /// reordered with respect to any other request by `disksort`, the
    /// driver, or the controller.
    pub ordered: bool,
    /// The I/O stream this request belongs to (0 = untagged: metadata and
    /// other background traffic). Rides through the queue so per-stream
    /// sector counters can attribute every transfer to its originator.
    pub stream: u32,
    /// The tracer span this request belongs to (`SpanId::NONE` when the
    /// submitter is not tracing). The drive parents its `disk.queue` and
    /// `disk.service` child spans here, so a request's time in the driver
    /// nests under the file-system operation that issued it.
    pub span: SpanId,
}

/// How a request finished. Before the fault-injection layer existed every
/// request succeeded by construction; now completions carry a status and
/// every consumer must decide whether to retry, reconstruct, or surface
/// the failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoStatus {
    /// The transfer completed; reads carry data.
    Ok,
    /// An unrecoverable defect under the addressed sectors. Sector-local:
    /// other ranges of the device still work. Transient errors also report
    /// this — retrying is the caller's call.
    MediaError,
    /// The whole device stopped answering (spindle death, pulled cable).
    /// Retrying the same device is pointless; redundancy above may still
    /// recover.
    DeviceGone,
}

impl IoStatus {
    /// True for a successful completion.
    pub fn is_ok(self) -> bool {
        self == IoStatus::Ok
    }
}

/// Completion record delivered when a request finishes.
#[derive(Debug)]
pub struct IoResult {
    /// Data read from media (successful reads only; `None` on failure): a
    /// view sharing the platter image, copied out by the consumer.
    pub data: Option<DataView>,
    /// Virtual time at which the transfer completed (or failed).
    pub finished_at: SimTime,
    /// Outcome of the transfer.
    pub status: IoStatus,
}

impl IoResult {
    /// A successful completion at `finished_at` carrying `data`.
    pub fn ok(data: Option<DataView>, finished_at: SimTime) -> IoResult {
        IoResult {
            data,
            finished_at,
            status: IoStatus::Ok,
        }
    }

    /// A failed completion: no data, the given status.
    pub fn error(status: IoStatus, finished_at: SimTime) -> IoResult {
        debug_assert!(!status.is_ok(), "error result with Ok status");
        IoResult {
            data: None,
            finished_at,
            status,
        }
    }
}

#[derive(Default)]
pub(crate) struct IoSlot {
    pub(crate) result: Option<IoResult>,
}

/// Handle used to await a submitted request's completion.
pub struct IoHandle {
    pub(crate) event: Event,
    pub(crate) slot: Rc<RefCell<IoSlot>>,
}

impl IoHandle {
    /// Waits for the transfer to complete and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the same handle is awaited twice (the result is consumed).
    pub async fn wait(self) -> IoResult {
        self.event.wait().await;
        self.slot
            .borrow_mut()
            .result
            .take()
            .expect("IoHandle::wait consumed twice")
    }

    /// Returns `true` once the request has completed.
    pub fn is_done(&self) -> bool {
        self.event.is_signaled()
    }
}

pub(crate) fn new_handle() -> (IoHandle, Event, Rc<RefCell<IoSlot>>) {
    let event = Event::new();
    let slot = Rc::new(RefCell::new(IoSlot::default()));
    (
        IoHandle {
            event: event.clone(),
            slot: Rc::clone(&slot),
        },
        event,
        slot,
    )
}

/// Completion side of an [`IoHandle`], for devices layered above the drive
/// (a volume fans a request out to its spindles and completes the parent
/// handle itself once every child finishes).
pub struct IoCompletion {
    event: Event,
    slot: Rc<RefCell<IoSlot>>,
}

impl IoCompletion {
    /// Delivers the result and wakes the waiter. Consumes the completion:
    /// a request finishes exactly once.
    pub fn complete(self, result: IoResult) {
        self.slot.borrow_mut().result = Some(result);
        self.event.signal();
    }
}

/// Creates a connected handle/completion pair, for [`BlockDevice`]
/// implementations that service requests themselves instead of queueing
/// them on a drive mechanism.
///
/// [`BlockDevice`]: crate::BlockDevice
pub fn handle_pair() -> (IoHandle, IoCompletion) {
    let (handle, event, slot) = new_handle();
    (handle, IoCompletion { event, slot })
}
