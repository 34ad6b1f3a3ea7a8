//! A pass-through device decorator that logs every request, and a replay
//! of that log against a fresh device in a fresh simulation.
//!
//! The replay isolates one layer's host cost: the same request stream,
//! arriving at the same virtual instants, is serviced by a new device
//! with nothing above it, so its host time and allocations per request
//! belong to that device alone (for a volume: the volume and its
//! spindles).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use diskmodel::{BlockDevice, DiskOp, DiskRequest, DiskStats, IoHandle, SharedDevice};
use simkit::{Sim, SimTime, SpanId, TimeHandle};

/// One logged submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Virtual submit time.
    pub at: SimTime,
    /// Index of the logged device (a spindle number; 0 for a lone device).
    pub target: usize,
    pub op: DiskOp,
    pub lba: u64,
    pub nsect: u32,
    pub ordered: bool,
    pub stream: u32,
}

/// A shared request log.
pub type Log = Rc<RefCell<Vec<Entry>>>;

/// Wraps a device and records each submission before forwarding it
/// unchanged.
pub struct Tap {
    inner: SharedDevice,
    time: TimeHandle,
    target: usize,
    log: Log,
}

impl Tap {
    pub fn wrap(sim: &Sim, inner: SharedDevice, target: usize, log: &Log) -> SharedDevice {
        Rc::new(Tap {
            inner,
            time: sim.time_handle(),
            target,
            log: Rc::clone(log),
        })
    }
}

impl BlockDevice for Tap {
    fn submit(&self, req: DiskRequest) -> IoHandle {
        self.log.borrow_mut().push(Entry {
            at: self.time.now(),
            target: self.target,
            op: req.op,
            lba: req.lba,
            nsect: req.nsect,
            ordered: req.ordered,
            stream: req.stream,
        });
        self.inner.submit(req)
    }

    fn sector_size(&self) -> u32 {
        self.inner.sector_size()
    }

    fn total_sectors(&self) -> u64 {
        self.inner.total_sectors()
    }

    fn sector_time_ns(&self) -> u64 {
        self.inner.sector_time_ns()
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

/// What a replay cost and what it reproduced.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    pub requests: u64,
    pub host_s: f64,
    /// Allocations during the replay (zero unless the counting allocator
    /// is installed and armed).
    pub allocs: u64,
    /// The fresh simulation's `disk.busy_ns` when the replay finished.
    pub busy_ns: u64,
}

/// Byte written by replayed writes: non-zero, so the sector store keeps
/// the data as it did for the logged run.
const REPLAY_FILL: u8 = 0xa5;

/// Replays `log` (sorted by submit time) against the devices `build`
/// creates in a fresh simulation, submitting each request at its logged
/// virtual instant, and waits for every completion.
pub fn replay(log: &[Entry], build: impl FnOnce(&Sim) -> Vec<SharedDevice>) -> Replay {
    let sim = Sim::new();
    let devices = build(&sim);
    let entries = log.to_vec();
    let s = sim.clone();
    let allocs0 = simkit::perfmon::thread_alloc_counts().0;
    let started = Instant::now();
    sim.run_until(async move {
        let mut pending: VecDeque<IoHandle> = VecDeque::new();
        for e in entries {
            s.sleep_until(e.at).await;
            let data = match e.op {
                DiskOp::Read => None,
                DiskOp::Write => Some(vec![REPLAY_FILL; e.nsect as usize * 512]),
            };
            pending.push_back(devices[e.target].submit(DiskRequest {
                op: e.op,
                lba: e.lba,
                nsect: e.nsect,
                data,
                ordered: e.ordered,
                stream: e.stream,
                span: SpanId::NONE,
            }));
            while pending.front().is_some_and(IoHandle::is_done) {
                let done = pending.pop_front().expect("front exists");
                done.wait().await;
            }
        }
        for h in pending {
            h.wait().await;
        }
    });
    Replay {
        requests: log.len() as u64,
        host_s: started.elapsed().as_secs_f64(),
        allocs: simkit::perfmon::thread_alloc_counts().0 - allocs0,
        busy_ns: sim.stats().counter_value("disk.busy_ns"),
    }
}

/// Merges per-device logs into one log in submit order (ties keep device
/// order, then each device's own order).
pub fn merge(logs: &[Log]) -> Vec<Entry> {
    let mut all: Vec<Entry> = logs.iter().flat_map(|l| l.borrow().clone()).collect();
    all.sort_by_key(|e| e.at);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::{BlockDeviceExt, Disk, DiskParams};

    /// Drives a small mixed request stream and returns the registry JSON.
    fn drive(tapped: bool) -> (String, usize) {
        let sim = Sim::new();
        let disk: SharedDevice = Rc::new(Disk::new(&sim, DiskParams::small_test()));
        let log: Log = Rc::default();
        let dev = if tapped {
            Tap::wrap(&sim, disk, 0, &log)
        } else {
            disk
        };
        let s = sim.clone();
        sim.run_until(async move {
            for i in 0..20u64 {
                let lba = (i * 7919) % 4000;
                dev.write(lba, 8, vec![i as u8; 8 * 512]).await;
                let back = dev.read(lba, 8).await;
                assert!(back.iter().all(|&b| b == i as u8));
                s.sleep(simkit::SimDuration::from_micros(300)).await;
            }
        });
        let n = log.borrow().len();
        (sim.stats().to_json(), n)
    }

    #[test]
    fn tap_is_a_pure_pass_through() {
        let (plain, _) = drive(false);
        let (tapped, logged) = drive(true);
        assert_eq!(plain, tapped, "the tap must not change the simulation");
        assert_eq!(logged, 40, "every submit is logged");
    }

    #[test]
    fn replay_reproduces_busy_time() {
        let sim = Sim::new();
        let log: Log = Rc::default();
        let dev = Tap::wrap(
            &sim,
            Rc::new(Disk::new(&sim, DiskParams::small_test())),
            0,
            &log,
        );
        let s = sim.clone();
        sim.run_until(async move {
            let a = dev.submit_read(100, 16);
            let b = dev.submit_write(3000, 8, vec![1; 4096]);
            a.wait().await;
            s.sleep(simkit::SimDuration::from_millis(3)).await;
            dev.read(40, 4).await;
            b.wait().await;
        });
        let busy = sim.stats().counter_value("disk.busy_ns");
        let r = replay(&log.borrow(), |s| {
            vec![Rc::new(Disk::new(s, DiskParams::small_test())) as SharedDevice]
        });
        assert_eq!(r.requests, 3);
        assert_eq!(r.busy_ns, busy);
    }
}
