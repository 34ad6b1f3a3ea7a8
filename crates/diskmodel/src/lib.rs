//! # diskmodel — a rotating-disk simulator
//!
//! Models the drive the paper measures on — a ~400 MB 3.5" SCSI disk with a
//! track buffer — down to the physics its results depend on:
//!
//! - **Rotation**: the platter's angular position is a pure function of the
//!   virtual clock, so a request that arrives "just too late" genuinely
//!   waits almost a full revolution — the effect the file system's
//!   `rotdelay` gap exists to avoid.
//! - **Seeks and head switches**, with per-track skew so sequential
//!   transfers survive track crossings.
//! - **Track buffer**: reads capture the whole track; writes are
//!   write-through (the reason the paper rejects "just set rotdelay to 0"
//!   without clustering — write performance "suffers horribly").
//! - **`disksort`**: the BSD one-way elevator, plus the paper's proposed
//!   `B_ORDER` barrier flag and the rejected driver-clustering
//!   (request-coalescing) alternative.
//! - **Real bytes**: a sparse sector store backs the platters, so file
//!   systems above round-trip genuine data.
//!
//! The drive is a single-server queueing station: one mechanism services one
//! (possibly coalesced) request at a time while the queue grows behind it.

pub mod device;
pub mod disk;
pub mod fault;
pub mod geometry;
mod queue;
pub mod request;
pub mod store;
mod trackbuf;

pub use device::{BlockDevice, BlockDeviceExt, SharedDevice, EXT_RETRIES};
pub use disk::{Disk, DiskParams, DiskStats, SeekModel};
pub use fault::{FaultDevice, FaultParseError, FaultPlan, ReplayWrite, SpindleFaults};
pub use geometry::{Chs, Geometry, Zone};
pub use request::{handle_pair, DiskOp, DiskRequest, IoCompletion, IoHandle, IoResult, IoStatus};
pub use store::{DataView, SectorStore};

use simkit::SimDuration;

/// Internal shorthand for nanosecond durations.
pub(crate) fn ns(n: u64) -> SimDuration {
    SimDuration::from_nanos(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{Sim, SimDuration, SimTime};

    fn test_disk(sim: &Sim) -> Disk {
        Disk::new(sim, DiskParams::small_test())
    }

    #[test]
    fn write_read_roundtrip_through_mechanism() {
        let sim = Sim::new();
        let disk = test_disk(&sim);
        let d = disk.clone();
        sim.run_until(async move {
            let payload: Vec<u8> = (0..2 * 512).map(|i| (i % 250) as u8).collect();
            d.write(100, 2, payload.clone()).await;
            let got = d.read(100, 2).await;
            assert_eq!(got, payload);
        });
        let stats = disk.stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.sectors_written, 2);
        assert_eq!(stats.sectors_read, 2);
    }

    #[test]
    fn read_takes_physical_time() {
        let sim = Sim::new();
        let disk = test_disk(&sim);
        let d = disk.clone();
        sim.run_until(async move {
            d.read(0, 1).await;
        });
        // At minimum: controller overhead (0.5 ms) + transfer of one sector
        // (rev/32 ≈ 0.52 ms). Rotational wait at t=0 for slot 0 is 0.
        let elapsed = sim.now().duration_since(SimTime::ZERO);
        assert!(
            elapsed >= SimDuration::from_micros(1000),
            "one sector read took {elapsed}"
        );
        assert!(
            elapsed < SimDuration::from_millis(25),
            "one sector read took {elapsed}"
        );
    }

    #[test]
    fn sequential_read_of_whole_track_is_one_revolution_ish() {
        let sim = Sim::new();
        let disk = test_disk(&sim);
        let d = disk.clone();
        let g = disk.geometry().clone();
        sim.run_until(async move {
            d.read(0, g.sectors_per_track).await;
        });
        let rev = SimDuration::from_nanos(disk.geometry().rev_time_ns());
        let elapsed = sim.now().duration_since(SimTime::ZERO);
        // Worst case: initial rotational latency of nearly one revolution
        // plus exactly one revolution of transfer.
        assert!(
            elapsed < rev * 2 + SimDuration::from_millis(2),
            "full-track read took {elapsed}, rev is {rev}"
        );
    }

    #[test]
    fn late_arriving_adjacent_read_without_buffer_blows_a_revolution() {
        // The paper's core physics: read block k; think for a while; read
        // block k+1. Without a track buffer the platter has rotated past it.
        let sim = Sim::new();
        let disk = Disk::new(
            &sim,
            DiskParams {
                track_buffer: false,
                ..DiskParams::small_test()
            },
        );
        let d = disk.clone();
        let s = sim.clone();
        let t2 = sim.run_until(async move {
            d.read(0, 8).await;
            // "CPU time" gap: 1 ms of thinking.
            s.sleep(SimDuration::from_millis(1)).await;
            let before = s.now();
            d.read(8, 8).await;
            s.now().duration_since(before)
        });
        let rev = SimDuration::from_nanos(disk.geometry().rev_time_ns());
        // The second read must wait for the platter to come around again:
        // clearly more than half a revolution.
        assert!(
            t2 > rev.mul_f64(0.5),
            "adjacent read after a think-gap took only {t2} (rev = {rev})"
        );
    }

    #[test]
    fn track_buffer_turns_adjacent_read_into_fast_hit() {
        let sim = Sim::new();
        let disk = test_disk(&sim); // Track buffer on.
        let d = disk.clone();
        let s = sim.clone();
        let t2 = sim.run_until(async move {
            d.read(0, 8).await;
            // Wait a full revolution so the fill certainly completed.
            s.sleep(SimDuration::from_millis(20)).await;
            let before = s.now();
            d.read(8, 8).await;
            s.now().duration_since(before)
        });
        let rev = SimDuration::from_nanos(disk.geometry().rev_time_ns());
        assert!(
            t2 < rev.mul_f64(0.25),
            "buffered adjacent read took {t2} (rev = {rev})"
        );
        assert_eq!(disk.stats().trackbuf_hits, 1);
    }

    #[test]
    fn writes_do_not_hit_the_track_buffer() {
        // Write-through: a write after a read of the same sectors still
        // pays full mechanical cost.
        let sim = Sim::new();
        let disk = test_disk(&sim);
        let d = disk.clone();
        let s = sim.clone();
        let wtime = sim.run_until(async move {
            d.read(0, 8).await;
            s.sleep(SimDuration::from_millis(20)).await;
            let before = s.now();
            d.write(0, 8, vec![7u8; 8 * 512]).await;
            s.now().duration_since(before)
        });
        // Must include rotational wait: more than the bare transfer time.
        let xfer = SimDuration::from_nanos(8 * disk.geometry().sector_time_ns(0));
        assert!(wtime > xfer, "write serviced too fast: {wtime}");
        assert_eq!(disk.stats().trackbuf_hits, 0);
    }

    #[test]
    fn multi_track_read_crosses_with_skew_not_full_rev() {
        let sim = Sim::new();
        let disk = test_disk(&sim);
        let d = disk.clone();
        let g = disk.geometry().clone();
        let spt = g.sectors_per_track;
        sim.run_until(async move {
            d.read(0, spt * 2).await; // Two full tracks.
        });
        let rev = SimDuration::from_nanos(disk.geometry().rev_time_ns());
        let elapsed = sim.now().duration_since(SimTime::ZERO);
        // Up to one revolution of initial latency, two revolutions of data,
        // plus a skewed head switch — the switch must NOT cost a whole
        // extra revolution.
        assert!(
            elapsed < rev.mul_f64(3.3),
            "two-track read took {elapsed} (rev = {rev})"
        );
    }

    #[test]
    fn queued_requests_are_elevator_ordered() {
        let sim = Sim::new();
        let disk = test_disk(&sim);
        let g = disk.geometry().clone();
        let spc = (g.sectors_per_track * g.heads) as u64;
        // Submit far, near, middle while the mechanism is busy with a read.
        let d = disk.clone();
        let (f, near_t, mid_t, far_t) = sim.run_until(async move {
            let first = d.submit_read(0, 4);
            let far = d.submit_read(spc * 100, 4);
            let near = d.submit_read(spc * 10, 4);
            let mid = d.submit_read(spc * 50, 4);
            let f = first.wait().await.finished_at;
            let a = far.wait().await.finished_at;
            let b = near.wait().await.finished_at;
            let c = mid.wait().await.finished_at;
            (f, b, c, a)
        });
        assert!(
            f < near_t && near_t < mid_t && mid_t < far_t,
            "elevator should service near, mid, far in ascending order: \
             {f:?} {near_t:?} {mid_t:?} {far_t:?}"
        );
    }

    #[test]
    fn fifo_mode_services_in_submission_order() {
        let sim = Sim::new();
        let disk = Disk::new(
            &sim,
            DiskParams {
                use_disksort: false,
                ..DiskParams::small_test()
            },
        );
        let g = disk.geometry().clone();
        let spc = (g.sectors_per_track * g.heads) as u64;
        let d = disk.clone();
        let (far_t, near_t) = sim.run_until(async move {
            let _first = d.submit_read(0, 4);
            let far = d.submit_read(spc * 100, 4);
            let near = d.submit_read(spc * 10, 4);
            let a = far.wait().await.finished_at;
            let b = near.wait().await.finished_at;
            (a, b)
        });
        assert!(far_t < near_t, "FIFO must not reorder");
    }

    #[test]
    fn b_order_barrier_forces_service_order() {
        let sim = Sim::new();
        let disk = test_disk(&sim);
        let g = disk.geometry().clone();
        let spc = (g.sectors_per_track * g.heads) as u64;
        let d = disk.clone();
        let (ordered_t, late_t) = sim.run_until(async move {
            let _busy = d.submit_read(spc * 50, 4);
            // An ordered metadata write far away...
            let ordered = d.submit(DiskRequest {
                op: DiskOp::Write,
                lba: spc * 100,
                nsect: 2,
                data: Some(vec![1u8; 1024]),
                ordered: true,
                stream: 0,
                span: simkit::SpanId::NONE,
            });
            // ...then a tempting nearby write submitted after it.
            let late = d.submit_write(spc * 50 + 8, 2, vec![2u8; 1024]);
            let o = ordered.wait().await.finished_at;
            let l = late.wait().await.finished_at;
            (o, l)
        });
        assert!(
            ordered_t < late_t,
            "B_ORDER write must be serviced before later submissions"
        );
    }

    #[test]
    fn driver_clustering_coalesces_contiguous_writes() {
        let sim = Sim::new();
        let disk = Disk::new(
            &sim,
            DiskParams {
                coalesce_limit: Some(112), // 56 KB, the paper's 16-bit-driver cap.
                ..DiskParams::small_test()
            },
        );
        let d = disk.clone();
        let got = sim.run_until(async move {
            // Keep the mechanism busy so the queue builds up.
            let busy = d.submit_read(3000, 4);
            let mut handles = Vec::new();
            for i in 0..6u64 {
                handles.push(d.submit_write(i * 8, 8, vec![i as u8; 8 * 512]));
            }
            busy.wait().await;
            for h in handles {
                h.wait().await;
            }
            // Data integrity across the merge.
            d.read(16, 8).await
        });
        let stats = disk.stats();
        assert!(
            stats.coalesced >= 5,
            "6 contiguous writes should coalesce, got {} merges",
            stats.coalesced
        );
        assert_eq!(stats.sectors_written, 48);
        assert!(got.iter().all(|&b| b == 2));
    }

    #[test]
    fn zero_length_request_panics() {
        let sim = Sim::new();
        let disk = test_disk(&sim);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            disk.submit_read(0, 0);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn stats_accumulate_phases() {
        let sim = Sim::new();
        let disk = test_disk(&sim);
        let d = disk.clone();
        let g = disk.geometry().clone();
        let spc = (g.sectors_per_track * g.heads) as u64;
        sim.run_until(async move {
            d.read(0, 4).await;
            d.read(spc * 100, 4).await; // Forces a seek.
        });
        let st = disk.stats();
        assert_eq!(st.reads, 2);
        assert_eq!(st.seeks, 1);
        assert!(st.seek_time > SimDuration::ZERO);
        assert!(st.transfer_time > SimDuration::ZERO);
        assert!(st.busy >= st.transfer_time);
    }

    #[test]
    fn zoned_drive_outer_tracks_transfer_faster() {
        let g = Geometry::zoned_example();
        // Outer zone: 80 sectors/track; inner: 48. Same rev time, so the
        // outer zone moves ~1.67x the data per revolution.
        let outer = g.sector_time_ns(0);
        let inner = g.sector_time_ns(250);
        assert!(inner > outer);
        let sim = Sim::new();
        let disk = Disk::new(
            &sim,
            DiskParams {
                geometry: g,
                track_buffer: false,
                ..DiskParams::small_test()
            },
        );
        let d = disk.clone();
        let s = sim.clone();
        let (t_outer, t_inner) = sim.run_until(async move {
            let a = s.now();
            d.read(0, 160).await; // Two outer tracks.
            let t_outer = s.now().duration_since(a);
            // An inner-zone LBA aligned to a track start.
            let inner_lba = (100u64 * 4 * 80 + 100 * 4 * 64) + 10 * 48;
            let b = s.now();
            d.read(inner_lba, 96).await; // Two inner tracks.
            (t_outer, s.now().duration_since(b))
        });
        // Outer read moves 160 sectors in ~2 revs; inner read moves 96 in
        // ~2 revs. Bytes/time clearly favors the outer zone.
        let outer_rate = 160.0 / t_outer.as_secs_f64();
        let inner_rate = 96.0 / t_inner.as_secs_f64();
        assert!(
            outer_rate > inner_rate * 1.2,
            "outer {outer_rate:.0} sect/s vs inner {inner_rate:.0} sect/s"
        );
    }
}
