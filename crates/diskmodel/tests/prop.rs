//! Property tests for the disk simulator: whatever the request mix, every
//! request completes, data round-trips exactly, ordering constraints hold,
//! and the virtual clock only moves forward.

use diskmodel::{BlockDevice, BlockDeviceExt, Disk, DiskOp, DiskParams, DiskRequest};
use proptest::prelude::*;
use simkit::Sim;

#[derive(Clone, Debug)]
struct Req {
    write: bool,
    lba: u64,
    nsect: u32,
    seed: u8,
    ordered: bool,
}

fn req_strategy(max_lba: u64) -> impl Strategy<Value = Req> {
    (
        any::<bool>(),
        0..max_lba - 64,
        1u32..32,
        any::<u8>(),
        prop::bool::weighted(0.1),
    )
        .prop_map(|(write, lba, nsect, seed, ordered)| Req {
            write,
            lba,
            nsect,
            seed,
            ordered,
        })
}

fn payload(nsect: u32, seed: u8) -> Vec<u8> {
    (0..nsect as usize * 512)
        .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Concurrent submission: every request completes; completion times are
    /// monotone per the single-server mechanism; reads after quiesce see
    /// the last write to each sector.
    #[test]
    fn all_requests_complete_and_data_round_trips(
        reqs in proptest::collection::vec(req_strategy(16_000), 1..40),
        coalesce in any::<bool>(),
        disksort in any::<bool>(),
    ) {
        let sim = Sim::new();
        let params = DiskParams {
            coalesce_limit: if coalesce { Some(112) } else { None },
            use_disksort: disksort,
            ..DiskParams::small_test()
        };
        let disk = Disk::new(&sim, params);
        let d = disk.clone();
        let reqs2 = reqs.clone();
        sim.run_until(async move {
            // Submit everything up front, then await all completions.
            let handles: Vec<_> = reqs2
                .iter()
                .map(|r| {
                    d.submit(DiskRequest {
                        op: if r.write { DiskOp::Write } else { DiskOp::Read },
                        lba: r.lba,
                        nsect: r.nsect,
                        data: r.write.then(|| payload(r.nsect, r.seed)),
                        ordered: r.ordered,
                        stream: 0,
                        span: simkit::SpanId::NONE,
                    })
                })
                .collect();
            let mut ordered_times = Vec::new();
            for (h, r) in handles.into_iter().zip(reqs2.iter()) {
                let result = h.wait().await;
                if r.ordered {
                    ordered_times.push((result.finished_at, r.lba));
                }
                if !r.write {
                    let data = result.data.expect("reads return data");
                    assert_eq!(data.len(), r.nsect as usize * 512);
                    // A read no write overlaps sees the blank platter,
                    // whatever order the elevator serviced things in.
                    let untouched = !reqs2.iter().any(|o| {
                        o.write && o.lba < r.lba + r.nsect as u64 && r.lba < o.lba + o.nsect as u64
                    });
                    if untouched {
                        assert!(data.into_vec().iter().all(|&b| b == 0), "read saw phantom data");
                    }
                }
            }
            // Verify final sector contents: replay the writes in submission
            // order is NOT valid under reordering, so instead check each
            // write whose range no later-submitted write overlaps.
            for (i, r) in reqs2.iter().enumerate() {
                if !r.write {
                    continue;
                }
                let overlapped = reqs2.iter().enumerate().any(|(j, o)| {
                    j != i
                        && o.write
                        && o.lba < r.lba + r.nsect as u64
                        && r.lba < o.lba + o.nsect as u64
                });
                if !overlapped {
                    let got = d.read(r.lba, r.nsect).await;
                    assert_eq!(got, payload(r.nsect, r.seed), "write {i} lost");
                }
            }
        });
    }

    /// `B_ORDER` requests complete in submission order relative to each
    /// other, whatever else is in the queue.
    #[test]
    fn ordered_requests_complete_in_submission_order(
        reqs in proptest::collection::vec(req_strategy(16_000), 2..30),
    ) {
        let sim = Sim::new();
        let disk = Disk::new(&sim, DiskParams::small_test());
        let d = disk.clone();
        sim.run_until(async move {
            let handles: Vec<_> = reqs
                .iter()
                .map(|r| {
                    d.submit(DiskRequest {
                        op: DiskOp::Write,
                        lba: r.lba,
                        nsect: r.nsect,
                        data: Some(payload(r.nsect, r.seed)),
                        ordered: r.ordered,
                        stream: 0,
                        span: simkit::SpanId::NONE,
                    })
                })
                .collect();
            let mut last_ordered = None;
            for (h, r) in handles.into_iter().zip(reqs.iter()) {
                let t = h.wait().await.finished_at;
                if r.ordered {
                    if let Some(prev) = last_ordered {
                        assert!(t > prev, "B_ORDER completions out of order");
                    }
                    last_ordered = Some(t);
                }
            }
        });
    }
}
