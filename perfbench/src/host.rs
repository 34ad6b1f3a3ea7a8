//! Host resource counters for this process, from `getrusage(2)`, and the
//! CPU clock of the calling thread, from `clock_gettime(2)`.
//!
//! Host times are CPU time of the thread that drives the simulation, not
//! wall time: on a shared host, wall time also counts the time the thread
//! waited for a core (run queue, or a hypervisor's steal), which says more
//! about the neighbours than about the simulator. The simulation runs on
//! one thread and never blocks, so when it has a core to itself its CPU
//! time equals its wall time.

use std::time::Duration;

/// Peak resident set size and minor page faults so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub max_rss_kb: u64,
    pub minflt: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        ixrss: i64,
        idrss: i64,
        isrss: i64,
        minflt: i64,
        majflt: i64,
        rest: [i64; 8],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` has the layout of Linux's `struct rusage` on 64-bit
    // targets (two timevals, then fourteen longs); getrusage only writes
    // that struct through the pointer, which is valid for the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    // SAFETY: zero-initialised and then filled by a successful call.
    let ru = unsafe { ru.assume_init() };
    Usage {
        max_rss_kb: ru.maxrss.max(0) as u64,
        minflt: ru.minflt.max(0) as u64,
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    Usage::default()
}

/// CPU time the calling thread has used so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` has the layout of Linux's `struct timespec` on
    // 64-bit targets; clock_gettime only writes it through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Wall time stands in where no thread CPU clock is available.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu() -> Duration {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed()
}

/// Seconds of this thread's CPU time since `since` (a `thread_cpu()`
/// reading).
pub fn cpu_s_since(since: Duration) -> f64 {
    thread_cpu().saturating_sub(since).as_secs_f64()
}

#[cfg(test)]
mod tests {
    #[test]
    fn thread_cpu_counts_work_not_sleep() {
        let t0 = super::thread_cpu();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = super::cpu_s_since(t0);
        assert!(slept < 0.025, "sleeping used {slept} s of CPU");
        let t1 = super::thread_cpu();
        let mut x = 0u64;
        while super::cpu_s_since(t1) < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(super::cpu_s_since(t1) >= 0.02);
    }

    #[test]
    fn counters_are_live() {
        let a = super::usage();
        let v = vec![1u8; 8 << 20];
        std::hint::black_box(&v);
        let b = super::usage();
        assert!(b.max_rss_kb > 0);
        assert!(b.minflt > a.minflt, "touching 8 MB must fault pages in");
    }
}
