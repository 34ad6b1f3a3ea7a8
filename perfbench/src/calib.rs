//! Host speed calibration.
//!
//! A shared host's speed drifts by 20% and more from minute to minute,
//! mostly through the cost of faulting in fresh pages and of memory
//! traffic, which other machines on the host share; the simulator's host
//! time follows it. Each repetition therefore also times a fixed kernel
//! of the same kind of work, before and after its own work, and reports
//! its host times scaled to a reference speed: `time × REF_S / kernel`.
//! The kernel is the benchmark's own code and maps its memory straight
//! from the kernel, so nothing the program does changes its cost and it
//! leaves no state in the allocator the program uses.

use crate::host;

/// Bytes the kernel maps fresh, fills and copies.
const BYTES: usize = 16 << 20;

/// Dependent random loads the kernel makes across the region.
const CHASE_STEPS: usize = 100_000;

/// The kernel's median CPU time on the reference host (two vCPUs of a
/// shared x86-64 virtual machine). Scaled host times read as seconds on
/// that host at a steady speed.
pub const REF_S: f64 = 0.015;

/// Runs the kernel once and returns its CPU seconds: fault in `BYTES` of
/// fresh anonymous memory by filling half of it with a generated pattern
/// and copying that half, 8 KB at a time, into the other half, then chase
/// `CHASE_STEPS` pattern-chosen words through it.
pub fn kernel_s() -> f64 {
    let t = host::thread_cpu();
    let mut region = Region::map(BYTES);
    let words = region.words();
    let (src, dst) = words.split_at_mut(words.len() / 2);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for w in src.iter_mut() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *w = x;
    }
    for (d, s) in dst.chunks_mut(1024).zip(src.chunks(1024)) {
        d.copy_from_slice(s);
    }
    // Dependent loads at pattern-chosen places: memory latency, as in the
    // simulator's walks of its maps and queues.
    let mut at = 0usize;
    for _ in 0..CHASE_STEPS {
        at = (words[at] >> 11) as usize % words.len();
    }
    std::hint::black_box(at);
    drop(region);
    host::cpu_s_since(t)
}

/// Anonymous memory mapped for one kernel run and unmapped after it.
struct Region {
    ptr: *mut u64,
    len: usize,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    extern "C" {
        pub fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
            -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }
    pub const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    pub const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
    pub const MAP_FAILED: *mut u8 = !0usize as *mut u8;
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl Region {
    fn map(bytes: usize) -> Region {
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing touches no existing memory.
        let p = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                bytes,
                sys::PROT_READ_WRITE,
                sys::MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(p != sys::MAP_FAILED, "mmap of {bytes} bytes failed");
        Region {
            ptr: p.cast(),
            len: bytes / 8,
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly the mapping `map` created, and
        // no reference into it outlives `self`.
        let rc = unsafe { sys::munmap(self.ptr.cast(), self.len * 8) };
        assert_eq!(rc, 0, "munmap failed");
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
impl Region {
    fn map(bytes: usize) -> Region {
        let v = std::mem::ManuallyDrop::new(vec![0u64; bytes / 8]);
        Region {
            ptr: v.as_ptr() as *mut u64,
            len: v.len(),
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` came from the vector `map` leaked.
        drop(unsafe { Vec::from_raw_parts(self.ptr, self.len, self.len) });
    }
}

impl Region {
    fn words(&mut self) -> &mut [u64] {
        // SAFETY: the region is `len` zeroed (or mapped-zero) u64s, owned
        // by `self` and borrowed mutably through it.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_takes_time_and_returns_its_memory() {
        let before = crate::host::usage().max_rss_kb;
        let s = super::kernel_s();
        assert!(s > 0.0);
        let grew = crate::host::usage().max_rss_kb - before;
        assert!(grew <= (super::BYTES as u64 >> 10) + 1024, "grew {grew} KB");
        // The mapping is gone: a second run faults its pages in again, so
        // it costs about as much, not less.
        let again = super::kernel_s();
        assert!(again > s / 4.0, "{again} after {s}");
    }
}
