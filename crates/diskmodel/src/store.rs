//! Sparse byte storage behind the simulated platters, and the shared
//! views reads complete with.
//!
//! The disk stores *real data* so the file system above it round-trips
//! metadata and file contents for real (and `fsck` can check genuinely
//! written state). Storage is sparse: untouched regions read back as zeros
//! without occupying host memory.
//!
//! Chunks are reference-counted and copy-on-write. A read does not copy
//! bytes out; it returns a [`DataView`] holding references to the chunks
//! it covers, and the consumer (a page-cache fill, a RAID reconstruction)
//! copies straight from the platter image into its own buffer. A write to
//! a chunk some view still holds clones the chunk first, so a view always
//! shows the bytes as they were when the read completed.

use std::fmt;
use std::rc::Rc;

use simkit::IntMap;

const CHUNK_SECTORS: u64 = 128; // 64 KB chunks at 512 B sectors.

/// Yields one chunk-aligned run per chunk touched by `[lba, lba + nsect)`:
/// `(chunk_idx, byte offset within the chunk, byte offset within the
/// transfer, run length in bytes)`. Lets `read`/`write` do one hash lookup
/// and one `copy_from_slice` per chunk instead of one per sector.
fn chunk_runs(
    lba: u64,
    nsect: u32,
    sector_size: usize,
) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let end = lba + nsect as u64;
    let mut sector = lba;
    std::iter::from_fn(move || {
        if sector >= end {
            return None;
        }
        let chunk_idx = sector / CHUNK_SECTORS;
        let chunk_end = (chunk_idx + 1) * CHUNK_SECTORS;
        let stop = end.min(chunk_end);
        let run = (stop - sector) as usize * sector_size;
        let within = (sector % CHUNK_SECTORS) as usize * sector_size;
        let xfer = (sector - lba) as usize * sector_size;
        sector = stop;
        Some((chunk_idx, within, xfer, run))
    })
}

/// Word-at-a-time zero check: benchmark writes are predominantly zero
/// payloads over absent chunks, so this runs over nearly every written
/// byte and a per-byte loop would dominate the submit path.
fn is_all_zero(data: &[u8]) -> bool {
    let (head, words, tail) = unsafe { data.align_to::<u64>() };
    head.iter().all(|&b| b == 0) && words.iter().all(|&w| w == 0) && tail.iter().all(|&b| b == 0)
}

/// One chunk of platter bytes, shared with the views that read it.
type Chunk = Rc<Vec<u8>>;

/// One run of a [`DataView`]: `len` bytes from offset `off` of a shared
/// buffer, or `len` zeros when `buf` is `None` (an absent store chunk).
#[derive(Clone)]
struct Seg {
    buf: Option<Chunk>,
    off: usize,
    len: usize,
}

/// A read-only, cheaply clonable view of bytes: the payload of a completed
/// read. It references the store chunks (or other shared buffers) it
/// covers instead of owning a copy; [`DataView::copy_to`] moves the bytes
/// to where they are going in one copy, and [`DataView::into_vec`] gives
/// an owned buffer to callers that want one.
#[derive(Clone, Default)]
pub struct DataView {
    segs: Vec<Seg>,
    len: usize,
}

impl DataView {
    /// A view owning `data` (no copy).
    pub fn from_vec(data: Vec<u8>) -> DataView {
        let len = data.len();
        let mut v = DataView::default();
        v.push(Some(Rc::new(data)), 0, len);
        v
    }

    /// Concatenates `parts` in order.
    pub fn concat(parts: impl IntoIterator<Item = DataView>) -> DataView {
        let mut v = DataView::default();
        for part in parts {
            for seg in part.segs {
                v.push(seg.buf, seg.off, seg.len);
            }
        }
        v
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, buf: Option<Chunk>, off: usize, len: usize) {
        if len > 0 {
            self.len += len;
            self.segs.push(Seg { buf, off, len });
        }
    }

    /// Calls `f(dst_offset, bytes)` for each run overlapping
    /// `[off, off + len)`, `bytes` being `None` for a run of zeros.
    fn runs(&self, off: usize, len: usize, mut f: impl FnMut(usize, Option<&[u8]>, usize)) {
        assert!(
            off + len <= self.len,
            "range {off}+{len} beyond view of {} bytes",
            self.len
        );
        let end = off + len;
        let mut pos = 0;
        for seg in &self.segs {
            let (lo, hi) = (pos.max(off), (pos + seg.len).min(end));
            if lo < hi {
                let from = seg.off + (lo - pos);
                let bytes = seg.buf.as_ref().map(|b| &b[from..from + (hi - lo)]);
                f(lo - off, bytes, hi - lo);
            }
            pos += seg.len;
            if pos >= end {
                break;
            }
        }
    }

    /// Copies the view's bytes `[off, off + dst.len())` into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the view.
    pub fn copy_to(&self, off: usize, dst: &mut [u8]) {
        self.runs(off, dst.len(), |at, bytes, n| match bytes {
            Some(b) => dst[at..at + n].copy_from_slice(b),
            None => dst[at..at + n].fill(0),
        });
    }

    /// XORs the view into `dst` byte for byte (parity arithmetic); runs
    /// of zeros cost nothing.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is longer than the view.
    pub fn xor_into(&self, dst: &mut [u8]) {
        self.runs(0, dst.len(), |at, bytes, n| {
            if let Some(b) = bytes {
                for (d, s) in dst[at..at + n].iter_mut().zip(b) {
                    *d ^= s;
                }
            }
        });
    }

    /// The sub-view `[off, off + len)`, sharing the same buffers.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the view.
    pub fn slice(&self, off: usize, len: usize) -> DataView {
        let mut v = DataView::default();
        let mut pos = 0;
        for seg in &self.segs {
            if pos >= off + len {
                break;
            }
            let (lo, hi) = (pos.max(off), (pos + seg.len).min(off + len));
            if lo < hi {
                v.push(seg.buf.clone(), seg.off + (lo - pos), hi - lo);
            }
            pos += seg.len;
        }
        assert_eq!(
            v.len, len,
            "slice {off}+{len} beyond view of {} bytes",
            self.len
        );
        v
    }

    /// The bytes as an owned buffer.
    pub fn into_vec(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        self.runs(0, self.len, |_, bytes, n| match bytes {
            Some(b) => out.extend_from_slice(b),
            None => out.resize(out.len() + n, 0),
        });
        out
    }
}

impl fmt::Debug for DataView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataView")
            .field("len", &self.len)
            .field("runs", &self.segs.len())
            .finish()
    }
}

/// Sparse sector-addressed storage.
pub struct SectorStore {
    sector_size: usize,
    total_sectors: u64,
    chunks: IntMap<u64, Chunk>,
}

impl SectorStore {
    /// Creates a zero-filled store of `total_sectors` sectors.
    pub fn new(sector_size: u32, total_sectors: u64) -> Self {
        SectorStore {
            sector_size: sector_size as usize,
            total_sectors,
            chunks: IntMap::default(),
        }
    }

    /// Bytes per sector.
    pub fn sector_size(&self) -> usize {
        self.sector_size
    }

    /// Total capacity in sectors.
    pub fn total_sectors(&self) -> u64 {
        self.total_sectors
    }

    /// Number of materialized (written-to) chunks, for memory accounting.
    pub fn resident_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Clips `nsect` so `[lba, lba + nsect)` stays within capacity. Out of
    /// range is an upstream bug (devices validate at submit): the debug
    /// build trips the assertion, the release build clamps — unreachable
    /// sectors read as zeros and writes beyond the end are dropped —
    /// instead of corrupting memory or dying.
    fn clip_range(&self, lba: u64, nsect: u32) -> u32 {
        debug_assert!(
            lba + nsect as u64 <= self.total_sectors,
            "sector range {lba}+{nsect} beyond capacity {}",
            self.total_sectors
        );
        self.total_sectors.saturating_sub(lba).min(nsect as u64) as u32
    }

    /// Reads `nsect` sectors starting at `lba`, as a view sharing the
    /// store's chunks: no bytes are copied until the caller copies them.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the range exceeds the device capacity;
    /// release builds return zeros for the out-of-range tail.
    pub fn read(&self, lba: u64, nsect: u32) -> DataView {
        let clipped = self.clip_range(lba, nsect);
        let mut view = DataView::default();
        for (chunk_idx, within, _, run) in chunk_runs(lba, clipped, self.sector_size) {
            match self.chunks.get(&chunk_idx) {
                Some(chunk) => view.push(Some(Rc::clone(chunk)), within, run),
                None => view.push(None, 0, run),
            }
        }
        view.push(None, 0, (nsect - clipped) as usize * self.sector_size);
        view
    }

    /// Writes `data` (must be exactly `nsect` sectors) starting at `lba`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the range exceeds capacity or `data` has the
    /// wrong length; release builds clip to the sectors actually covered.
    pub fn write(&mut self, lba: u64, nsect: u32, data: &[u8]) {
        let mut clipped = self.clip_range(lba, nsect);
        debug_assert_eq!(
            data.len(),
            nsect as usize * self.sector_size,
            "write data length mismatch"
        );
        // A short payload covers fewer sectors than claimed: write what is
        // actually there rather than reading past the slice.
        clipped = clipped.min((data.len() / self.sector_size) as u32);
        let sector_size = self.sector_size;
        for (chunk_idx, within, xfer, run) in chunk_runs(lba, clipped, sector_size) {
            let src = &data[xfer..xfer + run];
            // Writing zeros over an absent chunk is a no-op: absent chunks
            // already read back as zeros, and not materializing them keeps
            // host memory proportional to *distinct* data written, not to
            // partition size (benchmark workloads write zero payloads).
            // A chunk a view still holds is cloned first (`make_mut`), so
            // the view keeps the bytes it was read with.
            if let Some(chunk) = self.chunks.get_mut(&chunk_idx) {
                Rc::make_mut(chunk)[within..within + run].copy_from_slice(src);
            } else if !is_all_zero(src) {
                let mut chunk = vec![0u8; CHUNK_SECTORS as usize * sector_size];
                chunk[within..within + run].copy_from_slice(src);
                self.chunks.insert(chunk_idx, Rc::new(chunk));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8 ^ seed).collect()
    }

    #[test]
    fn unwritten_reads_zero() {
        let s = SectorStore::new(512, 100);
        let data = s.read(10, 4);
        assert_eq!(data.len(), 4 * 512);
        assert!(data.into_vec().iter().all(|&b| b == 0));
        assert_eq!(s.resident_chunks(), 0, "reads do not materialize chunks");
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = SectorStore::new(512, 1000);
        let data = pattern(3 * 512, 0);
        s.write(42, 3, &data);
        assert_eq!(s.read(42, 3).into_vec(), data);
        // Partial overlap.
        assert_eq!(s.read(43, 1).into_vec(), data[512..1024].to_vec());
    }

    #[test]
    fn write_crossing_chunk_boundary() {
        let mut s = SectorStore::new(512, 1000);
        let data: Vec<u8> = (0..4 * 512).map(|i| (i % 17) as u8).collect();
        s.write(126, 4, &data); // Chunk size is 128 sectors.
        assert_eq!(s.read(126, 4).into_vec(), data);
        assert_eq!(s.resident_chunks(), 2);
    }

    #[test]
    fn overwrite_replaces() {
        let mut s = SectorStore::new(512, 100);
        s.write(5, 1, &[1u8; 512]);
        s.write(5, 1, &[2u8; 512]);
        assert_eq!(s.read(5, 1).into_vec(), vec![2u8; 512]);
    }

    #[test]
    fn view_taken_before_an_overwrite_keeps_the_old_bytes() {
        let mut s = SectorStore::new(512, 1000);
        let old = pattern(8 * 512, 1);
        s.write(16, 8, &old);
        let view = s.read(16, 8);
        let new = pattern(8 * 512, 2);
        s.write(16, 8, &new);
        assert_eq!(view.into_vec(), old, "a held view changed under a write");
        assert_eq!(
            s.read(16, 8).into_vec(),
            new,
            "a later read missed the write"
        );
    }

    #[test]
    fn writing_a_shared_chunk_clones_it() {
        let mut s = SectorStore::new(512, 1000);
        s.write(0, 1, &[7u8; 512]);
        let before = Rc::clone(&s.chunks[&0]);
        // `before` stands in for a view: the chunk is shared, so the next
        // write must clone it and leave `before` untouched.
        s.write(1, 1, &[9u8; 512]);
        assert!(
            !Rc::ptr_eq(&before, &s.chunks[&0]),
            "shared chunk mutated in place"
        );
        assert_eq!(before[512..1024], [0u8; 512]);
        drop(before);
        // Sole owner again: the next write mutates in place.
        let addr = Rc::as_ptr(&s.chunks[&0]);
        s.write(2, 1, &[3u8; 512]);
        assert_eq!(Rc::as_ptr(&s.chunks[&0]), addr, "unshared chunk was cloned");
        assert_eq!(s.read(0, 3).into_vec()[1024..], [3u8; 512]);
    }

    #[test]
    fn absent_chunks_read_as_zeros_between_present_ones() {
        let mut s = SectorStore::new(512, 1024);
        s.write(0, 1, &[1u8; 512]); // chunk 0
        s.write(256, 1, &[2u8; 512]); // chunk 2; chunk 1 stays absent
        let got = s.read(0, 257).into_vec();
        assert_eq!(got[..512], [1u8; 512]);
        assert!(got[512..256 * 512].iter().all(|&b| b == 0));
        assert_eq!(got[256 * 512..], [2u8; 512]);
        assert_eq!(s.resident_chunks(), 2);
    }

    #[test]
    fn views_cross_chunk_boundaries() {
        let mut s = SectorStore::new(512, 1024);
        let data = pattern(300 * 512, 3);
        s.write(100, 300, &data); // spans chunks 0..=3
        let view = s.read(100, 300);
        assert_eq!(view.clone().into_vec(), data);
        // A slice straddling the chunk 0/1 boundary (sector 128).
        let sl = view.slice(20 * 512, 16 * 512);
        assert_eq!(sl.into_vec(), data[20 * 512..36 * 512]);
        // Re-concatenating adjacent slices restores the view.
        let (a, b) = (view.slice(0, 1000), view.slice(1000, view.len() - 1000));
        assert_eq!(DataView::concat([a, b]).into_vec(), data);
    }

    #[test]
    fn copy_to_at_odd_offsets() {
        let mut s = SectorStore::new(512, 1024);
        let data = pattern(200 * 512, 4);
        s.write(64, 200, &data);
        let view = s.read(64, 200);
        for (off, len) in [(1, 3), (777, 1), (64 * 512 - 5, 11), (199 * 512 + 3, 509)] {
            let mut dst = vec![0xeeu8; len];
            view.copy_to(off, &mut dst);
            assert_eq!(dst, data[off..off + len], "copy_to({off}, {len})");
        }
        // Absent chunks copy out as zeros.
        let mut dst = [0xeeu8; 4];
        SectorStore::new(512, 1024)
            .read(500, 1)
            .copy_to(3, &mut dst);
        assert_eq!(dst, [0u8; 4]);
    }

    #[test]
    #[should_panic(expected = "beyond view")]
    fn copy_to_past_the_end_panics() {
        let mut dst = [0u8; 8];
        SectorStore::new(512, 10).read(0, 1).copy_to(505, &mut dst);
    }

    #[test]
    fn xor_into_and_into_vec() {
        let mut s = SectorStore::new(512, 1024);
        let data = pattern(2 * 512, 5);
        s.write(127, 2, &data); // straddles chunks 0 and 1
        let mut acc = vec![0xffu8; 3 * 512];
        s.read(127, 3).xor_into(&mut acc);
        for (i, &b) in acc.iter().enumerate() {
            let want = if i < 1024 { data[i] ^ 0xff } else { 0xff };
            assert_eq!(b, want, "byte {i}");
        }
        let owned = DataView::from_vec(data.clone());
        assert_eq!(owned.into_vec(), data);
        assert_eq!(s.read(127, 2).into_vec(), data);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "beyond capacity")]
    fn read_past_end_panics() {
        let s = SectorStore::new(512, 10);
        s.read(8, 4);
    }

    /// Release builds clip instead of panicking: the unreachable tail reads
    /// as zeros and a write beyond the end is dropped.
    #[test]
    #[cfg(not(debug_assertions))]
    fn release_build_clips_at_the_device_end() {
        let mut s = SectorStore::new(512, 10);
        s.write(8, 4, &[6u8; 4 * 512]);
        let view = s.read(8, 4);
        assert_eq!(view.len(), 4 * 512);
        let got = view.into_vec();
        assert_eq!(got[..1024], [6u8; 1024]);
        assert!(got[1024..].iter().all(|&b| b == 0));
        // A short payload writes the sectors it covers and no more.
        s.write(0, 2, &[5u8; 512]);
        assert_eq!(
            s.read(0, 2).into_vec()[..],
            [[5u8; 512], [0u8; 512]].concat()
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "length mismatch")]
    fn short_write_panics() {
        let mut s = SectorStore::new(512, 10);
        s.write(0, 2, &[0u8; 512]);
    }
}
