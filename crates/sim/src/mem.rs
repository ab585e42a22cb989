//! Simulated memory with real backing bytes.
//!
//! Allocators in this repository keep their metadata (free-list links,
//! boundary tags, size-class tables) *inside* the simulated address space,
//! so that every metadata operation produces the same memory traffic it
//! would on real hardware. [`SimMemory`] provides the backing store: a
//! dense directory of 4 KB frames covering the process's reservation
//! window, each frame materialized on first store, plus a tiny mmap-like
//! reservation interface ([`SimMemory::os_alloc`]) standing in for the
//! operating system.

use crate::addr::Addr;

/// Backing frame granularity.
const FRAME: u64 = 4096;

/// One materialized 4 KB frame.
type Frame = [u8; FRAME as usize];

/// A byte-addressable memory image for one process.
///
/// Frames live in a directory indexed by their distance from the base of
/// the reservation window, so a load is a subtraction, a bounds check and
/// an index. The directory grows on demand up to the highest frame ever
/// stored to; frames below it stay unmaterialized until stored to.
///
/// Reads of never-written locations, and reads outside the reservation
/// window `[base, brk)`, return zero, like freshly-mapped anonymous pages.
/// Stores must fall inside the window: the OS never handed out anything
/// else, so a store outside it is an allocator bug and panics. The image
/// also tracks how many bytes the "OS" has handed out, which the
/// allocators' footprint accounting builds on.
///
/// # Examples
///
/// ```
/// use webmm_sim::SimMemory;
/// let mut m = SimMemory::new(0x10_0000_0000);
/// let heap = m.os_alloc(1 << 20, 4096);
/// m.write_u64(heap, 0xdead_beef);
/// assert_eq!(m.read_u64(heap), 0xdead_beef);
/// assert_eq!(m.read_u64(heap + 8), 0); // untouched → zero
/// ```
#[derive(Debug)]
pub struct SimMemory {
    /// Slot `i` backs frame number `base / FRAME + i`.
    frames: Vec<Option<Box<Frame>>>,
    /// Number of `Some` slots in `frames`.
    materialized: u64,
    /// Next address handed out by `os_alloc`.
    brk: u64,
    /// First address of this process's reservation window.
    base: u64,
    /// Total bytes reserved via `os_alloc`.
    reserved: u64,
}

impl SimMemory {
    /// Creates an empty memory image whose OS allocations start at `base`.
    ///
    /// Distinct processes should use distinct, widely-spaced bases so their
    /// addresses never collide in shared caches (the simulator treats the
    /// simulated address as physical).
    pub fn new(base: u64) -> Self {
        SimMemory {
            frames: Vec::new(),
            materialized: 0,
            brk: base.max(FRAME),
            base: base.max(FRAME),
            reserved: 0,
        }
    }

    /// Reserves `len` bytes aligned to `align` (power of two), like an
    /// anonymous `mmap`. Never fails: the address space is 64-bit.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or `len` is zero.
    pub fn os_alloc(&mut self, len: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(len > 0, "cannot reserve zero bytes");
        let start = Addr::new(self.brk).align_up(align);
        self.brk = start.raw() + len;
        self.reserved += len;
        start
    }

    /// Total bytes reserved through [`SimMemory::os_alloc`].
    pub fn reserved_bytes(&self) -> u64 {
        self.reserved
    }

    /// Bytes of backing frames actually materialized (stored to).
    pub fn resident_bytes(&self) -> u64 {
        self.materialized * FRAME
    }

    /// The base of this process's reservation window.
    pub fn base(&self) -> Addr {
        Addr::new(self.base)
    }

    /// Directory slot of the frame holding `addr`; wraps to a huge value
    /// (never a valid slot) below the base frame.
    #[inline]
    fn slot(&self, addr: u64) -> usize {
        (addr / FRAME).wrapping_sub(self.base / FRAME) as usize
    }

    /// The materialized frame holding `addr`, if any.
    #[inline]
    fn frame(&self, addr: u64) -> Option<&Frame> {
        self.frames.get(self.slot(addr)).and_then(Option::as_deref)
    }

    /// The frame holding `addr`, materialized if needed, for a store of
    /// `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `[addr, addr + len)` is not inside `[base, brk)`.
    #[inline]
    fn frame_mut(&mut self, addr: u64, len: u64) -> &mut Frame {
        assert!(
            addr >= self.base && addr.checked_add(len).is_some_and(|end| end <= self.brk),
            "{len}-byte store at {addr:#x} outside the reservation window [{:#x}, {:#x})",
            self.base,
            self.brk
        );
        let slot = self.slot(addr);
        if slot >= self.frames.len() {
            self.frames.resize_with(slot + 1, || None);
        }
        let materialized = &mut self.materialized;
        self.frames[slot].get_or_insert_with(|| {
            *materialized += 1;
            Box::new([0u8; FRAME as usize])
        })
    }

    /// Copies `len` bytes from `src` to `dst`, with the result of a
    /// forward byte-by-byte copy: every destination frame is materialized
    /// (also when the source was never written), and an overlapping
    /// destination above the source repeats the source pattern.
    ///
    /// # Panics
    ///
    /// Panics if `len > 0` and `[dst, dst + len)` is not inside the
    /// reservation window.
    pub fn copy(&mut self, dst: Addr, src: Addr, len: u64) {
        let (dst, src) = (dst.raw(), src.raw());
        // A run longer than the gap of a destination overlapping the source
        // from above would read bytes this copy has yet to write.
        let max_run = match dst.checked_sub(src) {
            Some(gap) if gap > 0 && gap < len => gap,
            _ => FRAME,
        };
        let mut buf = [0u8; FRAME as usize];
        let mut done = 0;
        while done < len {
            let (s, d) = (src + done, dst + done);
            let n = (FRAME - s % FRAME)
                .min(FRAME - d % FRAME)
                .min(len - done)
                .min(max_run);
            let (so, doff, n) = ((s % FRAME) as usize, (d % FRAME) as usize, n as usize);
            match self.frame(s) {
                Some(f) => buf[..n].copy_from_slice(&f[so..so + n]),
                None => buf[..n].fill(0),
            }
            self.frame_mut(d, n as u64)[doff..doff + n].copy_from_slice(&buf[..n]);
            done += n as u64;
        }
    }

    /// Reads a little-endian `u64`. The access must not cross a frame
    /// boundary (allocator metadata is always 8-byte aligned).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a 4 KB frame boundary.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        assert!(
            addr.raw() % FRAME <= FRAME - 8,
            "u64 read crosses frame boundary"
        );
        let off = (addr.raw() % FRAME) as usize;
        self.frame(addr.raw()).map_or(0, |f| {
            u64::from_le_bytes(f[off..off + 8].try_into().expect("8 bytes"))
        })
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a 4 KB frame boundary or leaves the
    /// reservation window.
    pub fn write_u64(&mut self, addr: Addr, val: u64) {
        assert!(
            addr.raw() % FRAME <= FRAME - 8,
            "u64 write crosses frame boundary"
        );
        let off = (addr.raw() % FRAME) as usize;
        self.frame_mut(addr.raw(), 8)[off..off + 8].copy_from_slice(&val.to_le_bytes());
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        let off = (addr.raw() % FRAME) as usize;
        self.frame(addr.raw()).map_or(0, |f| f[off])
    }

    /// Writes one byte.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the reservation window.
    pub fn write_u8(&mut self, addr: Addr, val: u8) {
        let off = (addr.raw() % FRAME) as usize;
        self.frame_mut(addr.raw(), 1)[off] = val;
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a 4 KB frame boundary.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        assert!(
            addr.raw() % FRAME <= FRAME - 4,
            "u32 read crosses frame boundary"
        );
        let off = (addr.raw() % FRAME) as usize;
        self.frame(addr.raw()).map_or(0, |f| {
            u32::from_le_bytes(f[off..off + 4].try_into().expect("4 bytes"))
        })
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a 4 KB frame boundary or leaves the
    /// reservation window.
    pub fn write_u32(&mut self, addr: Addr, val: u32) {
        assert!(
            addr.raw() % FRAME <= FRAME - 4,
            "u32 write crosses frame boundary"
        );
        let off = (addr.raw() % FRAME) as usize;
        self.frame_mut(addr.raw(), 4)[off..off + 4].copy_from_slice(&val.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = SimMemory::new(1 << 32);
        assert_eq!(m.read_u64(Addr::new(0x12345678)), 0);
        assert_eq!(m.read_u8(Addr::new(99)), 0);
    }

    #[test]
    fn read_back_written_values() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(4096, 4096);
        m.write_u64(a, u64::MAX);
        m.write_u64(a + 8, 42);
        m.write_u8(a + 16, 7);
        m.write_u32(a + 20, 0xabcd);
        assert_eq!(m.read_u64(a), u64::MAX);
        assert_eq!(m.read_u64(a + 8), 42);
        assert_eq!(m.read_u8(a + 16), 7);
        assert_eq!(m.read_u32(a + 20), 0xabcd);
    }

    #[test]
    fn os_alloc_respects_alignment_and_no_overlap() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(100, 8);
        let b = m.os_alloc(32 * 1024, 32 * 1024);
        let c = m.os_alloc(10, 8);
        assert!(b.is_aligned(32 * 1024));
        assert!(b.raw() >= a.raw() + 100);
        assert!(c.raw() >= b.raw() + 32 * 1024);
        assert_eq!(m.reserved_bytes(), 100 + 32 * 1024 + 10);
    }

    #[test]
    fn distinct_bases_do_not_collide() {
        let mut p0 = SimMemory::new(1 << 40);
        let mut p1 = SimMemory::new(2 << 40);
        let a0 = p0.os_alloc(4096, 4096);
        let a1 = p1.os_alloc(4096, 4096);
        assert!(a1.raw() - a0.raw() >= 1 << 40);
    }

    #[test]
    fn resident_tracks_touched_frames() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(1 << 20, 4096);
        assert_eq!(m.resident_bytes(), 0); // reservation alone is not resident
        m.write_u8(a, 1);
        m.write_u8(a + 4096 * 3, 1);
        assert_eq!(m.resident_bytes(), 2 * 4096);
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn straddling_u64_rejected() {
        let m = SimMemory::new(1 << 32);
        m.read_u64(Addr::new(4096 - 4));
    }

    #[test]
    #[should_panic(expected = "outside the reservation window")]
    fn store_beyond_brk_rejected() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(64, 8);
        m.write_u64(a + 64, 1);
    }

    #[test]
    #[should_panic(expected = "outside the reservation window")]
    fn store_below_base_rejected() {
        let mut m = SimMemory::new(1 << 32);
        m.os_alloc(4096, 4096);
        m.write_u8(Addr::new((1 << 32) - 1), 1);
    }

    #[test]
    #[should_panic(expected = "outside the reservation window")]
    fn store_straddling_brk_rejected() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(12, 8);
        m.write_u64(a + 8, 1);
    }

    #[test]
    fn high_store_grows_directory_without_materializing_below() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(256 << 20, 4096);
        let high = a + ((256 << 20) - 8);
        m.write_u64(high, 7);
        assert_eq!(m.frames.len(), (256 << 20) / FRAME as usize);
        assert_eq!(m.resident_bytes(), FRAME);
        assert_eq!(m.read_u64(high), 7);
        assert_eq!(m.read_u64(a), 0);
        // A store below the high-water frame fills in one slot, no growth.
        m.write_u8(a + FRAME, 1);
        assert_eq!(m.frames.len(), (256 << 20) / FRAME as usize);
        assert_eq!(m.resident_bytes(), 2 * FRAME);
    }

    #[test]
    fn copy_materializes_destination_even_from_untouched_source() {
        let mut m = SimMemory::new(1 << 32);
        let src = m.os_alloc(3 * FRAME, 4096);
        let dst = m.os_alloc(3 * FRAME, 4096);
        m.copy(dst + 100, src + 100, 2 * FRAME);
        assert_eq!(m.resident_bytes(), 3 * FRAME);
        m.copy(dst, src, 0);
        assert_eq!(m.resident_bytes(), 3 * FRAME);
    }

    #[test]
    fn overlapping_copy_matches_forward_byte_loop() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(2 * FRAME, 4096);
        for i in 0..8 {
            m.write_u8(a + i, i as u8 + 1);
        }
        // Forward overlap by 3: the first 3 bytes repeat across the run.
        m.copy(a + 3, a, 9);
        let got: Vec<u8> = (0..12).map(|i| m.read_u8(a + i)).collect();
        assert_eq!(got, [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3]);
        // Backward overlap behaves like memmove.
        m.copy(a, a + 2, 4);
        let got: Vec<u8> = (0..6).map(|i| m.read_u8(a + i)).collect();
        assert_eq!(got, [3, 1, 2, 3, 2, 3]);
    }

    #[test]
    fn base_floor_is_nonzero() {
        // A zero base would make Addr(0) (the free-list NULL) a valid
        // allocation target; SimMemory must prevent that.
        let mut m = SimMemory::new(0);
        let a = m.os_alloc(16, 8);
        assert!(!a.is_null());
    }
}
