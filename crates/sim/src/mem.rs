use crate::SimError;

/// Byte-addressable little-endian memory.
///
/// Data accesses are 32-bit words (addresses masked to 4-byte
/// alignment, as the hardware datapath would); instruction fetches read
/// 16-bit parcels (masked to 2-byte alignment).
///
/// # Unaligned accesses
///
/// An unaligned address is **silently rounded down** to the containing
/// aligned unit — `read_word(17)` and `read_word(19)` both access the
/// word at 16. This is a deliberate architectural choice, not an
/// accident: the modelled datapath has no byte-steering, so the low
/// address bits simply do not reach the memory array, and no
/// `Unaligned` fault exists. Both simulation engines go through this
/// one implementation, so they agree on the masking by construction —
/// and the differential oracle proves it dynamically: the random
/// program generator emits deliberately unaligned absolute operands
/// (see `crisp_asm::rand_prog`) and the lockstep commit comparison
/// (`run_lockstep`) requires both engines to observe identical
/// addresses and values for every such access.
///
/// # Touched pages
///
/// The array is split into at most 64 equal power-of-two pages, and a
/// `u64` bitmap records which pages a store has touched since the last
/// [`Memory::zero`]. The two stores ([`Memory::write_word`] and
/// [`Memory::write_parcel`]) are the only mutators, and each sets its
/// page's bit, so the invariant is: **every nonzero byte lies in a
/// dirty page**. Campaign runs write a few pages of a 256 KiB array,
/// so [`Memory::zero`] clears only the dirty pages, `==` compares only
/// the pages dirty in either operand (the rest are zero on both sides),
/// and a recycled buffer keeps only its touched pages resident.
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    /// log2 of the page size in bytes.
    page_shift: u32,
    /// Bit `p` is set when page `p` may hold a nonzero byte.
    dirty: u64,
}

impl Memory {
    /// Allocate `size` bytes of zeroed memory.
    pub fn new(size: u32) -> Memory {
        // The smallest power of two that splits `size` into at most 64
        // pages, and never below one word, so an aligned word or parcel
        // never straddles two pages.
        let page = size.div_ceil(64).next_power_of_two().max(4);
        Memory {
            bytes: vec![0; size as usize],
            page_shift: page.trailing_zeros(),
            dirty: 0,
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    fn check(&self, addr: u32, len: u32) -> Result<usize, SimError> {
        let end = addr.checked_add(len).filter(|&e| e <= self.size());
        match end {
            Some(_) => Ok(addr as usize),
            None => Err(SimError::MemOutOfBounds {
                addr,
                size: self.size(),
            }),
        }
    }

    /// Read the 32-bit word at `addr`. The low two address bits are
    /// ignored (masked to the containing aligned word — see the type
    /// docs on unaligned accesses); no alignment fault is raised.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when the word lies outside memory.
    #[inline]
    pub fn read_word(&self, addr: u32) -> Result<i32, SimError> {
        let a = (addr & !3) as usize;
        // Single bounds check; compiles to one aligned 32-bit load.
        match self.bytes.get(a..a + 4) {
            Some(w) => Ok(i32::from_le_bytes(w.try_into().expect("length 4"))),
            None => Err(SimError::MemOutOfBounds {
                addr,
                size: self.size(),
            }),
        }
    }

    /// Write the 32-bit word at `addr`. The low two address bits are
    /// ignored (masked to the containing aligned word — see the type
    /// docs on unaligned accesses); no alignment fault is raised.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when the word lies outside memory.
    #[inline]
    pub fn write_word(&mut self, addr: u32, value: i32) -> Result<(), SimError> {
        let a = (addr & !3) as usize;
        let size = self.size();
        match self.bytes.get_mut(a..a + 4) {
            Some(w) => {
                w.copy_from_slice(&value.to_le_bytes());
                self.mark(a);
                Ok(())
            }
            None => Err(SimError::MemOutOfBounds { addr, size }),
        }
    }

    /// Record a store at in-bounds byte offset `a`: a shift and an OR,
    /// with no branch on the store path.
    #[inline]
    fn mark(&mut self, a: usize) {
        self.dirty |= 1 << (a >> self.page_shift);
    }

    /// The byte range of page `p`, clipped to the end of memory.
    fn page(&self, p: u32) -> std::ops::Range<usize> {
        let start = (p as usize) << self.page_shift;
        start..(start + (1 << self.page_shift)).min(self.bytes.len())
    }

    /// The indices of the pages set in `bits`, lowest first.
    fn pages(bits: u64) -> impl Iterator<Item = u32> {
        let mut rest = bits;
        std::iter::from_fn(move || {
            let p = rest.trailing_zeros();
            rest &= rest.wrapping_sub(1);
            (p < 64).then_some(p)
        })
    }

    /// Read the 16-bit instruction parcel at `addr` (low bit ignored).
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when the parcel lies outside memory.
    pub fn read_parcel(&self, addr: u32) -> Result<u16, SimError> {
        let a = self.check(addr & !1, 2)?;
        Ok(u16::from_le_bytes([self.bytes[a], self.bytes[a + 1]]))
    }

    /// Write the 16-bit parcel at `addr` (used by the loader).
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when the parcel lies outside memory.
    pub fn write_parcel(&mut self, addr: u32, value: u16) -> Result<(), SimError> {
        let a = self.check(addr & !1, 2)?;
        self.bytes[a..a + 2].copy_from_slice(&value.to_le_bytes());
        self.mark(a);
        Ok(())
    }

    /// Read up to `max` consecutive parcels starting at `addr`, stopping
    /// at the end of memory. Used by decode paths that need a lookahead
    /// window.
    pub fn parcel_window(&self, addr: u32, max: usize) -> Vec<u16> {
        let mut out = vec![0u16; max];
        let n = self.parcel_window_into(addr, &mut out);
        out.truncate(n);
        out
    }

    /// Fill `buf` with consecutive parcels starting at `addr` and return
    /// how many were read (bounds-checked against the end of memory: the
    /// count is short exactly when the window runs off physical memory).
    ///
    /// This is the allocation-free form of [`Memory::parcel_window`]:
    /// decode paths pass a stack-allocated `[u16; N]` window instead of
    /// building a fresh `Vec` per miss. Memory is byte-addressed and
    /// little-endian, so parcels cannot be *borrowed* as a `&[u16]`
    /// without alignment games; a bounded copy into a caller-owned
    /// buffer is the sound equivalent.
    pub fn parcel_window_into(&self, addr: u32, buf: &mut [u16]) -> usize {
        let start = (addr & !1) as usize;
        if start >= self.bytes.len() {
            return 0;
        }
        let avail_parcels = (self.bytes.len() - start) / 2;
        let n = buf.len().min(avail_parcels);
        for (i, slot) in buf.iter_mut().take(n).enumerate() {
            let a = start + i * 2;
            *slot = u16::from_le_bytes([self.bytes[a], self.bytes[a + 1]]);
        }
        n
    }

    /// Zero the array in place, keeping the allocation — the reset path
    /// behind [`crate::Machine::reset_from`]. Only the dirty pages are
    /// cleared; every other page is already zero.
    pub fn zero(&mut self) {
        for p in Memory::pages(self.dirty) {
            let r = self.page(p);
            self.bytes[r].fill(0);
        }
        self.dirty = 0;
    }

    /// Make this array a byte-for-byte copy of `src`, keeping the
    /// allocation when the sizes match. Only the pages dirty in either
    /// array are copied: every other page is zero on both sides. This
    /// is how [`crate::Machine::copy_from`] forks a run's memory into a
    /// recycled buffer without touching the whole array.
    pub fn copy_from(&mut self, src: &Memory) {
        if self.bytes.len() != src.bytes.len() {
            self.clone_from(src);
            return;
        }
        for p in Memory::pages(self.dirty | src.dirty) {
            let r = self.page(p);
            self.bytes[r.clone()].copy_from_slice(&src.bytes[r]);
        }
        self.dirty = src.dirty;
    }
}

impl PartialEq for Memory {
    /// Byte-for-byte equality. Pages clean in both operands are zero on
    /// both sides, so only the union of the dirty sets is compared.
    fn eq(&self, other: &Memory) -> bool {
        self.bytes.len() == other.bytes.len()
            && Memory::pages(self.dirty | other.dirty).all(|p| {
                let r = self.page(p);
                self.bytes[r.clone()] == other.bytes[r]
            })
    }
}

impl Eq for Memory {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_round_trip_little_endian() {
        let mut m = Memory::new(64);
        m.write_word(8, -1234).unwrap();
        assert_eq!(m.read_word(8).unwrap(), -1234);
        m.write_word(12, 0x1234_5678).unwrap();
        // Little-endian byte order: parcels see low half first.
        assert_eq!(m.read_parcel(12).unwrap(), 0x5678);
        assert_eq!(m.read_parcel(14).unwrap(), 0x1234);
    }

    #[test]
    fn alignment_masking() {
        let mut m = Memory::new(64);
        m.write_word(16, 42).unwrap();
        assert_eq!(m.read_word(17).unwrap(), 42);
        assert_eq!(m.read_word(19).unwrap(), 42);
        m.write_parcel(20, 7).unwrap();
        assert_eq!(m.read_parcel(21).unwrap(), 7);
    }

    #[test]
    fn bounds_checked() {
        let m = Memory::new(16);
        assert_eq!(m.read_word(12).unwrap(), 0);
        assert!(matches!(
            m.read_word(16),
            Err(SimError::MemOutOfBounds { .. })
        ));
        assert!(matches!(
            m.read_word(u32::MAX),
            Err(SimError::MemOutOfBounds { .. })
        ));
        assert!(matches!(
            m.read_parcel(16),
            Err(SimError::MemOutOfBounds { .. })
        ));
        let mut m = Memory::new(16);
        assert!(matches!(
            m.write_word(16, 0),
            Err(SimError::MemOutOfBounds { .. })
        ));
    }

    #[test]
    fn page_size_splits_memory_into_at_most_64_pages() {
        assert_eq!(Memory::new(0x4_0000).page_shift, 12);
        assert_eq!(Memory::new(0x4_0001).page_shift, 13);
        assert_eq!(Memory::new(64).page_shift, 2);
        assert_eq!(Memory::new(0).page_shift, 2);
    }

    #[test]
    fn zero_and_eq_see_only_touched_pages() {
        let mut a = Memory::new(0x4_0000);
        let mut b = Memory::new(0x4_0000);
        a.write_word(0x3_fffc, 5).unwrap();
        assert_ne!(a, b);
        assert_ne!(b, a);
        b.write_word(0x3_fffc, 5).unwrap();
        assert_eq!(a, b);
        // A store of zero still marks its page; equality holds either way.
        b.write_parcel(0x1_0000, 0).unwrap();
        assert_eq!(a, b);
        a.zero();
        assert_eq!(a.dirty, 0);
        assert_eq!(a.read_word(0x3_fffc).unwrap(), 0);
        assert_eq!(a, Memory::new(0x4_0000));
        assert_ne!(a, Memory::new(0x4_0004));
    }

    #[test]
    fn copy_from_equals_clone_across_dirty_sets() {
        // Each case: (pages written in the destination, pages written
        // in the source). Disjoint, overlapping, nested and empty sets.
        let cases: [(&[u32], &[u32]); 5] = [
            (&[1, 5], &[2, 63]),
            (&[3, 4, 9], &[4, 9, 10]),
            (&[0, 7, 8, 40], &[7]),
            (&[], &[0, 31]),
            (&[12, 13], &[]),
        ];
        for (dst_pages, src_pages) in cases {
            let mut dst = Memory::new(0x4_0000);
            let mut src = Memory::new(0x4_0000);
            for &p in dst_pages {
                dst.write_word(p << 12 | 0x40, -7).unwrap();
                dst.write_word(p << 12 | 0xffc, 11).unwrap();
            }
            for &p in src_pages {
                src.write_word(p << 12 | 0x40, 1234).unwrap();
                src.write_parcel(p << 12 | 0x102, 0xbeef).unwrap();
            }
            dst.copy_from(&src);
            let expect = src.clone();
            assert_eq!(dst.dirty, expect.dirty, "{dst_pages:?} <- {src_pages:?}");
            assert_eq!(dst.bytes, expect.bytes, "{dst_pages:?} <- {src_pages:?}");
        }
        // A size mismatch reallocates to the source's shape.
        let mut dst = Memory::new(64);
        let mut src = Memory::new(0x4_0004);
        src.write_word(0x4_0000, 9).unwrap();
        dst.copy_from(&src);
        assert_eq!(dst.page_shift, src.page_shift);
        assert_eq!(dst.bytes, src.bytes);
        assert_eq!(dst, src);
    }

    #[test]
    fn parcel_window_stops_at_end() {
        let mut m = Memory::new(8);
        for i in 0..4u16 {
            m.write_parcel(i as u32 * 2, i + 1).unwrap();
        }
        assert_eq!(m.parcel_window(4, 10), vec![3, 4]);
        assert_eq!(m.parcel_window(0, 2), vec![1, 2]);
        assert!(m.parcel_window(8, 4).is_empty());
    }
}
