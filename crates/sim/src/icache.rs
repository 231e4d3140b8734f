use crisp_isa::Decoded;

use crate::soft_error::{strike, FaultField, ParityMode};

/// One resident cache line: the decoded entry plus its parity delta.
///
/// A hardware check compares the parity word written at fill time with
/// the parity of the bits now in the array. Parity is linear in the
/// flipped bits, so the two differ by exactly the XOR of the columns
/// that faults flipped since the fill: `delta`. A fill clears it, and
/// the check fails when it is nonzero — single-bit faults always
/// detect, while an even number of flips in one column cancels
/// (parity's standard blind spot).
#[derive(Debug, Clone, Copy)]
struct CacheLine {
    d: Decoded,
    delta: u32,
}

/// The result of a parity-checked cache read.
///
/// A hit borrows the resident entry instead of copying it out:
/// `Decoded` is `Copy` but spans several machine words (operands,
/// Next-PC, Alternate Next-PC), and the fetch stage reads one entry per
/// cycle — the single hottest load in the cycle engine. Consumers that
/// need an owned copy (the EU latching into its `Slot`) dereference
/// exactly once, matching [`DecodedCache::lookup`]'s by-reference
/// shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup<'a> {
    /// A valid entry with matching tag (and clean parity, when checked).
    Hit(&'a Decoded),
    /// No entry, or the tag did not match.
    Miss,
    /// The slot's parity check failed: the entry was invalidated and
    /// the access must take the miss path (redecode from memory).
    ParityError,
}

/// The Decoded Instruction Cache.
///
/// Direct-mapped, indexed by the low bits of the *parcel* address
/// (the paper: "the low five bits are used to address the Decoded
/// Instruction Cache" for the 32-entry chip), tagged with the full PC.
/// Each entry is one canonical decoded instruction carrying its Next-PC
/// and Alternate Next-PC fields — the structure that makes branch
/// folding possible.
///
/// Each line carries the parity columns a fault flipped since its fill.
/// Under [`ParityMode::DetectInvalidate`], which the caller passes from
/// its run's [`crate::SimConfig::parity`],
/// [`DecodedCache::lookup_verified`] checks them and turns a corrupted
/// slot into an invalidate-plus-miss. Because the cache is never
/// written back — entries are pure decode products of instruction
/// memory — invalidate-and-redecode is a complete recovery.
#[derive(Debug, Clone)]
pub struct DecodedCache {
    entries: Vec<Option<CacheLine>>,
    mask: u32,
    /// Fills that made a new PC resident: into an empty slot or over a
    /// different tag. A same-PC re-decode is a [`refill`], not an
    /// insert, so `inserts` counts distinct decoded entries becoming
    /// visible rather than raw PDU write traffic.
    ///
    /// [`refill`]: DecodedCache::refills
    pub inserts: u64,
    /// Fills that overwrote the *same* PC (the PDU re-decoded an entry
    /// that was already resident, e.g. after a wrong-path excursion).
    /// `inserts + refills` equals the total fills — one per
    /// [`crate::PipeEvent::CacheFill`] event.
    pub refills: u64,
    /// Insertions that overwrote a valid entry with a different tag.
    pub evictions: u64,
    /// Slots invalidated by a failed parity check (each one also
    /// produced a [`crate::PipeEvent::ParityError`] event). The PDU
    /// also bumps this when parity catches a corrupted in-flight entry
    /// at its fill port — the entry is dropped before it reaches the
    /// array, but it is the same detect-and-discard event.
    pub parity_invalidates: u64,
}

impl DecodedCache {
    /// Create a cache with `entries` slots (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics when `entries` is zero or not a power of two.
    pub fn new(entries: usize) -> DecodedCache {
        assert!(
            entries.is_power_of_two() && entries >= 1,
            "cache size must be a power of two"
        );
        DecodedCache {
            entries: vec![None; entries],
            mask: entries as u32 - 1,
            inserts: 0,
            refills: 0,
            evictions: 0,
            parity_invalidates: 0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache has no valid entries.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(Option::is_none)
    }

    fn index(&self, pc: u32) -> usize {
        ((pc >> 1) & self.mask) as usize
    }

    /// The slot index `pc` maps to (exposed for fault planning: a
    /// [`crate::FaultPlan`] names slots, not PCs).
    pub fn slot_of(&self, pc: u32) -> usize {
        self.index(pc)
    }

    /// Look up the entry decoded at `pc`, without a parity check.
    pub fn lookup(&self, pc: u32) -> Option<&Decoded> {
        self.entries[self.index(pc)]
            .as_ref()
            .map(|line| &line.d)
            .filter(|d| d.pc == pc)
    }

    /// Look up the entry decoded at `pc`, checking parity first when
    /// `parity` is [`ParityMode::DetectInvalidate`].
    ///
    /// The parity check runs *before* the tag compare — corrupted bits
    /// cannot be trusted to include a correct tag — so a slot whose
    /// stored bits no longer match their fill-time parity is
    /// invalidated and reported as [`CacheLookup::ParityError`] no
    /// matter which PC probed it. The caller then takes the ordinary
    /// miss path and the PDU redecodes the entry from memory.
    pub fn lookup_verified(&mut self, pc: u32, parity: ParityMode) -> CacheLookup<'_> {
        let idx = self.index(pc);
        // The invalidate (needing `&mut`) happens before the borrow of
        // the line is handed out, so the hit path can return a
        // reference into the slot.
        let parity_failed = matches!(&self.entries[idx], Some(line)
            if parity == ParityMode::DetectInvalidate && line.delta != 0);
        if parity_failed {
            self.entries[idx] = None;
            self.parity_invalidates += 1;
            return CacheLookup::ParityError;
        }
        match &self.entries[idx] {
            Some(line) if line.d.pc == pc => CacheLookup::Hit(&line.d),
            _ => CacheLookup::Miss,
        }
    }

    /// Whether `pc` currently hits.
    pub fn contains(&self, pc: u32) -> bool {
        self.lookup(pc).is_some()
    }

    /// Insert a decoded entry, evicting any conflicting one; returns
    /// the PC of the evicted entry when a different tag was displaced.
    /// A same-PC overwrite counts as a refill, not a fresh insert.
    pub fn insert(&mut self, d: Decoded) -> Option<u32> {
        let idx = self.index(d.pc);
        let mut evicted = None;
        match &self.entries[idx] {
            Some(old) if old.d.pc == d.pc => self.refills += 1,
            Some(old) => {
                self.evictions += 1;
                evicted = Some(old.d.pc);
                self.inserts += 1;
            }
            None => self.inserts += 1,
        }
        self.entries[idx] = Some(CacheLine { d, delta: 0 });
        evicted
    }

    /// Flip one bit of the entry resident in `slot` (taken modulo the
    /// cache size) — the transient-fault injection point. Returns the
    /// PC of the corrupted entry, or `None` when the slot held nothing
    /// (the fault lands in invalid state and has no effect).
    ///
    /// A `valid` fault clears the slot (a live valid bit can only flip
    /// to invalid). Any other fault re-encodes the entry, flips the
    /// mapped bit, and stores the total re-decode; the flipped parity
    /// column is XORed into the slot's delta, so a later
    /// [`DecodedCache::lookup_verified`] sees exactly what a hardware
    /// parity check would.
    pub fn corrupt(&mut self, slot: usize, field: FaultField) -> Option<u32> {
        let idx = slot % self.entries.len();
        let line = self.entries[idx].as_mut()?;
        let pc = line.d.pc;
        match strike(&mut line.d, field) {
            Some(column) => line.delta ^= column,
            None => self.entries[idx] = None,
        }
        Some(pc)
    }

    /// Invalidate everything (used between experiment runs).
    pub fn clear(&mut self) {
        self.entries.fill(None);
    }

    /// Whether `slot` (taken modulo the cache size, as
    /// [`DecodedCache::corrupt`] takes it) holds an entry: a strike on
    /// an unoccupied slot flips nothing.
    pub fn occupied(&self, slot: usize) -> bool {
        self.entries[slot % self.entries.len()].is_some()
    }

    /// Whether this cache, read under `parity`, and `other`, a
    /// fault-free run's cache, behave the same from here on: the same
    /// resident entries, and the same parity deltas when `parity`
    /// checks them. A fault-free run's deltas are all 0, so a checked
    /// line is the fault-free one only if no fault struck it since its
    /// fill; an unchecked cache never reads its deltas. The fill,
    /// eviction and invalidate counters are left out; they never steer
    /// a lookup.
    pub(crate) fn same_future(&self, other: &DecodedCache, parity: ParityMode) -> bool {
        let checked = parity == ParityMode::DetectInvalidate;
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| match (a, b) {
                    (None, None) => true,
                    (Some(a), Some(b)) => a.d == b.d && (!checked || a.delta == b.delta),
                    _ => false,
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soft_error::nth_field;
    use crisp_isa::{ExecOp, FoldClass, NextPc};

    const DETECT: ParityMode = ParityMode::DetectInvalidate;

    fn entry(pc: u32) -> Decoded {
        Decoded {
            pc,
            len_bytes: 2,
            exec: ExecOp::Nop,
            modifies_cc: false,
            modifies_sp: false,
            fold: FoldClass::Sequential,
            folded: false,
            branch_pc: None,
            next_pc: NextPc::Known(pc + 2),
            alt_pc: None,
        }
    }

    #[test]
    fn hit_requires_tag_match() {
        let mut c = DecodedCache::new(32);
        c.insert(entry(0x10));
        assert!(c.contains(0x10));
        // Same index (32 entries × 2-byte parcels = 64-byte window):
        // 0x10 + 64 = 0x50 maps to the same slot but a different tag.
        assert!(!c.contains(0x50));
        assert_eq!(c.lookup(0x10).unwrap().pc, 0x10);
    }

    #[test]
    fn conflicting_insert_evicts() {
        let mut c = DecodedCache::new(32);
        assert_eq!(c.insert(entry(0x10)), None);
        assert_eq!(c.insert(entry(0x10 + 64)), Some(0x10));
        assert!(!c.contains(0x10));
        assert!(c.contains(0x10 + 64));
        assert_eq!(c.evictions, 1);
        assert_eq!(c.inserts, 2);
    }

    #[test]
    fn reinsert_same_pc_is_a_refill_not_an_insert() {
        let mut c = DecodedCache::new(32);
        c.insert(entry(0x10));
        c.insert(entry(0x10));
        assert_eq!(c.evictions, 0);
        assert_eq!(c.inserts, 1);
        assert_eq!(c.refills, 1);
    }

    #[test]
    fn clear_invalidates() {
        let mut c = DecodedCache::new(4);
        c.insert(entry(0));
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(0));
    }

    #[test]
    fn small_cache_wraps() {
        let mut c = DecodedCache::new(2);
        // Parcel addresses 0 and 4 map to slots 0 and 0 (with mask 1,
        // index of pc=4 is (4>>1)&1 = 0).
        c.insert(entry(0));
        c.insert(entry(4));
        assert!(!c.contains(0));
        assert!(c.contains(4));
        assert!(c.contains(4));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        DecodedCache::new(3);
    }

    #[test]
    fn corrupt_flips_a_field_and_parity_catches_it() {
        let mut c = DecodedCache::new(32);
        c.insert(entry(0x10));
        let slot = c.slot_of(0x10);
        // Next-PC payload bit 0.
        assert_eq!(c.corrupt(slot, nth_field(2)), Some(0x10));
        // The stored entry changed but the tag still matches ...
        assert_eq!(c.lookup(0x10).unwrap().next_pc, NextPc::Known(0x12 ^ 1));
        // ... and the verified lookup detects, invalidates, counts.
        assert_eq!(c.lookup_verified(0x10, DETECT), CacheLookup::ParityError);
        assert_eq!(c.parity_invalidates, 1);
        assert!(!c.contains(0x10));
        assert_eq!(c.lookup_verified(0x10, DETECT), CacheLookup::Miss);
        // A refill restores clean parity.
        c.insert(entry(0x10));
        assert_eq!(
            c.lookup_verified(0x10, DETECT),
            CacheLookup::Hit(&entry(0x10))
        );
        assert_eq!(c.parity_invalidates, 1);
    }

    #[test]
    fn corrupt_tag_is_caught_before_tag_compare() {
        let mut c = DecodedCache::new(32);
        c.insert(entry(0x10));
        let slot = c.slot_of(0x10);
        // Flip tag bit 31: the entry now claims a different PC.
        assert_eq!(c.corrupt(slot, nth_field(180)), Some(0x10));
        // The probe at the original PC still reaches the slot, and the
        // parity check fires before the (now wrong) tag can turn the
        // access into a silent miss that leaves the corpse resident.
        assert_eq!(c.lookup_verified(0x10, DETECT), CacheLookup::ParityError);
        assert!(c.is_empty());
    }

    #[test]
    fn corrupt_valid_bit_clears_slot() {
        let mut c = DecodedCache::new(4);
        c.insert(entry(0));
        // Site 70 is the valid bit.
        assert_eq!(c.corrupt(c.slot_of(0), nth_field(70)), Some(0));
        assert!(c.is_empty());
        // Faulting an empty slot corrupts nothing.
        assert_eq!(c.corrupt(0, nth_field(69)), None);
    }

    #[test]
    fn unprotected_cache_serves_corrupted_entries() {
        let mut c = DecodedCache::new(32);
        c.insert(entry(0x10));
        c.corrupt(c.slot_of(0x10), nth_field(2));
        // ParityMode::Off: the corrupted entry hits as if nothing
        // happened — the SDC path the fault campaign measures.
        let looked = c.lookup_verified(0x10, ParityMode::Off);
        assert!(matches!(looked, CacheLookup::Hit(d) if d.next_pc == NextPc::Known(0x12 ^ 1)));
        assert_eq!(c.parity_invalidates, 0);
    }

    /// A cache holding `entry(0x10)` with an Alternate Next-PC, struck at
    /// cache sites `a` and then `b`.
    fn struck_twice(a: u64, b: u64) -> DecodedCache {
        let mut c = DecodedCache::new(32);
        c.insert(Decoded {
            alt_pc: Some(NextPc::Known(0x40)),
            ..entry(0x10)
        });
        let slot = c.slot_of(0x10);
        assert_eq!(c.corrupt(slot, nth_field(a)), Some(0x10));
        assert_eq!(c.corrupt(slot, nth_field(b)), Some(0x10));
        c
    }

    /// The parity column a cache site flips.
    fn column(i: u64) -> u32 {
        nth_field(i).bit().unwrap().1 % 32
    }

    #[test]
    fn two_flips_in_one_column_escape_the_check() {
        // Next-PC payload bit 0 and Alternate Next-PC payload bit 0 sit
        // 32 bits apart in one image word: parity's blind spot.
        assert_eq!((column(2), column(37)), (0, 0));
        let mut c = struck_twice(2, 37);
        let looked = c.lookup_verified(0x10, DETECT);
        assert!(matches!(looked, CacheLookup::Hit(d)
            if d.next_pc == NextPc::Known(0x13) && d.alt_pc == Some(NextPc::Known(0x41))));
        assert_eq!(c.parity_invalidates, 0);
    }

    #[test]
    fn two_flips_in_different_columns_are_detected() {
        // Next-PC payload bits 0 and 1.
        assert_eq!((column(2), column(3)), (0, 1));
        let mut c = struck_twice(2, 3);
        assert_eq!(c.lookup_verified(0x10, DETECT), CacheLookup::ParityError);
        assert_eq!(c.parity_invalidates, 1);
    }

    /// A cache holding `pcs`, as a fault-free run leaves it.
    fn filled(pcs: &[u32]) -> DecodedCache {
        let mut c = DecodedCache::new(32);
        for &pc in pcs {
            c.insert(entry(pc));
        }
        c
    }

    #[test]
    fn same_future_compares_entries_in_either_mode() {
        let golden = filled(&[0x10, 0x24]);
        let mut other = filled(&[0x24, 0x10]);
        for parity in [ParityMode::Off, DETECT] {
            assert!(other.same_future(&golden, parity), "{parity:?}");
        }
        other.insert(entry(0x10 + 64));
        for parity in [ParityMode::Off, DETECT] {
            assert!(!other.same_future(&golden, parity), "{parity:?}");
        }
    }

    #[test]
    fn struck_line_same_futures_only_unchecked() {
        let golden = filled(&[0x10, 0x24]);
        // A strike that left the entry's decode as it was but flipped a
        // parity column: the next checked read drops the line.
        let mut struck = golden.clone();
        let slot = struck.slot_of(0x10);
        struck.entries[slot].as_mut().unwrap().delta ^= 1;
        assert!(!struck.same_future(&golden, DETECT));
        // Unchecked, the same line is served as the golden's is.
        assert!(struck.same_future(&golden, ParityMode::Off));
        // A refill clears the delta.
        struck.insert(entry(0x10));
        assert!(struck.same_future(&golden, DETECT));
    }
}
