use crisp_isa::Decoded;

use crate::soft_error::{entry_bits, parity32, strike, FaultField, ParityMode};

/// One resident cache line: the decoded entry plus its parity state.
///
/// `stored_parity` is the parity word written at fill time over the
/// canonical [`entry_bits`] image. `live_parity` tracks the parity of
/// the bits *physically* in the array: it equals `stored_parity` until
/// a fault flips a storage bit, at which point the two differ in the
/// flipped bit's column. Keeping both models a real parity check —
/// single-bit faults always detect, while an even number of flips in
/// one column cancels (parity's standard blind spot).
#[derive(Debug, Clone, Copy)]
struct CacheLine {
    d: Decoded,
    stored_parity: u32,
    live_parity: u32,
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
/// Under [`ParityMode::DetectInvalidate`] every fill also stores a
/// parity word over the entry image; [`DecodedCache::lookup_verified`]
/// checks it and turns a corrupted slot into an invalidate-plus-miss.
/// Because the cache is never written back — entries are pure decode
/// products of instruction memory — invalidate-and-redecode is a
/// complete recovery.
#[derive(Debug, Clone)]
pub struct DecodedCache {
    entries: Vec<Option<CacheLine>>,
    mask: u32,
    parity: ParityMode,
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
    /// Parity detections per slot, feeding the degrade policy.
    slot_parity_hits: Vec<u32>,
    /// Slots taken out of service by the degrade policy. A disabled
    /// slot's traffic remaps onto its partner (index with the low bit
    /// flipped), so the machine keeps running — with more conflict
    /// misses — instead of re-filling a faulty slot forever.
    disabled: Vec<bool>,
    /// Parity hits on one slot before it is disabled; `None` never
    /// degrades.
    degrade_limit: Option<u32>,
    /// Slots disabled since the engine last drained the queue.
    pending_degraded: Vec<u32>,
}

impl DecodedCache {
    /// Create an unprotected cache with `entries` slots (must be a
    /// power of two).
    ///
    /// # Panics
    ///
    /// Panics when `entries` is zero or not a power of two.
    pub fn new(entries: usize) -> DecodedCache {
        DecodedCache::with_parity(entries, ParityMode::Off)
    }

    /// Create a cache with `entries` slots and the given parity mode.
    ///
    /// # Panics
    ///
    /// Panics when `entries` is zero or not a power of two.
    pub fn with_parity(entries: usize, parity: ParityMode) -> DecodedCache {
        assert!(
            entries.is_power_of_two() && entries >= 1,
            "cache size must be a power of two"
        );
        DecodedCache {
            entries: vec![None; entries],
            mask: entries as u32 - 1,
            parity,
            inserts: 0,
            refills: 0,
            evictions: 0,
            parity_invalidates: 0,
            slot_parity_hits: vec![0; entries],
            disabled: vec![false; entries],
            degrade_limit: None,
            pending_degraded: Vec::new(),
        }
    }

    /// The configured parity mode (the PDU's fill port checks it to
    /// decide whether a corrupted in-flight entry is droppable).
    pub fn parity_mode(&self) -> ParityMode {
        self.parity
    }

    /// Arm (or disarm) the degrade policy: a slot accumulating `limit`
    /// parity detections is taken out of service and its traffic
    /// remapped onto the partner slot.
    pub fn set_degrade(&mut self, limit: Option<u32>) {
        self.degrade_limit = limit;
    }

    /// Drain one pending slot-disablement (for the engine to turn into
    /// a `Degrade` event + stat); `None` when nothing new degraded.
    pub fn take_degraded(&mut self) -> Option<u32> {
        self.pending_degraded.pop()
    }

    /// Slots currently out of service under the degrade policy.
    pub fn degraded_slots(&self) -> u64 {
        self.disabled.iter().filter(|&&d| d).count() as u64
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
        let idx = ((pc >> 1) & self.mask) as usize;
        if self.disabled[idx] {
            // Remap onto the partner slot (low index bit flipped). When
            // the partner is also disabled — or the cache has a single
            // slot — keep the home index; it simply never hits.
            let partner = (idx ^ 1) & self.mask as usize;
            if !self.disabled[partner] {
                return partner;
            }
        }
        idx
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
    /// [`ParityMode::DetectInvalidate`] is configured.
    ///
    /// The parity check runs *before* the tag compare — corrupted bits
    /// cannot be trusted to include a correct tag — so a slot whose
    /// stored bits no longer match their fill-time parity is
    /// invalidated and reported as [`CacheLookup::ParityError`] no
    /// matter which PC probed it. The caller then takes the ordinary
    /// miss path and the PDU redecodes the entry from memory.
    pub fn lookup_verified(&mut self, pc: u32) -> CacheLookup<'_> {
        let idx = self.index(pc);
        // The invalidate (needing `&mut`) happens before the borrow of
        // the line is handed out, so the hit path can return a
        // reference into the slot.
        let parity_failed = matches!(&self.entries[idx], Some(line)
            if self.parity == ParityMode::DetectInvalidate
                && line.live_parity != line.stored_parity);
        if parity_failed {
            self.entries[idx] = None;
            self.parity_invalidates += 1;
            self.slot_parity_hits[idx] += 1;
            if let Some(limit) = self.degrade_limit {
                if self.slot_parity_hits[idx] >= limit && !self.disabled[idx] {
                    self.disabled[idx] = true;
                    self.pending_degraded.push(idx as u32);
                }
            }
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
        let parity = match self.parity {
            ParityMode::Off => 0,
            ParityMode::DetectInvalidate => parity32(&entry_bits(&d)),
        };
        self.entries[idx] = Some(CacheLine {
            d,
            stored_parity: parity,
            live_parity: parity,
        });
        evicted
    }

    /// Flip one bit of the entry resident in `slot` (taken modulo the
    /// cache size) — the transient-fault injection point. Returns the
    /// PC of the corrupted entry, or `None` when the slot held nothing
    /// (the fault lands in invalid state and has no effect).
    ///
    /// A `valid` fault clears the slot (a live valid bit can only flip
    /// to invalid). Any other fault re-encodes the entry, flips the
    /// mapped bit, and stores the total re-decode; the slot's
    /// `live_parity` is updated to the parity of the flipped bits, so a
    /// later [`DecodedCache::lookup_verified`] sees exactly what a
    /// hardware parity check would.
    pub fn corrupt(&mut self, slot: usize, field: FaultField) -> Option<u32> {
        let idx = slot % self.entries.len();
        let line = self.entries[idx].as_mut()?;
        let pc = line.d.pc;
        match strike(&mut line.d, field) {
            Some(delta) => line.live_parity ^= delta,
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

    /// Whether this cache and `other` behave the same from here on:
    /// the same resident entries, the same parity state where parity is
    /// checked, and the same degrade bookkeeping. The fill and eviction
    /// counters are left out; they never steer a lookup.
    pub(crate) fn same_future(&self, other: &DecodedCache) -> bool {
        let checked = self.parity == ParityMode::DetectInvalidate;
        self.parity == other.parity
            && self.disabled == other.disabled
            && self.slot_parity_hits == other.slot_parity_hits
            && self.pending_degraded == other.pending_degraded
            && self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| match (a, b) {
                    (None, None) => true,
                    (Some(a), Some(b)) => {
                        a.d == b.d
                            && (!checked
                                || (a.stored_parity, a.live_parity)
                                    == (b.stored_parity, b.live_parity))
                    }
                    _ => false,
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soft_error::nth_field;
    use crisp_isa::{ExecOp, FoldClass, NextPc};

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
        let mut c = DecodedCache::with_parity(32, ParityMode::DetectInvalidate);
        c.insert(entry(0x10));
        let slot = c.slot_of(0x10);
        // Next-PC payload bit 0.
        assert_eq!(c.corrupt(slot, nth_field(2)), Some(0x10));
        // The stored entry changed but the tag still matches ...
        assert_eq!(c.lookup(0x10).unwrap().next_pc, NextPc::Known(0x12 ^ 1));
        // ... and the verified lookup detects, invalidates, counts.
        assert_eq!(c.lookup_verified(0x10), CacheLookup::ParityError);
        assert_eq!(c.parity_invalidates, 1);
        assert!(!c.contains(0x10));
        assert_eq!(c.lookup_verified(0x10), CacheLookup::Miss);
        // A refill restores clean parity.
        c.insert(entry(0x10));
        assert_eq!(c.lookup_verified(0x10), CacheLookup::Hit(&entry(0x10)));
        assert_eq!(c.parity_invalidates, 1);
    }

    #[test]
    fn corrupt_tag_is_caught_before_tag_compare() {
        let mut c = DecodedCache::with_parity(32, ParityMode::DetectInvalidate);
        c.insert(entry(0x10));
        let slot = c.slot_of(0x10);
        // Flip tag bit 31: the entry now claims a different PC.
        assert_eq!(c.corrupt(slot, nth_field(180)), Some(0x10));
        // The probe at the original PC still reaches the slot, and the
        // parity check fires before the (now wrong) tag can turn the
        // access into a silent miss that leaves the corpse resident.
        assert_eq!(c.lookup_verified(0x10), CacheLookup::ParityError);
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
        let looked = c.lookup_verified(0x10);
        assert!(matches!(looked, CacheLookup::Hit(d) if d.next_pc == NextPc::Known(0x12 ^ 1)));
        assert_eq!(c.parity_invalidates, 0);
    }
}
