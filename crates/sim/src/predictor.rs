//! Hardware branch-direction predictors shared between the cycle
//! engine and the trace-driven study in `crisp-predict`.
//!
//! The paper's comparison — a single compiler-set static bit against
//! dynamic hardware schemes — needs both kinds of model to make *the
//! same predictions over the same branch stream*, or the cycle-level
//! and trace-level numbers cannot be reconciled. This module owns the
//! shared [`Predictor`] trait (re-exported by `crisp_predict`) plus the
//! one implementation of each hardware table: the pipeline
//! instantiates them from [`HwPredictor`], and `crisp-predict` scores
//! traces on the same types:
//!
//! * [`CounterTable`] — a direct-mapped table of n-bit saturating
//!   counters (J. Smith's weighted history, the scheme behind the
//!   paper's Table 1 dynamic columns);
//! * [`BtbTable`] — the direction half of a Lee-Smith branch target
//!   buffer (set-associative, 2-bit counters, LRU, allocate-on-taken);
//! * [`JumpTraceTable`] — the MU5 jump trace (a small fully-associative
//!   FIFO of taken-branch addresses).
//!
//! # The trace-vs-pipeline seam
//!
//! A trace-driven model sees `predict → update` fused per branch; the
//! pipeline predicts at fetch and trains at retire, so in a tight loop
//! a branch is predicted again *before* its previous outcome trains
//! the table, and wrong-path fetches are predicted but never trained.
//! The contract that keeps the two worlds bit-identical is therefore:
//! **`predict` never mutates predictor state; `update` carries every
//! mutation** (counter movement, LRU stamps, allocation, eviction).
//! Under that contract, replaying the pipeline's actual operation
//! stream through a fresh table reproduces its prediction stream
//! exactly — the seam test in the `prop_predictor_xval` suite.
//!
//! The tables here are direction-only: the BTB and jump trace store no
//! branch targets, since no stored target ever influences hit/miss,
//! counter state or replacement. `crisp-predict`'s `Btb` and
//! `JumpTrace` add target bookkeeping over these tables, so a
//! trace-driven score can also charge a taken branch whose stored
//! target is stale.

use crate::config::HwPredictor;
use crate::soft_error::{FaultField, Layout, ParityMode, BTB_COUNTER, BTB_TAG};

/// A per-branch direction predictor consulted before each conditional
/// branch and trained afterwards.
///
/// `predict` must be semantically read-only (no observable effect on
/// later predictions or updates); `update` carries all state mutation.
/// The pipeline relies on this split — see the module docs.
pub trait Predictor {
    /// Predict whether the branch at `pc` will be taken.
    fn predict(&mut self, pc: u32) -> bool;
    /// Train with the actual outcome.
    fn update(&mut self, pc: u32, taken: bool);
    /// Short human-readable name.
    fn name(&self) -> String;
}

/// A direct-mapped table of n-bit saturating counters (the dynamic
/// hardware predictor the paper evaluated and rejected). Counters start
/// at the weakly-not-taken value; the index is the parcel address
/// (`pc >> 1`) masked to the table size. The finite-table ablation
/// scores traces on this type directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterTable {
    bits: u8,
    threshold: u8,
    max: u8,
    mask: usize,
    counters: Vec<u8>,
}

impl CounterTable {
    /// Create a table of `entries` counters, each `bits` wide.
    ///
    /// # Panics
    ///
    /// Panics on a zero/oversized width or a non-power-of-two size
    /// (construction sites validate via [`crate::SimConfig::validate`]).
    pub fn new(bits: u8, entries: usize) -> CounterTable {
        assert!((1..=7).contains(&bits), "counter bits must be 1..=7");
        assert!(
            entries.is_power_of_two() && entries >= 1,
            "table entries must be a power of two"
        );
        let threshold = 1 << (bits - 1);
        CounterTable {
            bits,
            threshold,
            max: (1 << bits) - 1,
            mask: entries - 1,
            // Weakly not-taken initial state.
            counters: vec![threshold - 1; entries],
        }
    }

    fn index(&self, pc: u32) -> usize {
        ((pc >> 1) as usize) & self.mask
    }

    /// Read-only prediction for the branch at `pc`.
    #[inline]
    pub fn guess(&self, pc: u32) -> bool {
        self.counters[self.index(pc)] >= self.threshold
    }

    /// Move the counter toward the actual outcome.
    #[inline]
    pub fn train(&mut self, pc: u32, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(self.max);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Flip one bit of the counter at `slot` (modulo the table size) —
    /// transient-fault injection. The flip stays inside the counter's
    /// width, so the value remains representable and later training is
    /// unaffected; there is no parity on counters (a flipped counter is
    /// just a different — equally legal — prediction history). Returns
    /// the parcel address that indexes the struck counter.
    pub fn corrupt(&mut self, slot: u32, bit: u8) -> Option<u32> {
        let i = slot as usize % self.counters.len();
        self.counters[i] ^= 1 << (bit % self.bits);
        Some((i as u32) << 1)
    }
}

impl Predictor for CounterTable {
    fn predict(&mut self, pc: u32) -> bool {
        self.guess(pc)
    }

    fn update(&mut self, pc: u32, taken: bool) {
        self.train(pc, taken);
    }

    fn name(&self) -> String {
        format!("{}-bit dynamic, {} entries", self.bits, self.mask + 1)
    }
}

/// One resident BTB entry: a branch address with its 2-bit direction
/// counter, LRU stamp and parity delta. No target — see the module
/// docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BtbSlot {
    pc: u32,
    counter: u8,
    used: u64,
    /// Whether the entry's one parity bit over the tag and the counter
    /// disagrees with their content: every legitimate write re-encodes
    /// the bit and clears this, and each flip of a tag or counter bit
    /// toggles it, which the train-port scrub detects. The LRU stamp is
    /// replacement metadata, not prediction state, so it is outside the
    /// protected word.
    flipped: bool,
}

/// The direction half of a set-associative branch target buffer with
/// 2-bit counters, LRU replacement and allocate-on-taken — the
/// Lee-Smith design the paper sizes at "128 sets of 4 entries" (and
/// notes would be "nearly as large as our entire microprocessor
/// chip"). A lookup miss predicts not-taken (fall through).
#[derive(Debug, Clone)]
pub struct BtbTable {
    mask: usize,
    ways: usize,
    /// Per-set entry lists, each preallocated to `ways` so the steady
    /// state never allocates.
    sets: Vec<Vec<BtbSlot>>,
    /// LRU clock, advanced once per [`BtbTable::train`].
    clock: u64,
    /// Total parity-mismatched entries scrubbed from the table. Kept
    /// separate from the cache's `parity_invalidates`: a scrub drops
    /// hint state without a refill, so it is not an invalidate event.
    pub parity_scrubs: u64,
}

impl BtbTable {
    /// Create a BTB of `sets` sets × `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics when `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> BtbTable {
        assert!(
            sets.is_power_of_two() && sets >= 1,
            "sets must be a power of two"
        );
        assert!(ways >= 1, "ways must be at least 1");
        BtbTable {
            mask: sets - 1,
            ways,
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            clock: 0,
            parity_scrubs: 0,
        }
    }

    /// Scrub the set `pc` trains through the train-port parity check:
    /// every entry whose parity bit disagrees with its content is
    /// dropped (the BTB is a hint structure — scrubbing costs
    /// prediction accuracy, never correctness). Reads stay unchecked: a
    /// wrong direction guess is architecturally safe, so the read port
    /// needs no parity tree — exactly the cheap-hardware argument the
    /// paper makes.
    fn scrub(&mut self, pc: u32) {
        let idx = self.set_index(pc);
        let set = &mut self.sets[idx];
        let before = set.len();
        set.retain(|e| !e.flipped);
        self.parity_scrubs += (before - set.len()) as u64;
    }

    /// Flip one bit of a resident entry (transient-fault injection).
    /// `slot` indexes the resident entries in set order, modulo
    /// occupancy; returns the struck entry's branch address, or `None`
    /// when the table holds no state to corrupt. A tag or counter flip
    /// leaves the entry's parity bit stale — that is what makes the
    /// strike detectable — so it toggles `flipped`; two flips in one
    /// entry cancel, as one parity bit covers both fields.
    pub fn corrupt(&mut self, slot: u32, field: FaultField) -> Option<u32> {
        let total: usize = self.sets.iter().map(Vec::len).sum();
        if total == 0 || field.layout != Layout::BtbSlot {
            return None;
        }
        let mut n = slot as usize % total;
        let set = self
            .sets
            .iter_mut()
            .find(|s| {
                if n < s.len() {
                    true
                } else {
                    n -= s.len();
                    false
                }
            })
            .expect("total counted above");
        let pc = set[n].pc;
        match *field.row() {
            BTB_TAG => set[n].pc ^= 1 << field.bit,
            BTB_COUNTER => set[n].counter ^= 1 << field.bit,
            // A dropped valid bit is indistinguishable from an
            // eviction: undetectable, and trivially safe.
            _ => {
                set.remove(n);
                return Some(pc);
            }
        }
        set[n].flipped ^= true;
        Some(pc)
    }

    fn set_index(&self, pc: u32) -> usize {
        ((pc >> 1) as usize) & self.mask
    }

    /// Whether this table and `other`, a fault-free run's table, predict
    /// and train the same from here on, in a machine of `mem_size`
    /// bytes. The geometry and the LRU clock must match, and each set
    /// must hold the fault-free set's entries (counter, LRU stamp and
    /// parity delta alike, in any order) plus only *dead* entries, each
    /// older than every fault-free entry of its set. A dead entry is
    /// one no lookup or train can find: it sits outside its address's
    /// set (a flipped set-index bit), or its address lies at or past
    /// the end of memory, where no decoded branch can sit (a flipped
    /// high tag bit). An odd address is not dead, as wild control flow
    /// can fetch one. The rule is exact by induction over `guess`,
    /// `train` and the scrub: a dead entry is never hit; a hit stamps
    /// the same entry with the same clock on both sides; where the
    /// fault-free set is full the struck set holds no dead entry, and
    /// where only the struck set is full its LRU victim is a dead
    /// entry; a scrub only drops entries. Live entries carry the
    /// fault-free run's clear parity deltas, so a scrub in either run
    /// drops none of them, and the `parity_scrubs` counter is left out.
    fn same_future(&self, other: &BtbTable, mem_size: u32) -> bool {
        let BtbTable {
            mask,
            ways,
            sets,
            clock,
            parity_scrubs: _,
        } = self;
        (*mask, *ways, *clock) == (other.mask, other.ways, other.clock)
            && sets
                .iter()
                .zip(&other.sets)
                .enumerate()
                .all(|(s, (set, golden))| {
                    let dead = |e: &&BtbSlot| self.set_index(e.pc) != s || e.pc >= mem_size;
                    // Each golden entry is one of `set`'s live entries; a
                    // fault-free set holds each address once, so equal
                    // counts make the match one to one.
                    set == golden
                        || (golden.iter().all(|g| !dead(&g) && set.contains(g))
                            && set.iter().filter(|e| !dead(e)).count() == golden.len()
                            && set
                                .iter()
                                .filter(dead)
                                .all(|e| golden.iter().all(|g| e.used < g.used)))
                })
    }

    /// Read-only prediction: `(direction, table_miss)`. A hit predicts
    /// by its counter; a miss predicts not-taken.
    #[inline]
    pub fn guess(&self, pc: u32) -> (bool, bool) {
        match self.sets[self.set_index(pc)].iter().find(|e| e.pc == pc) {
            Some(e) => (e.counter >= 2, false),
            None => (false, true),
        }
    }

    /// Train with the actual outcome: move a hit entry's counter and
    /// LRU stamp; allocate on a taken miss (evicting LRU at capacity).
    /// Either write re-encodes the entry's parity bit. This port does
    /// not check parity; under [`ParityMode::DetectInvalidate`],
    /// [`HwPredictorState::train`] first scrubs the set of
    /// parity-mismatched entries, so corrupted state is dropped before
    /// it can be trained.
    pub fn train(&mut self, pc: u32, taken: bool) {
        self.clock += 1;
        let idx = self.set_index(pc);
        let clock = self.clock;
        let ways = self.ways;
        let set = &mut self.sets[idx];
        match set.iter_mut().find(|e| e.pc == pc) {
            Some(e) => {
                e.counter = if taken {
                    (e.counter + 1).min(3)
                } else {
                    e.counter.saturating_sub(1)
                };
                e.used = clock;
                e.flipped = false;
            }
            None if taken => {
                // Allocate on taken branches only (a BTB of fall-through
                // branches would be useless), born weakly taken.
                let entry = BtbSlot {
                    pc,
                    counter: 2,
                    used: clock,
                    flipped: false,
                };
                if set.len() < ways {
                    set.push(entry);
                } else {
                    let lru = set
                        .iter_mut()
                        .min_by_key(|e| e.used)
                        .expect("ways >= 1 guarantees an entry at capacity");
                    *lru = entry;
                }
            }
            None => {}
        }
    }
}

impl Predictor for BtbTable {
    fn predict(&mut self, pc: u32) -> bool {
        self.guess(pc).0
    }

    fn update(&mut self, pc: u32, taken: bool) {
        self.train(pc, taken);
    }

    fn name(&self) -> String {
        format!("BTB {}x{}", self.mask + 1, self.ways)
    }
}

/// The Manchester MU5 Jump Trace: a small fully-associative FIFO of
/// taken-branch addresses. A hit predicts taken; a miss predicts
/// sequential flow; a not-taken occurrence evicts its entry. The paper:
/// "Results for the MU5 show only a 40-65 percent correct prediction
/// rate for an eight entry jump-trace, barely better than tossing a
/// coin."
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JumpTraceTable {
    capacity: usize,
    /// FIFO order, oldest first; preallocated to capacity.
    entries: Vec<u32>,
}

impl JumpTraceTable {
    /// Create a jump trace with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> JumpTraceTable {
        assert!(capacity >= 1, "capacity must be at least 1");
        JumpTraceTable {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Read-only prediction: `(direction, table_miss)`. A resident
    /// branch predicts taken; anything else predicts not-taken.
    #[inline]
    pub fn guess(&self, pc: u32) -> (bool, bool) {
        let hit = self.entries.contains(&pc);
        (hit, !hit)
    }

    /// Train with the actual outcome: a not-taken hit evicts, a taken
    /// miss inserts (dropping the oldest entry at capacity).
    pub fn train(&mut self, pc: u32, taken: bool) {
        let hit = self.entries.iter().position(|&p| p == pc);
        match (hit, taken) {
            (Some(_), true) => {}
            (Some(i), false) => {
                self.entries.remove(i);
            }
            (None, true) => {
                if self.entries.len() == self.capacity {
                    self.entries.remove(0);
                }
                self.entries.push(pc);
            }
            (None, false) => {}
        }
    }

    /// Flip one bit of the resident address at `slot` (modulo
    /// occupancy) — transient-fault injection. The FIFO stores bare
    /// addresses with no parity: a flipped address just predicts a
    /// different branch taken, which is architecturally safe. Returns
    /// the original address, or `None` when the trace is empty.
    pub fn corrupt(&mut self, slot: u32, bit: u8) -> Option<u32> {
        if self.entries.is_empty() {
            return None;
        }
        let i = slot as usize % self.entries.len();
        let old = self.entries[i];
        self.entries[i] ^= 1 << (bit % 32);
        Some(old)
    }
}

impl Predictor for JumpTraceTable {
    fn predict(&mut self, pc: u32) -> bool {
        self.guess(pc).0
    }

    fn update(&mut self, pc: u32, taken: bool) {
        self.train(pc, taken);
    }

    fn name(&self) -> String {
        format!("jump trace, {} entries", self.capacity)
    }
}

/// The live predictor instance the cycle engine carries, instantiated
/// from [`HwPredictor`] (`None` for the static bit — the shipped
/// design has no hardware table at all, and the hot path stays
/// untouched).
#[derive(Debug, Clone)]
pub enum HwPredictorState {
    /// Direct-mapped n-bit saturating counters.
    Counters(CounterTable),
    /// Set-associative Lee-Smith BTB (direction half).
    Btb(BtbTable),
    /// MU5 jump trace FIFO.
    JumpTrace(JumpTraceTable),
}

impl HwPredictorState {
    /// Build the table a configuration calls for; `None` for
    /// [`HwPredictor::StaticBit`].
    pub fn from_config(cfg: HwPredictor) -> Option<HwPredictorState> {
        match cfg {
            HwPredictor::StaticBit => None,
            HwPredictor::Dynamic { bits, entries } => {
                Some(HwPredictorState::Counters(CounterTable::new(bits, entries)))
            }
            HwPredictor::Btb { entries, ways } => {
                Some(HwPredictorState::Btb(BtbTable::new(entries, ways)))
            }
            HwPredictor::JumpTrace { entries } => {
                Some(HwPredictorState::JumpTrace(JumpTraceTable::new(entries)))
            }
        }
    }

    /// Read-only prediction: `(direction, table_miss)`. `table_miss`
    /// marks a guess that came from the miss default rather than a
    /// resident entry — a direct-mapped counter table always "hits".
    #[inline]
    pub fn guess(&self, pc: u32) -> (bool, bool) {
        match self {
            HwPredictorState::Counters(t) => (t.guess(pc), false),
            HwPredictorState::Btb(t) => t.guess(pc),
            HwPredictorState::JumpTrace(t) => t.guess(pc),
        }
    }

    /// Train with the actual outcome, in a run of parity mode `parity`:
    /// under [`ParityMode::DetectInvalidate`] the BTB's train port
    /// first scrubs the trained set of parity-mismatched entries.
    /// Counter tables and the jump trace carry no parity (a flipped
    /// entry is a legal — if wrong — history), so the mode does not
    /// touch them.
    #[inline]
    pub fn train(&mut self, pc: u32, taken: bool, parity: ParityMode) {
        match self {
            HwPredictorState::Counters(t) => t.train(pc, taken),
            HwPredictorState::Btb(t) => {
                if parity == ParityMode::DetectInvalidate {
                    t.scrub(pc);
                }
                t.train(pc, taken);
            }
            HwPredictorState::JumpTrace(t) => t.train(pc, taken),
        }
    }

    /// Whether the table currently holds any state a fault could land
    /// in. Counter tables are always fully resident; the BTB and jump
    /// trace start empty and fill as branches train them.
    pub fn has_state(&self) -> bool {
        match self {
            HwPredictorState::Counters(_) => true,
            HwPredictorState::Btb(t) => t.sets.iter().any(|s| !s.is_empty()),
            HwPredictorState::JumpTrace(t) => !t.entries.is_empty(),
        }
    }

    /// Flip one bit of resident predictor state (transient-fault
    /// injection), dispatching on the fault field's table. Returns the
    /// struck entry's branch address, or `None` when the field does not
    /// belong to this table kind or the table holds nothing to corrupt.
    pub fn corrupt(&mut self, slot: u32, field: FaultField) -> Option<u32> {
        match (self, field.layout) {
            (HwPredictorState::Counters(t), Layout::Counter) => t.corrupt(slot, field.bit),
            (HwPredictorState::Btb(t), Layout::BtbSlot) => t.corrupt(slot, field),
            (HwPredictorState::JumpTrace(t), Layout::JumpTrace) => t.corrupt(slot, field.bit),
            _ => None,
        }
    }

    /// Whether this table and `other`, a fault-free run's table, predict
    /// and train the same from here on, in a machine of `mem_size`
    /// bytes: the counter and jump-trace tables bit for bit, the BTB up
    /// to dead entries and its scrub counter (see
    /// `BtbTable::same_future`).
    pub(crate) fn same_future(&self, other: &HwPredictorState, mem_size: u32) -> bool {
        match (self, other) {
            (HwPredictorState::Counters(a), HwPredictorState::Counters(b)) => a == b,
            (HwPredictorState::Btb(a), HwPredictorState::Btb(b)) => a.same_future(b, mem_size),
            (HwPredictorState::JumpTrace(a), HwPredictorState::JumpTrace(b)) => a == b,
            _ => false,
        }
    }

    /// Total parity-mismatched entries scrubbed by the train port.
    pub fn parity_scrubs(&self) -> u64 {
        match self {
            HwPredictorState::Btb(t) => t.parity_scrubs,
            _ => 0,
        }
    }
}

impl Predictor for HwPredictorState {
    fn predict(&mut self, pc: u32) -> bool {
        self.guess(pc).0
    }

    /// Trains with parity off: a branch trace has no parity mode.
    fn update(&mut self, pc: u32, taken: bool) {
        self.train(pc, taken, ParityMode::Off);
    }

    fn name(&self) -> String {
        match self {
            HwPredictorState::Counters(t) => t.name(),
            HwPredictorState::Btb(t) => t.name(),
            HwPredictorState::JumpTrace(t) => t.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_table_learns_and_saturates() {
        let mut t = CounterTable::new(2, 16);
        assert!(!t.guess(0x10), "weakly not-taken start");
        t.train(0x10, true);
        t.train(0x10, true);
        assert!(t.guess(0x10));
        // One not-taken must not flip a strongly-taken counter.
        t.train(0x10, true);
        t.train(0x10, false);
        assert!(t.guess(0x10));
    }

    #[test]
    fn counter_table_aliases_at_table_size() {
        let t = CounterTable::new(2, 16);
        assert_eq!(t.index(0x20), t.index(0x20 + 32));
        assert_ne!(t.index(0x20), t.index(0x22));
    }

    #[test]
    fn btb_miss_predicts_not_taken_and_allocates_on_taken() {
        let mut t = BtbTable::new(8, 2);
        assert_eq!(t.guess(0x10), (false, true));
        t.train(0x10, true);
        assert_eq!(t.guess(0x10), (true, false), "born weakly taken");
        // Never-taken branches are not allocated.
        t.train(0x20, false);
        assert_eq!(t.guess(0x20), (false, true));
    }

    #[test]
    fn btb_predict_does_not_mutate() {
        let mut t = BtbTable::new(8, 2);
        t.train(0x10, true);
        let before = format!("{t:?}");
        for _ in 0..10 {
            t.guess(0x10);
            t.guess(0x99);
        }
        assert_eq!(format!("{t:?}"), before);
    }

    const DETECT: ParityMode = ParityMode::DetectInvalidate;

    /// The BTB fault site `i`: tag bits 0–31, then counter bits 0–1.
    fn btb_field(i: u64) -> FaultField {
        let btb = HwPredictor::Btb {
            entries: 8,
            ways: 4,
        };
        crate::soft_error::nth_predictor_field(btb, i).unwrap()
    }

    /// An 8 × 4 BTB that has trained one taken branch at 0x10 (set 0).
    fn btb_holding_0x10() -> HwPredictorState {
        let mut t = HwPredictorState::Btb(BtbTable::new(8, 4));
        t.train(0x10, true, DETECT);
        t
    }

    #[test]
    fn btb_scrub_drops_a_struck_entry() {
        let mut t = btb_holding_0x10();
        // Counter bit 0: weakly taken becomes strongly taken.
        assert_eq!(t.corrupt(0, btb_field(32)), Some(0x10));
        assert_eq!(t.guess(0x10), (true, false), "reads are unchecked");
        // A not-taken train of 0x30 (set 0) scrubs without allocating.
        t.train(0x30, false, ParityMode::Off);
        assert_eq!(t.parity_scrubs(), 0, "parity off never scrubs");
        t.train(0x30, false, DETECT);
        assert_eq!(t.parity_scrubs(), 1);
        assert_eq!(t.guess(0x10), (false, true));
    }

    #[test]
    fn btb_tag_and_counter_flips_in_one_entry_escape_the_scrub() {
        let mut t = btb_holding_0x10();
        // Tag bit 4 turns 0x10 into 0x00, still in set 0; counter bit 0
        // makes it strongly taken. One parity bit covers both fields, so
        // the two flips cancel.
        assert_eq!(t.corrupt(0, btb_field(4)), Some(0x10));
        assert_eq!(t.corrupt(0, btb_field(32)), Some(0x00));
        t.train(0x30, false, DETECT);
        assert_eq!(t.parity_scrubs(), 0);
        assert_eq!(t.guess(0x00), (true, false));
    }

    #[test]
    fn btb_hit_train_clears_a_counter_strike() {
        // Counter bit 0 of a strongly-taken entry: 3 becomes 2. A taken
        // hit under parity-off training saturates it back, and the write
        // re-encodes the parity bit, so the entry is the fault-free one.
        let mut golden = BtbTable::new(8, 4);
        golden.train(0x10, true);
        golden.train(0x10, true);
        let mut struck = golden.clone();
        assert_eq!(struck.corrupt(0, btb_field(32)), Some(0x10));
        assert!(!struck.same_future(&golden, MEM));
        train_both(&mut golden, &mut struck, 0x10, true);
        assert!(struck.same_future(&golden, MEM));
    }

    /// The memory size the `same_future` tests run in.
    const MEM: u32 = 0x1000;

    /// An 8 × 4 fault-free table holding 0x10 (stamp 1) and 0x30
    /// (stamp 2) in set 0, and a copy of it whose entry for `pc` has
    /// tag bit `bit` flipped, as a strike leaves it.
    fn struck_pair(pc: u32, bit: u8) -> (BtbTable, BtbTable) {
        let mut golden = BtbTable::new(8, 4);
        golden.train(0x10, true);
        golden.train(0x30, true);
        let mut struck = golden.clone();
        let e = struck.sets[0].iter_mut().find(|e| e.pc == pc).unwrap();
        e.pc ^= 1 << bit;
        (golden, struck)
    }

    /// Trains both tables with the same outcome.
    fn train_both(a: &mut BtbTable, b: &mut BtbTable, pc: u32, taken: bool) {
        a.train(pc, taken);
        b.train(pc, taken);
    }

    #[test]
    fn btb_same_future_ignores_misplaced_junk_older_than_every_entry() {
        // Tag bit 1 moves 0x10's entry to an address of set 1, where no
        // lookup of set 0 finds it. Two taken trains re-allocate 0x10
        // and bring its counter back to the fault-free run's.
        let (mut golden, mut struck) = struck_pair(0x10, 1);
        assert!(!struck.same_future(&golden, MEM), "0x10 is missing");
        train_both(&mut golden, &mut struck, 0x10, true);
        assert!(!struck.same_future(&golden, MEM), "counter 2 against 3");
        train_both(&mut golden, &mut struck, 0x10, true);
        assert!(struck.same_future(&golden, MEM));
    }

    #[test]
    fn btb_same_future_refuses_junk_stamped_after_a_live_entry() {
        // 0x30's junk (stamp 2) is younger than 0x10 (stamp 1), so the
        // struck set's LRU victim would be 0x10, not the junk.
        let (mut golden, mut struck) = struck_pair(0x30, 1);
        for _ in 0..2 {
            train_both(&mut golden, &mut struck, 0x30, true);
        }
        assert_eq!(struck.sets[0].len(), 3);
        assert!(!struck.same_future(&golden, MEM));
        train_both(&mut golden, &mut struck, 0x50, true);
        train_both(&mut golden, &mut struck, 0x70, true);
        assert_eq!(golden.guess(0x10), (true, false));
        assert_eq!(struck.guess(0x10), (false, true), "0x10 evicted");
    }

    #[test]
    fn btb_same_future_refuses_in_set_junk_below_the_memory_size() {
        // Tag bit 8 keeps 0x10's entry in set 0, as 0x110, which a
        // branch at 0x110 would hit.
        let (mut golden, mut struck) = struck_pair(0x10, 8);
        for _ in 0..2 {
            train_both(&mut golden, &mut struck, 0x10, true);
        }
        assert!(!struck.same_future(&golden, MEM));
        assert_eq!(struck.guess(0x110), (true, false));
        assert_eq!(golden.guess(0x110), (false, true));
    }

    #[test]
    fn btb_same_future_ignores_junk_at_or_past_the_memory_size() {
        // Tag bit 12 keeps 0x10's entry in set 0, as 0x1010.
        let (mut golden, mut struck) = struck_pair(0x10, 12);
        for _ in 0..2 {
            train_both(&mut golden, &mut struck, 0x10, true);
        }
        assert!(struck.same_future(&golden, 0x1000), "past the end");
        assert!(struck.same_future(&golden, 0x1010), "at the end");
        assert!(!struck.same_future(&golden, 0x1011), "inside memory");
    }

    #[test]
    fn btb_same_future_refuses_a_missing_golden_entry() {
        // The junk is dead, but 0x30 has not been re-allocated yet.
        let (golden, struck) = struck_pair(0x30, 12);
        assert!(!struck.same_future(&golden, MEM));
        assert_eq!(golden.guess(0x30), (true, false));
        assert_eq!(struck.guess(0x30), (false, true));
    }

    #[test]
    fn btb_same_future_ignores_entry_order() {
        let (golden, _) = struck_pair(0x10, 1);
        let mut reordered = golden.clone();
        reordered.sets[0].reverse();
        assert_ne!(reordered.sets, golden.sets);
        assert!(reordered.same_future(&golden, MEM));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The induction behind `BtbTable::same_future`: once a struck
        /// table is judged to share the fault-free table's future, one
        /// train stream over both keeps every guess equal and the pair
        /// judged the same. The tables are 4 sets × 3 ways over 16
        /// branch addresses below a 64-byte memory, so sets overflow and
        /// tag bits 1–2 misplace an entry, bits 3–5 keep it live and
        /// bits 6–31 put it past the end. The fault-free table trains
        /// protected, as a campaign's golden does, and the struck table
        /// with or without the scrub.
        #[test]
        fn btb_dead_entries_never_change_the_future(
            prefix in prop::collection::vec((0u32..16, any::<bool>()), 1..24),
            slot in any::<u32>(),
            bit in 0u32..32,
            protect in any::<bool>(),
            stream in prop::collection::vec((0u32..16, any::<bool>()), 1..64),
        ) {
            const MEM: u32 = 64;
            let mut golden = BtbTable::new(4, 3);
            for &(k, taken) in &prefix {
                golden.scrub(2 * k);
                golden.train(2 * k, taken);
            }
            let mut struck = golden.clone();
            let btb = HwPredictor::Btb { entries: 4, ways: 3 };
            let field = crate::soft_error::nth_predictor_field(btb, u64::from(bit)).unwrap();
            prop_assert_eq!(field.to_string(), format!("btb-tag bit {bit}"));
            if struck.corrupt(slot, field).is_none() {
                return Ok(());
            }
            let mut joined = false;
            for &(k, taken) in &stream {
                joined |= struck.same_future(&golden, MEM);
                if joined {
                    prop_assert!(struck.same_future(&golden, MEM));
                    for pc in (0..16).map(|k| 2 * k) {
                        prop_assert_eq!(struck.guess(pc), golden.guess(pc));
                    }
                }
                golden.scrub(2 * k);
                if protect {
                    struck.scrub(2 * k);
                }
                train_both(&mut golden, &mut struck, 2 * k, taken);
            }
        }
    }

    #[test]
    fn btb_evicts_lru_within_a_set() {
        // 1 set × 2 ways: three hot branches fight over two slots.
        let mut t = BtbTable::new(1, 2);
        t.train(0x10, true);
        t.train(0x20, true);
        // 0x10 is LRU; allocating 0x30 must displace it.
        t.train(0x30, true);
        assert_eq!(t.guess(0x10), (false, true), "LRU entry evicted");
        assert!(!t.guess(0x20).1);
        assert!(!t.guess(0x30).1);
    }

    #[test]
    fn jump_trace_fifo_and_not_taken_eviction() {
        let mut t = JumpTraceTable::new(2);
        t.train(0x10, true);
        t.train(0x20, true);
        assert_eq!(t.guess(0x10), (true, false));
        // Capacity eviction drops the oldest.
        t.train(0x30, true);
        assert_eq!(t.guess(0x10), (false, true));
        // A not-taken occurrence evicts its entry.
        t.train(0x20, false);
        assert_eq!(t.guess(0x20), (false, true));
    }

    #[test]
    fn state_builds_from_every_config() {
        use crate::config::HwPredictor;
        assert!(HwPredictorState::from_config(HwPredictor::StaticBit).is_none());
        let c = HwPredictorState::from_config(HwPredictor::Dynamic {
            bits: 2,
            entries: 64,
        })
        .unwrap();
        assert!(matches!(c, HwPredictorState::Counters(_)));
        assert!(!c.guess(0).1, "counter tables never miss");
        let b = HwPredictorState::from_config(HwPredictor::Btb {
            entries: 128,
            ways: 4,
        })
        .unwrap();
        assert_eq!(b.guess(0), (false, true));
        let j = HwPredictorState::from_config(HwPredictor::JumpTrace { entries: 8 }).unwrap();
        assert_eq!(j.guess(0), (false, true));
    }

    #[test]
    fn trait_dispatch_matches_inherent_calls() {
        let mut s = HwPredictorState::from_config(HwPredictor::Btb {
            entries: 8,
            ways: 2,
        })
        .unwrap();
        s.update(0x10, true);
        assert_eq!(s.predict(0x10), s.guess(0x10).0);
        assert!(s.name().contains("BTB"));
    }
}
