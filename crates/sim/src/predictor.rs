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

use crate::config::{DegradePolicy, HwPredictor};
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
/// counter, LRU stamp and a parity bit over the tag + counter. No
/// target — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BtbSlot {
    pc: u32,
    counter: u8,
    used: u64,
    /// Odd parity over `pc` and `counter`, kept correct by every
    /// legitimate write; a transient flip leaves it stale, which the
    /// train-port scrub detects.
    parity: bool,
}

/// The parity bit a well-formed [`BtbSlot`] carries: odd popcount of
/// the tag and the counter (the LRU stamp is replacement metadata, not
/// prediction state, so it is outside the protected word).
fn slot_parity(pc: u32, counter: u8) -> bool {
    (pc.count_ones() + u32::from(counter).count_ones()) & 1 == 1
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
    /// Whether the train port checks slot parity (see
    /// [`BtbTable::protect`]). Reads stay unchecked: a wrong direction
    /// guess is architecturally safe, so the read port needs no parity
    /// tree — exactly the cheap-hardware argument the paper makes.
    protected: bool,
    /// Parity detections per way position, feeding the degrade policy.
    way_parity_hits: Vec<u32>,
    /// Ways taken out of service by the degrade policy.
    ways_disabled: usize,
    /// Parity hits on one way before it is disabled; `None` never
    /// degrades.
    degrade_limit: Option<u32>,
    /// Ways disabled since the engine last drained the queue
    /// (preallocated to `ways`; see [`BtbTable::take_degraded`]).
    pending_degraded: Vec<u32>,
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
            protected: false,
            way_parity_hits: vec![0; ways],
            ways_disabled: 0,
            degrade_limit: None,
            pending_degraded: Vec::with_capacity(ways),
            parity_scrubs: 0,
        }
    }

    /// Enable the train-port parity scrub and (optionally) the degrade
    /// policy: a way accumulating `degrade_limit` parity hits is taken
    /// out of service, shrinking the table's associativity.
    pub fn protect(&mut self, parity: bool, degrade_limit: Option<u32>) {
        self.protected = parity;
        self.degrade_limit = degrade_limit;
    }

    /// Ways still in service.
    fn live_ways(&self) -> usize {
        self.ways - self.ways_disabled
    }

    /// Whether every way has been disabled: the table can no longer
    /// hold entries, so every guess is the miss default and the engine
    /// should fall back to the static prediction bit.
    pub fn fully_degraded(&self) -> bool {
        self.ways_disabled == self.ways
    }

    /// Drain one pending way-disablement (for the engine to turn into
    /// a `Degrade` event + stat); `None` when nothing new degraded.
    pub fn take_degraded(&mut self) -> Option<u32> {
        self.pending_degraded.pop()
    }

    /// Scrub one set through the train-port parity check: every entry
    /// whose stored parity disagrees with its content is dropped (the
    /// BTB is a hint structure — scrubbing costs prediction accuracy,
    /// never correctness), and repeated hits on one way position can
    /// disable that way under the degrade policy.
    fn scrub(&mut self, idx: usize) {
        if !self.protected {
            return;
        }
        loop {
            let set = &mut self.sets[idx];
            let bad = set
                .iter()
                .position(|e| e.parity != slot_parity(e.pc, e.counter));
            let Some(p) = bad else { break };
            set.remove(p);
            self.parity_scrubs += 1;
            let way = p.min(self.ways - 1);
            self.way_parity_hits[way] += 1;
            if let Some(limit) = self.degrade_limit {
                if self.way_parity_hits[way] >= limit && self.ways_disabled < self.ways {
                    self.ways_disabled += 1;
                    self.pending_degraded.push(way as u32);
                    let live = self.live_ways();
                    for s in &mut self.sets {
                        s.truncate(live);
                    }
                }
            }
        }
    }

    /// Flip one bit of a resident entry (transient-fault injection).
    /// `slot` indexes the resident entries in set order, modulo
    /// occupancy; returns the struck entry's branch address, or `None`
    /// when the table holds no state to corrupt. Stored parity is
    /// deliberately left stale — that is what makes the strike
    /// detectable.
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
            }
        }
        Some(pc)
    }

    fn set_index(&self, pc: u32) -> usize {
        ((pc >> 1) as usize) & self.mask
    }

    /// Whether this table and `other` predict and train the same from
    /// here on: every field but the `parity_scrubs` counter. LRU stamps
    /// are compared as they stand, so two tables that order their
    /// entries alike but stamped them at different trains differ.
    fn same_future(&self, other: &BtbTable) -> bool {
        let BtbTable {
            mask,
            ways,
            sets,
            clock,
            protected,
            way_parity_hits,
            ways_disabled,
            degrade_limit,
            pending_degraded,
            parity_scrubs: _,
        } = self;
        (
            *mask,
            *ways,
            *clock,
            *protected,
            *ways_disabled,
            *degrade_limit,
        ) == (
            other.mask,
            other.ways,
            other.clock,
            other.protected,
            other.ways_disabled,
            other.degrade_limit,
        ) && *way_parity_hits == other.way_parity_hits
            && *pending_degraded == other.pending_degraded
            && *sets == other.sets
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
    /// Under [`BtbTable::protect`] the write port first scrubs the set
    /// of parity-mismatched entries, so corrupted state is dropped
    /// before it can be trained.
    pub fn train(&mut self, pc: u32, taken: bool) {
        self.clock += 1;
        let idx = self.set_index(pc);
        self.scrub(idx);
        let clock = self.clock;
        let live = self.live_ways();
        let set = &mut self.sets[idx];
        match set.iter_mut().find(|e| e.pc == pc) {
            Some(e) => {
                e.counter = if taken {
                    (e.counter + 1).min(3)
                } else {
                    e.counter.saturating_sub(1)
                };
                e.used = clock;
                e.parity = slot_parity(e.pc, e.counter);
            }
            None if taken && live > 0 => {
                // Allocate on taken branches only (a BTB of fall-through
                // branches would be useless), born weakly taken.
                let entry = BtbSlot {
                    pc,
                    counter: 2,
                    used: clock,
                    parity: slot_parity(pc, 2),
                };
                if set.len() < live {
                    set.push(entry);
                } else {
                    let lru = set
                        .iter_mut()
                        .min_by_key(|e| e.used)
                        .expect("live > 0 guarantees an entry at capacity");
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

    /// Train with the actual outcome.
    #[inline]
    pub fn train(&mut self, pc: u32, taken: bool) {
        match self {
            HwPredictorState::Counters(t) => t.train(pc, taken),
            HwPredictorState::Btb(t) => t.train(pc, taken),
            HwPredictorState::JumpTrace(t) => t.train(pc, taken),
        }
    }

    /// Arm the table's protection: BTB train-port parity scrub under
    /// [`ParityMode::DetectInvalidate`], plus the way-disable degrade
    /// policy when one is configured. Counter tables and the jump trace
    /// carry no parity (a flipped entry is a legal — if wrong —
    /// history), so protection is a no-op for them.
    pub fn protect(&mut self, parity: ParityMode, degrade: Option<DegradePolicy>) {
        if let HwPredictorState::Btb(t) = self {
            t.protect(
                parity == ParityMode::DetectInvalidate,
                degrade.map(|d| d.parity_limit),
            );
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

    /// Drain one pending way-disablement from the degrade policy;
    /// `None` when nothing new degraded (or the table has no ways).
    pub fn take_degraded(&mut self) -> Option<u32> {
        match self {
            HwPredictorState::Btb(t) => t.take_degraded(),
            _ => None,
        }
    }

    /// Whether the degrade policy has taken every way out of service —
    /// the engine should fall back to the static prediction bit.
    pub fn fully_degraded(&self) -> bool {
        match self {
            HwPredictorState::Btb(t) => t.fully_degraded(),
            _ => false,
        }
    }

    /// Whether this table and `other` predict and train the same from
    /// here on (the scrub counter aside).
    pub(crate) fn same_future(&self, other: &HwPredictorState) -> bool {
        match (self, other) {
            (HwPredictorState::Counters(a), HwPredictorState::Counters(b)) => a == b,
            (HwPredictorState::Btb(a), HwPredictorState::Btb(b)) => a.same_future(b),
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

    fn update(&mut self, pc: u32, taken: bool) {
        self.train(pc, taken);
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
