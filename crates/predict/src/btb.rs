use crisp_sim::BtbTable;

use crate::Targeted;

/// A Lee-Smith branch target buffer: the cycle engine's [`BtbTable`]
/// (set-associative, 2-bit counters, LRU, allocate-on-taken, a miss
/// predicts fall-through) plus the last target seen per branch.
///
/// The paper quotes Lee & Smith's "128 sets of 4 entries", up to 78%
/// effective, as the high-water mark (and notes such a BTB "would be
/// nearly as large as our entire microprocessor chip").
pub type Btb = Targeted<BtbTable>;

impl Btb {
    /// Create a BTB of `sets` sets × `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics when `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Btb {
        Targeted::over(BtbTable::new(sets, ways))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_sim::{BranchEvent, BranchKind};

    fn ev(pc: u32, target: u32, taken: bool) -> BranchEvent {
        BranchEvent {
            pc,
            target,
            taken,
            kind: BranchKind::Cond,
        }
    }

    #[test]
    fn learns_a_steady_loop_branch() {
        let trace: Vec<_> = (0..100).map(|_| ev(0x10, 0x4, true)).collect();
        let acc = Btb::new(128, 4).evaluate(&trace);
        // First access misses (predicted not-taken), rest are correct.
        assert_eq!(acc.correct, 99);
        assert_eq!(acc.total, 100);
    }

    #[test]
    fn not_taken_branches_correct_on_miss() {
        let trace: Vec<_> = (0..50).map(|_| ev(0x10, 0x40, false)).collect();
        let acc = Btb::new(128, 4).evaluate(&trace);
        assert_eq!(acc.correct, 50);
    }

    #[test]
    fn capacity_pressure_evicts_lru() {
        // 1 set × 2 ways, three hot branches mapping to the same set.
        let mut trace = Vec::new();
        for _ in 0..30 {
            trace.push(ev(0x10, 0x2, true));
            trace.push(ev(0x20, 0x4, true));
            trace.push(ev(0x30, 0x6, true));
        }
        // Round-robin over 3 branches with 2 ways: every access misses
        // after its entry was evicted.
        let acc = Btb::new(1, 2).evaluate(&trace);
        assert_eq!((acc.correct, acc.total), (0, 90));
        // The same trace with enough ways misses only the first visits.
        let acc = Btb::new(1, 4).evaluate(&trace);
        assert_eq!((acc.correct, acc.total), (87, 90));
    }

    #[test]
    fn wrong_target_counts_as_incorrect() {
        // An indirect-style branch that keeps changing target.
        let mut trace = Vec::new();
        for i in 0..40u32 {
            trace.push(ev(0x10, 0x100 + (i % 4) * 0x10, true));
        }
        let acc = Btb::new(128, 4).evaluate(&trace);
        assert_eq!((acc.correct, acc.total), (0, 40));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        Btb::new(3, 1);
    }
}
