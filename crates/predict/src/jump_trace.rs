use crisp_sim::JumpTraceTable;

use crate::Targeted;

/// The Manchester MU5 Jump Trace: the cycle engine's
/// [`JumpTraceTable`] (a small fully-associative FIFO of taken-branch
/// addresses) plus the last target seen per branch. A hit predicts the
/// branch taken to the stored target; a miss predicts sequential flow.
///
/// The paper: "Results for the MU5 show only a 40-65 percent correct
/// prediction rate for an eight entry jump-trace, barely better than
/// tossing a coin."
pub type JumpTrace = Targeted<JumpTraceTable>;

impl JumpTrace {
    /// The MU5's published size.
    pub const MU5_ENTRIES: usize = 8;

    /// Create a jump trace with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> JumpTrace {
        Targeted::over(JumpTraceTable::new(capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_sim::{BranchEvent, BranchKind};

    fn ev(pc: u32, taken: bool) -> BranchEvent {
        BranchEvent {
            pc,
            target: pc + 0x40,
            taken,
            kind: BranchKind::Cond,
        }
    }

    #[test]
    fn hot_branch_predicted_after_first_visit() {
        let trace: Vec<_> = (0..20).map(|_| ev(0x10, true)).collect();
        let acc = JumpTrace::new(8).evaluate(&trace);
        assert_eq!(acc.correct, 19);
    }

    #[test]
    fn small_capacity_thrashes_on_wide_working_set() {
        // 12 distinct taken branches round-robin through 8 entries:
        // every access misses after eviction.
        let mut trace = Vec::new();
        for _ in 0..20 {
            for b in 0..12u32 {
                trace.push(ev(0x100 + b * 2, true));
            }
        }
        let small = JumpTrace::new(8).evaluate(&trace);
        let big = JumpTrace::new(16).evaluate(&trace);
        assert_eq!((small.correct, small.total), (0, 240));
        assert_eq!((big.correct, big.total), (228, 240));
    }

    #[test]
    fn not_taken_evicts() {
        let trace = vec![
            ev(0x10, true),
            ev(0x10, false),
            ev(0x10, true),
            ev(0x10, true),
        ];
        let acc = JumpTrace::new(8).evaluate(&trace);
        // taken(miss, wrong) / not-taken(hit, wrong) / taken(miss after
        // eviction, wrong) / taken(hit, right)
        assert_eq!(acc.correct, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        JumpTrace::new(0);
    }
}
