//! Top-down cycle accounting: attribute every cycle to exactly one
//! cause.
//!
//! The paper's headline claim — branch folding reduces branch delay to
//! zero — is a statement about *where cycles go*, so the cycle engine
//! classifies each cycle by what its retire slot was doing: a valid
//! entry retiring is a **useful** cycle, and anything else is a bubble
//! carrying the cause that created it. The causes form a closed set
//! ([`BubbleCause`]) and the tally ([`CycleAccounts`]) obeys a
//! conservation invariant — the buckets sum to the total cycle count —
//! checked by a `debug_assert!` on every cycle and by the
//! `prop_accounting` property suite.
//!
//! # Bucket taxonomy
//!
//! * **useful** — a valid entry retired this cycle (equals
//!   [`crate::CycleStats::issued`] exactly).
//! * **branch penalty, by resolve stage** — the bubble was created when
//!   a mispredicted branch killed the wrong path; the bucket index is
//!   the stage at which that branch resolved (the paper's penalty
//!   schedule: index = cycles lost), covering both squashed in-flight
//!   slots draining to retire and the fetch slots the redirect
//!   suppressed. Fold-squash penalties (folded compare, resolved at
//!   retire) land in the retire-stage bucket; spread compares land in
//!   earlier, cheaper buckets.
//! * **miss refill** — fetch stalled on a decoded-cache miss while the
//!   PDU decoded the line.
//! * **parity recovery** — same stall, but the missing entry was
//!   invalidated by a parity check at read time (soft-error recovery
//!   rather than an ordinary cold/capacity miss).
//! * **indirect stall** — fetch waited for an indirect branch target
//!   (the structural stall: the next PC is not architected until the
//!   producing entry retires).
//! * **btb miss** — mispredict recovery, but the wrong guess came from
//!   a predictor-table *miss default* (a BTB or jump-trace lookup that
//!   found no resident entry and predicted fall-through) rather than
//!   from a trained entry's direction. Splitting these out separates a
//!   scheme's cold/capacity behaviour from its steady-state accuracy —
//!   the distinction behind the paper's "nearly as large as our entire
//!   microprocessor chip" sizing argument. Counter tables and the
//!   static bit always "hit", so this bucket is zero for them.
//! * **startup** — pipeline fill: no entry had reached retire yet.
//!
//! A bubble whose stall outlives the episode that caused it keeps its
//! *original* cause — e.g. a post-mispredict fetch that then misses is
//! charged to the miss, not the branch. Hence the reconciliation
//! invariant is one-sided: `branch_penalty.total() + btb_miss <=
//! mispredicts_by_stage.penalty_cycles()` (a mispredict's scheduled
//! penalty can overlap a stall already in progress, or still be
//! draining when the run ends; BTB-miss bubbles are mispredict
//! recovery too, just attributed to the miss default).
//!
//! Watchdog expiry consumes no cycles — the limit is checked between
//! cycles — so there is no watchdog bucket; a truncated run simply
//! stops accumulating, and [`CycleStats::cpi_breakdown`] notes the
//! truncation.
//!
//! [`CycleStats::cpi_breakdown`]: crate::CycleStats::cpi_breakdown

use crate::geometry::{PipelineGeometry, StageHistogram, MAX_DEPTH, MIN_DEPTH};

/// Why a pipeline retire slot carried no useful work on some cycle.
///
/// The cycle engine tags every non-useful retire-slot state with the
/// cause that created it; [`CycleAccounts::bubble`] turns the tag into
/// a bucket increment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BubbleCause {
    /// Pipeline fill: no entry has reached retire yet.
    Startup,
    /// Fetch stalled on a decoded-cache miss refill.
    MissRefill,
    /// Fetch stalled refilling an entry lost to a parity invalidate.
    ParityRecovery,
    /// Fetch waited for an indirect branch target to be architected.
    Indirect,
    /// Mispredict recovery where the wrong guess was a predictor-table
    /// miss default (no resident BTB/jump-trace entry), not a trained
    /// direction.
    BtbMiss,
    /// Mispredict recovery: the wrong path was killed by a branch that
    /// resolved at this stage index (the paper's penalty schedule —
    /// the index is the cost).
    Branch(u8),
}

/// Per-cause cycle tally with a conservation invariant: every simulated
/// cycle lands in exactly one bucket, so the buckets sum to
/// [`crate::CycleStats::cycles`] (checked in debug builds on every
/// cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleAccounts {
    /// Cycles in which a valid entry retired (equals `issued`).
    pub useful: u64,
    /// Mispredict-recovery bubbles, bucketed by the resolve stage of
    /// the branch that caused them (index = scheduled penalty).
    pub branch_penalty: StageHistogram,
    /// Cycles stalled on decoded-cache miss refills.
    pub miss_refill: u64,
    /// Cycles stalled refilling parity-invalidated entries.
    pub parity_recovery: u64,
    /// Cycles stalled waiting for an indirect branch target.
    pub indirect_stall: u64,
    /// Mispredict-recovery bubbles whose wrong guess was a
    /// predictor-table miss default (zero under the static bit and
    /// counter tables, which always "hit").
    pub btb_miss: u64,
    /// Pipeline-fill cycles before the first entry reached retire.
    pub startup: u64,
}

/// Defaults to the paper geometry's four branch-penalty buckets, so
/// `CycleStats::default()` keeps its historical shape.
impl Default for CycleAccounts {
    fn default() -> CycleAccounts {
        CycleAccounts::for_geometry(PipelineGeometry::crisp())
    }
}

impl CycleAccounts {
    /// An empty tally whose branch-penalty histogram has one bucket per
    /// resolve point of `geo`.
    pub fn for_geometry(geo: PipelineGeometry) -> CycleAccounts {
        CycleAccounts {
            useful: 0,
            branch_penalty: StageHistogram::for_geometry(geo),
            miss_refill: 0,
            parity_recovery: 0,
            indirect_stall: 0,
            btb_miss: 0,
            startup: 0,
        }
    }

    /// Record one bubble cycle under its cause.
    #[inline]
    pub fn bubble(&mut self, cause: BubbleCause) {
        match cause {
            BubbleCause::Startup => self.startup += 1,
            BubbleCause::MissRefill => self.miss_refill += 1,
            BubbleCause::ParityRecovery => self.parity_recovery += 1,
            BubbleCause::Indirect => self.indirect_stall += 1,
            BubbleCause::BtbMiss => self.btb_miss += 1,
            BubbleCause::Branch(stage) => self.branch_penalty.bump(stage as usize),
        }
    }

    /// Sum over every bucket — by construction equal to the total cycle
    /// count of the run that produced this tally.
    pub fn total(&self) -> u64 {
        self.useful
            + self.branch_penalty.total()
            + self.miss_refill
            + self.parity_recovery
            + self.indirect_stall
            + self.btb_miss
            + self.startup
    }

    /// The geometry this tally was sized for (recovered from the
    /// branch-penalty histogram's resolve-point count).
    fn geometry(&self) -> PipelineGeometry {
        PipelineGeometry::new((self.branch_penalty.len() - 1).clamp(MIN_DEPTH, MAX_DEPTH))
    }

    /// `(label, cycles)` rows of the breakdown, most fundamental first:
    /// useful issue, the aggregate branch penalty with per-stage
    /// sub-rows (indented, only the stages that occurred), then the
    /// structural buckets. Used by the `Display` impl and
    /// [`crate::CycleStats::cpi_breakdown`].
    pub fn rows(&self) -> Vec<(String, u64)> {
        let geo = self.geometry();
        let mut rows = vec![
            ("useful issue".to_string(), self.useful),
            ("branch penalty".to_string(), self.branch_penalty.total()),
        ];
        for stage in 1..self.branch_penalty.len() {
            let n = self.branch_penalty.get(stage);
            if n > 0 {
                rows.push((format!("  resolved at {}", geo.stage_name(stage)), n));
            }
        }
        rows.push(("cache miss refill".to_string(), self.miss_refill));
        rows.push(("parity recovery".to_string(), self.parity_recovery));
        rows.push(("indirect stall".to_string(), self.indirect_stall));
        rows.push(("btb miss penalty".to_string(), self.btb_miss));
        rows.push(("pipeline startup".to_string(), self.startup));
        rows
    }

    /// Compact JSON object of the buckets:
    /// `{"useful":9,"branch_penalty":[0,0,1,3],"miss_refill":4,...}`.
    pub fn json(&self) -> String {
        format!(
            concat!(
                r#"{{"useful":{},"branch_penalty":{},"miss_refill":{},"#,
                r#""parity_recovery":{},"indirect_stall":{},"btb_miss":{},"startup":{}}}"#
            ),
            self.useful,
            self.branch_penalty.json(),
            self.miss_refill,
            self.parity_recovery,
            self.indirect_stall,
            self.btb_miss,
            self.startup,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CycleAccounts {
        let mut a = CycleAccounts::default();
        for _ in 0..9 {
            a.bubble(BubbleCause::Startup);
        }
        a.useful = 80;
        a.bubble(BubbleCause::Branch(3));
        a.bubble(BubbleCause::Branch(3));
        a.bubble(BubbleCause::Branch(3));
        a.bubble(BubbleCause::Branch(1));
        a.bubble(BubbleCause::MissRefill);
        a.bubble(BubbleCause::MissRefill);
        a.bubble(BubbleCause::ParityRecovery);
        a.bubble(BubbleCause::Indirect);
        a.bubble(BubbleCause::BtbMiss);
        a.bubble(BubbleCause::BtbMiss);
        a
    }

    #[test]
    fn buckets_conserve_and_dispatch() {
        let a = sample();
        assert_eq!(a.useful, 80);
        assert_eq!(a.branch_penalty, [0, 1, 0, 3]);
        assert_eq!(a.miss_refill, 2);
        assert_eq!(a.parity_recovery, 1);
        assert_eq!(a.indirect_stall, 1);
        assert_eq!(a.btb_miss, 2);
        assert_eq!(a.startup, 9);
        assert_eq!(a.total(), 80 + 4 + 2 + 1 + 1 + 2 + 9);
    }

    #[test]
    fn json_shape() {
        let a = sample();
        assert_eq!(
            a.json(),
            r#"{"useful":80,"branch_penalty":[0,1,0,3],"miss_refill":2,"parity_recovery":1,"indirect_stall":1,"btb_miss":2,"startup":9}"#
        );
    }

    #[test]
    fn rows_use_geometry_stage_names() {
        let a = sample();
        let rows = a.rows();
        assert_eq!(rows[0], ("useful issue".to_string(), 80));
        assert_eq!(rows[1], ("branch penalty".to_string(), 4));
        assert!(rows.iter().any(|(l, n)| l == "  resolved at IR" && *n == 1));
        assert!(rows.iter().any(|(l, n)| l == "  resolved at RR" && *n == 3));
        // Zero-count stages are elided from the sub-rows.
        assert!(!rows.iter().any(|(l, _)| l == "  resolved at OR"));

        let mut deep = CycleAccounts::for_geometry(PipelineGeometry::new(5));
        deep.bubble(BubbleCause::Branch(2));
        assert!(deep
            .rows()
            .iter()
            .any(|(l, n)| l == "  resolved at E2" && *n == 1));
    }

    #[test]
    fn sized_to_geometry() {
        let a = CycleAccounts::for_geometry(PipelineGeometry::new(6));
        assert_eq!(a.branch_penalty.len(), 7);
        assert_eq!(a.total(), 0);
    }
}
