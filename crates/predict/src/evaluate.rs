use std::collections::HashMap;

use crisp_sim::{BranchKind, Trace};

use crate::Predictor;

/// A prediction-accuracy result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accuracy {
    /// Correct predictions.
    pub correct: u64,
    /// Total predictions made.
    pub total: u64,
}

impl Accuracy {
    /// The correct fraction (0 when nothing was predicted).
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    pub(crate) fn record(&mut self, correct: bool) {
        self.total += 1;
        self.correct += u64::from(correct);
    }
}

/// The optimal static assignment for a trace: each branch's majority
/// direction, plus the resulting accuracy.
#[derive(Debug, Clone, Default)]
pub struct StaticOptimal {
    /// Per-branch majority direction (`pc → taken`), suitable for
    /// feeding back into `crisp_cc::apply_profile`.
    pub majority: HashMap<u32, bool>,
    /// Accuracy achieved by that assignment.
    pub accuracy: Accuracy,
}

/// Evaluate the *optimal static* prediction bit over a trace: for every
/// conditional branch choose the majority direction, then count matches.
/// This is the paper's "accuracy for optimal setting of a branch
/// prediction bit in the branch instruction".
pub fn evaluate_static_optimal(trace: &Trace) -> StaticOptimal {
    let mut taken_counts: HashMap<u32, (u64, u64)> = HashMap::new();
    for e in trace.iter().filter(|e| e.kind == BranchKind::Cond) {
        let c = taken_counts.entry(e.pc).or_insert((0, 0));
        c.0 += u64::from(e.taken);
        c.1 += 1;
    }
    let mut out = StaticOptimal::default();
    for (&pc, &(taken, total)) in &taken_counts {
        let majority = taken * 2 >= total; // ties predict taken
        out.majority.insert(pc, majority);
        let correct = if majority { taken } else { total - taken };
        out.accuracy.correct += correct;
        out.accuracy.total += total;
    }
    out
}

/// Run any [`Predictor`] over the conditional branches of a trace.
pub fn evaluate_predictor<P: Predictor>(trace: &Trace, predictor: &mut P) -> Accuracy {
    let mut acc = Accuracy::default();
    for e in trace.iter().filter(|e| e.kind == BranchKind::Cond) {
        let predicted = predictor.predict(e.pc);
        acc.record(predicted == e.taken);
        predictor.update(e.pc, e.taken);
    }
    acc
}

/// Convenience: evaluate an n-bit infinite-table dynamic predictor.
pub fn evaluate_dynamic(trace: &Trace, bits: u8) -> Accuracy {
    evaluate_predictor(trace, &mut crate::CounterPredictor::new(bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_sim::{BranchEvent, CounterTable};

    fn cond(pc: u32, taken: bool) -> BranchEvent {
        BranchEvent {
            pc,
            target: 0x100,
            taken,
            kind: BranchKind::Cond,
        }
    }

    #[test]
    fn static_optimal_majority() {
        // Branch A: taken 8/10; branch B: taken 3/10.
        let mut t = Vec::new();
        for i in 0..10 {
            t.push(cond(0xA, i < 8));
            t.push(cond(0xB, i < 3));
        }
        let s = evaluate_static_optimal(&t);
        assert!(s.majority[&0xA]);
        assert!(!s.majority[&0xB]);
        assert_eq!(s.accuracy.correct, 8 + 7);
        assert_eq!(s.accuracy.total, 20);
    }

    #[test]
    fn always_taken_branch_is_perfect_everywhere() {
        let t: Vec<_> = (0..50).map(|_| cond(0x10, true)).collect();
        assert_eq!(evaluate_static_optimal(&t).accuracy.ratio(), 1.0);
        // Dynamic warms up within a couple of predictions.
        assert!(evaluate_dynamic(&t, 2).correct >= 48);
    }

    #[test]
    fn alternating_branch_favours_static() {
        // The paper's explanation for static beating dynamic on the
        // common benchmarks: "For the case where branches alternate
        // direction, static prediction gets 50% correct, while all the
        // dynamic schemes get 0% correct."
        let t: Vec<_> = (0..100).map(|i| cond(0x10, i % 2 == 0)).collect();
        let st = evaluate_static_optimal(&t);
        assert_eq!(st.accuracy.correct, 50);
        let d1 = evaluate_dynamic(&t, 1);
        assert!(
            d1.correct <= 1,
            "1-bit should mispredict almost always: {d1:?}"
        );
        let d2 = evaluate_dynamic(&t, 2);
        assert!(d2.ratio() <= 0.51, "{d2:?}");
    }

    #[test]
    fn non_conditional_events_ignored() {
        let t = vec![
            BranchEvent {
                pc: 0,
                target: 4,
                taken: true,
                kind: BranchKind::Uncond,
            },
            BranchEvent {
                pc: 8,
                target: 40,
                taken: true,
                kind: BranchKind::Call,
            },
            cond(0x10, true),
        ];
        assert_eq!(evaluate_static_optimal(&t).accuracy.total, 1);
        assert_eq!(evaluate_dynamic(&t, 2).total, 1);
    }

    #[test]
    fn empty_trace() {
        let t = Vec::new();
        assert_eq!(evaluate_static_optimal(&t).accuracy.total, 0);
        assert_eq!(evaluate_dynamic(&t, 3).ratio(), 0.0);
    }

    #[test]
    fn finite_table_aliasing_degrades_accuracy() {
        // Two opposite-biased branches mapping to the SAME slot of a
        // 1-entry table destroy each other; a large table keeps them
        // apart and matches the infinite table.
        let mut t = Vec::new();
        for _ in 0..200 {
            t.push(cond(0x10, true));
            t.push(cond(0x30, false));
        }
        let small = evaluate_predictor(&t, &mut CounterTable::new(2, 1));
        let mut big_table = CounterTable::new(2, 256);
        assert_eq!(big_table.name(), "2-bit dynamic, 256 entries");
        let big = evaluate_predictor(&t, &mut big_table);
        assert_eq!(big, evaluate_dynamic(&t, 2));
        assert!(big.ratio() > 0.95, "{big:?}");
        assert!(small.ratio() < 0.6, "{small:?}");
    }

    #[test]
    fn tie_predicts_taken() {
        let t = vec![cond(0x10, true), cond(0x10, false)];
        let s = evaluate_static_optimal(&t);
        assert!(s.majority[&0x10]);
        assert_eq!(s.accuracy.correct, 1);
    }
}
