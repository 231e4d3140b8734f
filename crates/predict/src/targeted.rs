use std::collections::HashMap;

use crisp_sim::{BranchEvent, Trace};

use crate::{Accuracy, Predictor};

/// A hardware direction table from `crisp-sim` scored on targets as
/// well as directions: the table plus the last target seen per branch.
/// Built as a [`crate::Btb`] or a [`crate::JumpTrace`].
#[derive(Debug, Clone)]
pub struct Targeted<T> {
    table: T,
    targets: HashMap<u32, u32>,
}

impl<T: Predictor> Targeted<T> {
    pub(crate) fn over(table: T) -> Targeted<T> {
        Targeted {
            table,
            targets: HashMap::new(),
        }
    }

    /// Process one dynamic branch: predict, score, train. Returns
    /// whether the prediction was correct: a taken branch predicted
    /// taken to the right target, or a not-taken branch predicted
    /// not taken (a table miss predicts not taken).
    pub fn access(&mut self, e: &BranchEvent) -> bool {
        let taken = self.table.predict(e.pc);
        let correct = if e.taken {
            taken && self.targets.get(&e.pc) == Some(&e.target)
        } else {
            !taken
        };
        self.table.update(e.pc, e.taken);
        // A stored target is read only while its entry is resident, and
        // an entry becomes resident only through a taken allocation,
        // which this insert overwrites: recording every target is exact.
        self.targets.insert(e.pc, e.target);
        correct
    }

    /// Evaluate a whole trace (all transfer kinds — a BTB or jump trace
    /// serves unconditional branches, calls and returns too).
    pub fn evaluate(mut self, trace: &Trace) -> Accuracy {
        let mut acc = Accuracy::default();
        for e in trace {
            acc.record(self.access(e));
        }
        acc
    }
}
