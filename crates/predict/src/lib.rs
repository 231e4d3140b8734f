//! Trace-driven branch-prediction models for the paper's Table 1 study
//! and its "Comparison to Other Schemes" section.
//!
//! The paper measured, over six programs: *optimal static* prediction
//! (the best possible setting of the per-branch prediction bit) against
//! one, two and three bits of *dynamic history* with an infinite table
//! (per J. Smith's weighted counters), and separately discusses the
//! Lee-Smith branch target buffer and the MU5 8-entry jump trace.
//! This crate scores all of them over [`crisp_sim::Trace`]s recorded
//! by the functional simulator.
//!
//! Each hardware structure has one implementation: the table in
//! [`crisp_sim::predictor`] that the cycle engine runs live. [`Btb`]
//! and [`JumpTrace`] are [`Targeted`] tables: target bookkeeping over
//! [`crisp_sim::BtbTable`] and [`crisp_sim::JumpTraceTable`], since a
//! trace-driven score counts a taken branch correct only when the
//! stored target matches too. The finite-table ablation runs
//! [`crisp_sim::CounterTable`] through [`evaluate_predictor`] as is.
//! Only [`CounterPredictor`]'s infinite table, Table 1's idealisation,
//! has no hardware twin.
//!
//! # Example
//!
//! ```
//! use crisp_predict::{evaluate_dynamic, evaluate_static_optimal};
//! use crisp_sim::{BranchEvent, BranchKind};
//!
//! // A branch that alternates: static gets 50%, dynamic gets ~0%.
//! let trace: Vec<BranchEvent> = (0..100)
//!     .map(|i| BranchEvent { pc: 0x10, target: 0x40, taken: i % 2 == 0, kind: BranchKind::Cond })
//!     .collect();
//! let st = evaluate_static_optimal(&trace);
//! let dy = evaluate_dynamic(&trace, 1);
//! assert_eq!(st.accuracy.correct, 50);
//! assert!(dy.correct <= 1);
//! ```

#![warn(missing_docs)]

mod btb;
mod counter;
mod evaluate;
mod jump_trace;
mod targeted;

pub use btb::Btb;
pub use counter::CounterPredictor;
// The shared predictor trait lives in `crisp_sim` (the cycle engine
// consumes it too); re-exported here so trace-driven code keeps its
// historical import path.
pub use crisp_sim::Predictor;
pub use evaluate::{
    evaluate_dynamic, evaluate_predictor, evaluate_static_optimal, Accuracy, StaticOptimal,
};
pub use jump_trace::JumpTrace;
pub use targeted::Targeted;
