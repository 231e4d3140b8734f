//! Simulators for the CRISP microprocessor reproduction.
//!
//! Two engines share one architectural core ([`Machine`]):
//!
//! * [`FunctionalSim`] executes decoded entries one at a time with no
//!   timing — it provides reference results, dynamic instruction counts
//!   (the paper's Table 2) and branch traces for the prediction study
//!   (Table 1).
//! * [`CycleSim`] is the structural cycle-level model of the paper's
//!   Figure 1/2 machine: a three-stage Prefetch and Decode Unit
//!   ([`Pdu`]) filling a Decoded Instruction Cache ([`DecodedCache`])
//!   whose entries carry Next-PC and Alternate Next-PC fields, and a
//!   three-stage Execution Unit (IR → OR → RR) with valid-bit
//!   cancellation. It reproduces the paper's mispredict penalties —
//!   3 cycles when the compare is folded with the branch, 2/1 when the
//!   compare runs one/two stages ahead, and 0 when the compare has left
//!   the pipeline (the payoff of Branch Spreading) — and the Table 4
//!   experiment matrix via [`SimConfig`].
//!
//! # Example
//!
//! ```
//! use crisp_asm::assemble_text;
//! use crisp_sim::{CycleSim, FunctionalSim, Machine, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = assemble_text(
//!     "
//!         mov 0(sp),$0
//!     top:
//!         add 0(sp),$1
//!         cmp.s< 0(sp),$100
//!         ifjmpy.t top
//!         halt
//!     ",
//! )?;
//! let func = FunctionalSim::new(Machine::load(&image)?).run()?;
//! let cyc = CycleSim::new(Machine::load(&image)?, SimConfig::default()).run()?;
//! // Same architectural result, and the cycle model reports timing.
//! assert_eq!(func.machine.accum, cyc.machine.accum);
//! assert!(cyc.stats.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod accounting;
mod config;
pub mod diff;
mod error;
mod functional;
pub mod geometry;
mod icache;
mod machine;
mod mem;
pub mod observe;
mod pdu;
mod pipeline;
mod predecode;
pub mod predictor;
pub mod profile;
pub mod soft_error;
mod stats;
pub mod threaded;
mod trace;

pub use accounting::{BubbleCause, CycleAccounts};
pub use config::{FaultInjection, HwPredictor, SimConfig};
pub use diff::{
    diff_reference, run_lockstep, run_lockstep_batched, sweep_configs, CommitLog, CommitRecord,
    DiffReference, Divergence, DivergenceKind, LockstepBuffers, LockstepOutcome, PrefixCheck,
};
pub use error::{HaltReason, SimError};
pub use functional::{FunctionalRun, FunctionalSim};
pub use geometry::{PipelineGeometry, StageHistogram, MAX_DEPTH, MIN_DEPTH};
pub use icache::{CacheLookup, DecodedCache};
pub use machine::{Machine, MachinePool, Step};
pub use mem::Memory;
pub use observe::{
    mispredict_cycles, render_timeline, write_chrome_trace, write_jsonl, write_trace_footer,
    EventRing, NullObserver, PipeEvent, PipeObserver, StallKind, TraceFooter,
};
pub use pdu::Pdu;
pub use pipeline::{CycleRun, CycleSim, RunEnd};
pub use predecode::{PredecodedImage, DECODE_WINDOW};
pub use predictor::{BtbTable, CounterTable, HwPredictorState, JumpTraceTable, Predictor};
pub use profile::{BranchProfiler, SiteStats};
pub use soft_error::{
    classify_batch, classify_fault, decode_entry, entry_bits, fault_reference, nth_field,
    nth_pdu_field, nth_predictor_field, parity32, predictor_fault_space, report_rows, FaultField,
    FaultOutcome, FaultPlan, FaultReference, FaultSpace, FaultTarget, ParityMode, FAULT_SPACE,
    PDU_FAULT_SPACE,
};
pub use stats::{resolve_stage, CycleStats, OpcodeCounts, RunStats, STATS_SCHEMA_VERSION};
pub use threaded::{verify_threaded_pooled, Engine, ThreadedSim, TranslatedImage};
pub use trace::{BranchEvent, BranchKind, Trace};
