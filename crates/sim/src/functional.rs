use std::collections::HashMap;
use std::sync::Arc;

use crisp_isa::{decode_and_fold, Decoded, ExecOp, FoldClass, FoldPolicy};

use crate::observe::{NullObserver, PipeObserver};
use crate::predecode::{PredecodedImage, DECODE_WINDOW};
use crate::{BranchEvent, BranchKind, HaltReason, Machine, RunStats, SimError, Step, Trace};

/// Append the branch-trace event for one executed entry, if it carries
/// a branch.
fn push_branch_event(trace: &mut Trace, d: &Decoded, step: &Step) {
    let Some(branch_pc) = d.branch_pc else {
        return;
    };
    let kind = match (d.fold, d.exec) {
        (FoldClass::Cond { .. }, _) => BranchKind::Cond,
        (_, ExecOp::CallPush { .. }) => BranchKind::Call,
        (_, ExecOp::RetPop) => BranchKind::Ret,
        _ => BranchKind::Uncond,
    };
    let taken = step.taken.unwrap_or(true);
    // For conditional branches record the taken-path target even when
    // not taken (a BTB stores it).
    let target = match d.cond_paths() {
        Some((taken_path, _seq)) => taken_path,
        None => step.next_pc,
    };
    trace.push(BranchEvent {
        pc: branch_pc,
        target,
        taken,
        kind,
    });
}

/// The functional (untimed) engine.
///
/// Executes decoded entries back to back: no pipeline, no cache
/// geometry, no penalties. It is the reference for architectural
/// results, the dynamic-instruction counter behind the paper's Table 2,
/// and the branch-trace recorder behind Table 1. Its results must match
/// the cycle engine's exactly — an invariant the integration tests
/// check on every workload.
///
/// Decode is served from a shared [`PredecodedImage`]: the text segment
/// is decoded once at construction (or a table is shared in via
/// [`FunctionalSim::with_predecoded`]) and the steady-state lookup is a
/// direct index. PCs outside the table — wild control flow into data or
/// odd addresses — fall back to on-demand decode memoized in a small
/// overflow map, preserving exact legacy behaviour.
#[derive(Debug)]
pub struct FunctionalSim {
    machine: Machine,
    policy: FoldPolicy,
    predecoded: Arc<PredecodedImage>,
    overflow: HashMap<u32, Decoded>,
    max_steps: u64,
    record_trace: bool,
}

/// The result of a completed functional run.
#[derive(Debug)]
pub struct FunctionalRun {
    /// Final architectural state.
    pub machine: Machine,
    /// Dynamic counts.
    pub stats: RunStats,
    /// Branch trace (empty unless [`FunctionalSim::record_trace`] was
    /// enabled).
    pub trace: Trace,
    /// Whether the program reached `halt` (as opposed to the step
    /// limit; running off the end raises an error instead).
    pub halted: bool,
    /// Why the run ended: [`HaltReason::Halted`] normally,
    /// [`HaltReason::Watchdog`] when `max_steps` elapsed first.
    pub halt_reason: HaltReason,
}

impl FunctionalSim {
    /// Wrap a loaded machine with the default (CRISP) fold policy.
    pub fn new(machine: Machine) -> FunctionalSim {
        FunctionalSim::with_policy(machine, FoldPolicy::Host13)
    }

    /// Wrap a loaded machine with an explicit fold policy.
    ///
    /// Folding never changes architectural results — executing
    /// host-then-branch is exactly sequential semantics — but it does
    /// change the entry/instruction bookkeeping, which some experiments
    /// read.
    pub fn with_policy(machine: Machine, policy: FoldPolicy) -> FunctionalSim {
        let predecoded = Arc::new(PredecodedImage::from_machine(&machine, policy));
        FunctionalSim::with_predecoded(machine, predecoded)
    }

    /// Wrap a loaded machine around an already-built predecode table
    /// (the fold policy comes from the table). Campaign workers build
    /// the table once per image × policy and share it across every
    /// case, so repeated runs skip the per-instance decode pass
    /// entirely.
    pub fn with_predecoded(machine: Machine, predecoded: Arc<PredecodedImage>) -> FunctionalSim {
        FunctionalSim {
            machine,
            policy: predecoded.policy(),
            predecoded,
            overflow: HashMap::new(),
            max_steps: 2_000_000_000,
            record_trace: false,
        }
    }

    /// Recover the machine for buffer reuse (see
    /// [`Machine::reset_from`]), dropping the engine state.
    pub fn into_machine(self) -> Machine {
        self.machine
    }

    /// Enable branch-trace recording (builder style).
    pub fn record_trace(mut self, on: bool) -> FunctionalSim {
        self.record_trace = on;
        self
    }

    /// Set the runaway-program step limit (builder style).
    pub fn max_steps(mut self, limit: u64) -> FunctionalSim {
        self.max_steps = limit;
        self
    }

    fn decoded_at(&mut self, pc: u32) -> Result<Decoded, SimError> {
        // Fast path: direct index into the shared predecode table.
        // `Decoded` is `Copy`; copying the entry out keeps the machine
        // free for the mutable borrow `execute` needs.
        match self.predecoded.get(pc) {
            Some(Ok(d)) => return Ok(*d),
            Some(Err(e)) => {
                return Err(SimError::Decode {
                    pc,
                    source: e.clone(),
                })
            }
            None => {}
        }
        // Out-of-text or odd PC: decode on demand through a
        // stack-allocated window (no per-miss heap traffic), memoized
        // in the overflow map.
        if let Some(d) = self.overflow.get(&pc) {
            return Ok(*d);
        }
        let mut window = [0u16; DECODE_WINDOW];
        let n = self.machine.mem.parcel_window_into(pc, &mut window);
        let d = decode_and_fold(&window[..n], 0, pc, self.policy)
            .map_err(|source| SimError::Decode { pc, source })?;
        self.overflow.insert(pc, d);
        Ok(d)
    }

    /// The architectural state (read-only view); the threaded tier
    /// reads the PC through it between blocks.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access for the threaded tier, which executes
    /// translated blocks directly against the same architectural state
    /// and falls back to [`FunctionalSim::interp_step`] at deopt
    /// boundaries.
    pub(crate) fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// One full interpreter step — decode, execute (reporting to
    /// `obs`), per-entry statistics and optional trace recording —
    /// shared verbatim between [`FunctionalSim::run_observed`] and the
    /// threaded tier's deopt path, so the two engines cannot drift in
    /// their bookkeeping.
    pub(crate) fn interp_step<O: PipeObserver>(
        &mut self,
        step_no: u64,
        stats: &mut RunStats,
        trace: &mut Trace,
        record_trace: bool,
        obs: &mut O,
    ) -> Result<Step, SimError> {
        let pc = self.machine.pc;
        let d = self.decoded_at(pc)?;
        let step = self.machine.execute_observed(&d, step_no, obs)?;

        stats.entries += 1;
        stats.program_instrs += 1 + u64::from(d.folded);
        stats.folded += u64::from(d.folded);
        stats.opcodes.record(&d);

        if d.fold.is_transfer() {
            stats.transfers += 1;
        }
        if let FoldClass::Cond { predict_taken, .. } = d.fold {
            stats.cond_branches += 1;
            let taken = step.taken.expect("conditional step reports direction");
            if taken != predict_taken {
                stats.static_mispredicts += 1;
            }
        }

        if record_trace {
            push_branch_event(trace, &d, &step);
        }
        Ok(step)
    }

    /// Run to `halt`, or until `max_steps` expires (a graceful
    /// [`HaltReason::Watchdog`] end, not an error).
    ///
    /// # Errors
    ///
    /// * [`SimError::Decode`] if execution reaches bytes that are not
    ///   instructions;
    /// * [`SimError::MemOutOfBounds`] on wild data accesses.
    pub fn run(self) -> Result<FunctionalRun, SimError> {
        self.run_observed(&mut NullObserver)
    }

    /// Run to `halt`, reporting each retirement to `obs` (the step
    /// index plays the role of the cycle — the functional engine has
    /// no clock). Useful for comparing commit streams across engines.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FunctionalSim::run`].
    pub fn run_observed<O: PipeObserver>(mut self, obs: &mut O) -> Result<FunctionalRun, SimError> {
        let mut stats = RunStats::default();
        let mut trace = Trace::new();
        let record_trace = self.record_trace;

        for step_no in 0..self.max_steps {
            let step = self.interp_step(step_no, &mut stats, &mut trace, record_trace, obs)?;

            if step.halted {
                return Ok(FunctionalRun {
                    machine: self.machine,
                    stats,
                    trace,
                    halted: true,
                    halt_reason: HaltReason::Halted,
                });
            }
        }
        stats.watchdog = true;
        Ok(FunctionalRun {
            machine: self.machine,
            stats,
            trace,
            halted: false,
            halt_reason: HaltReason::Watchdog,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_asm::assemble_text;

    fn run(src: &str) -> FunctionalRun {
        let img = assemble_text(src).unwrap();
        FunctionalSim::new(Machine::load(&img).unwrap())
            .record_trace(true)
            .run()
            .unwrap()
    }

    #[test]
    fn counted_loop_executes_correctly() {
        let r = run("
            mov 0(sp),$0
            mov 4(sp),$0
        top:
            add 4(sp),$2
            add 0(sp),$1
            cmp.s< 0(sp),$10
            ifjmpy.t top
            halt
        ");
        assert!(r.halted);
        assert_eq!(r.machine.mem.read_word(r.machine.sp + 4).unwrap(), 20);
        assert_eq!(r.machine.mem.read_word(r.machine.sp).unwrap(), 10);
        // 10 iterations of the conditional branch.
        assert_eq!(r.stats.cond_branches, 10);
        // Predicted taken, wrong exactly once (the exit).
        assert_eq!(r.stats.static_mispredicts, 1);
    }

    #[test]
    fn folding_reduces_entries_not_instructions() {
        let src = "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$5
            ifjmpy.t top
            halt
        ";
        let img = assemble_text(src).unwrap();
        let folded = FunctionalSim::with_policy(Machine::load(&img).unwrap(), FoldPolicy::Host13)
            .run()
            .unwrap();
        let unfolded = FunctionalSim::with_policy(Machine::load(&img).unwrap(), FoldPolicy::None)
            .run()
            .unwrap();
        // Same program instructions either way...
        assert_eq!(folded.stats.program_instrs, unfolded.stats.program_instrs);
        // ... but fewer pipeline entries with folding: one per iteration
        // (cmp+ifjmpy fold; 5 iterations).
        assert_eq!(unfolded.stats.entries - folded.stats.entries, 5);
        assert_eq!(folded.stats.folded, 5);
        assert_eq!(unfolded.stats.folded, 0);
        // Architectural state identical.
        assert_eq!(folded.machine.accum, unfolded.machine.accum);
        assert_eq!(
            folded.machine.mem.read_word(folded.machine.sp).unwrap(),
            unfolded.machine.mem.read_word(unfolded.machine.sp).unwrap()
        );
    }

    #[test]
    fn trace_records_branch_identity_and_direction() {
        let r = run("
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$3
            ifjmpy.t top
            halt
        ");
        let conds: Vec<_> = r
            .trace
            .iter()
            .filter(|e| e.kind == BranchKind::Cond)
            .collect();
        assert_eq!(conds.len(), 3);
        // All occurrences share the branch PC and the taken-target.
        assert!(conds.windows(2).all(|w| w[0].pc == w[1].pc));
        assert!(conds.windows(2).all(|w| w[0].target == w[1].target));
        assert!(conds[0].taken);
        assert!(!conds[2].taken);
        // Target is the loop top (address 2).
        assert_eq!(conds[0].target, 2);
    }

    #[test]
    fn call_and_ret_traced() {
        let r = run("
            call f
            halt
            f: add 0(sp),$1
            ret
        ");
        let kinds: Vec<_> = r.trace.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![BranchKind::Call, BranchKind::Ret]);
        assert!(r.trace.iter().all(|e| e.taken));
    }

    #[test]
    fn opcode_histogram_matches_execution() {
        let r = run("
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$4
            ifjmpy.t top
            halt
        ");
        assert_eq!(r.stats.opcodes.get("move"), 1);
        assert_eq!(r.stats.opcodes.get("add"), 4);
        assert_eq!(r.stats.opcodes.get("cmp"), 4);
        assert_eq!(r.stats.opcodes.get("if-jump"), 4);
        assert_eq!(r.stats.opcodes.get("halt"), 1);
        assert_eq!(r.stats.opcodes.total(), r.stats.program_instrs);
    }

    #[test]
    fn step_limit_guards_infinite_loops() {
        let img = assemble_text("top: jmp top").unwrap();
        let r = FunctionalSim::new(Machine::load(&img).unwrap())
            .max_steps(1000)
            .run()
            .unwrap();
        assert!(!r.halted);
        assert_eq!(r.halt_reason, HaltReason::Watchdog);
        assert!(r.stats.watchdog);
        // Work up to the limit is still counted.
        assert_eq!(r.stats.entries, 1000);
    }

    #[test]
    fn decode_error_reports_pc() {
        // Jump into a data word that is not a valid instruction.
        let img = assemble_text("jmp d\nd: .word 0x0000B800").unwrap();
        // 0xB800 >> 10 = 46 — unassigned opcode. The low parcel (0xB800)
        // is at the jump target... low parcel first: parcels[1]=0xB800.
        let err = FunctionalSim::new(Machine::load(&img).unwrap())
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Decode { .. }), "{err:?}");
    }
}
