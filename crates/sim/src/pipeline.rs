//! The cycle-level Execution Unit pipeline, coupled to the PDU and the
//! Decoded Instruction Cache.
//!
//! Structure per the paper: "Instructions are read from the Decoded
//! Instruction Cache into the Instruction Register (IR) stage, operands
//! are accessed and placed into the Operand Register (OR) stage, then an
//! ALU operation takes place ... in the Result Register (RR) stage, and
//! finally the result write occurs." Sequencing is driven entirely by
//! the IR.Next-PC register, loaded from the cache entry's Next-PC field;
//! the Alternate Next-PC rides along with each conditional entry.
//!
//! Mispredict recovery reproduces the paper's cost model exactly:
//!
//! * compare **folded with** the branch → resolves at RR → 3 cycles lost;
//! * compare **one stage ahead** → resolves from OR.Alternate-PC → 2;
//! * compare **two stages ahead** → resolves from IR.Alternate-PC → 1;
//! * compare **three or more ahead** (left the pipeline) → the flag is
//!   compared against the prediction bit at cache-read time and the
//!   correct path followed → **0** cycles — the case Branch Spreading
//!   engineers for.
//!
//! Architectural state commits atomically at RR retire; wrong-path
//! entries occupy stages until a mispredict cancels them by clearing
//! their valid bit — here, by emptying their latch (legal because the
//! ISA has no side effects before result write).

use crisp_isa::{Decoded, FoldClass, NextPc};

use crate::accounting::{BubbleCause, CycleAccounts};
use crate::config::FaultInjection;
use crate::geometry::{PipelineGeometry, StageHistogram, MAX_DEPTH, MIN_DEPTH};
use crate::observe::{NullObserver, PipeEvent, PipeObserver, StallKind};
use std::sync::Arc;

use crate::predecode::PredecodedImage;
use crate::predictor::HwPredictorState;
use crate::soft_error::{FaultPlan, FaultTarget, ParityMode};
use crate::stats::resolve_stage;
use crate::{CacheLookup, CycleStats, DecodedCache, HaltReason, Machine, Pdu, SimConfig, SimError};

/// One EU pipeline stage latch's contents. A latch holds an
/// `Option<Slot>`, and that `Option` is the hardware's valid bit: a
/// cancelled entry is an empty latch.
#[derive(Debug, Clone, Copy)]
struct Slot {
    d: Decoded,
    /// For conditional entries: direction already determined (either at
    /// cache-read time or by an early compare).
    resolved: bool,
    /// For conditional entries: the direction the fetch unit followed
    /// (the static bit, the dynamic predictor's guess, or — when
    /// resolved at cache-read time — the actual direction).
    followed: bool,
    /// For conditional entries: the path NOT followed, used for
    /// recovery on a mispredict.
    other: NextPc,
    /// For conditional entries guessed by a dynamic predictor: whether
    /// the guess was the table's *miss default* (no resident BTB /
    /// jump-trace entry) rather than a trained direction. Routes a
    /// later mispredict's bubbles to [`BubbleCause::BtbMiss`].
    guess_miss: bool,
    /// Fetch sequence number (slot identity for indirect-target waits).
    seq: u64,
}

/// The result of a completed cycle-level run.
#[derive(Debug)]
pub struct CycleRun {
    /// Final architectural state.
    pub machine: Machine,
    /// Timing counters.
    pub stats: CycleStats,
    /// Whether the program reached `halt`.
    pub halted: bool,
    /// Why the run ended: [`HaltReason::Halted`] normally,
    /// [`HaltReason::Watchdog`] when a watchdog limit expired first.
    pub halt_reason: HaltReason,
}

/// The cycle-level simulator (Figure 1's machine).
///
/// Generic over a [`PipeObserver`] that receives the typed event
/// stream; the default [`NullObserver`] monomorphizes every emission
/// site away, so `CycleSim::new` costs nothing over the
/// uninstrumented model. Const asserts in `diff.rs` pin
/// `NullObserver`'s `ENABLED` and `PIPELINE` to `false`, and
/// `tests/prop_commit_only.rs` holds every emission site behind one of
/// the two.
#[derive(Debug)]
pub struct CycleSim<O: PipeObserver = NullObserver> {
    machine: Machine,
    cfg: SimConfig,
    cache: DecodedCache,
    pdu: Pdu,
    /// The front-end hot state (stage latches, sequencing registers,
    /// bubble provenance) — see [`PipeFront`].
    front: PipeFront,
    /// Live dynamic-prediction hardware, when configured (`None` for
    /// the shipped static-bit design, keeping its hot path untouched).
    predictor: Option<HwPredictorState>,
    /// The event sink.
    obs: O,
    /// Timing counters (public so callers can sample mid-run).
    pub stats: CycleStats,
}

/// The cycle engine's front-end latches: EU stage latches, sequencing
/// registers, and bubble provenance. Plain data that the cycle body in
/// [`CycleSim`] reads and writes in place; [`CycleSim::fork`] clones it
/// and [`CycleSim::same_future`] compares it.
#[derive(Debug, Clone)]
struct PipeFront {
    /// EU stage latches, youngest first: `stages[0]` is the issue
    /// stage (IR), `stages[depth - 1]` is retire (RR). Fixed capacity
    /// keeps the hot loop allocation-free at every geometry; only the
    /// live prefix `..depth` is ever touched.
    stages: [Option<Slot>; MAX_DEPTH],
    /// Live EU depth, cached out of `cfg.geometry`.
    depth: usize,
    /// The IR.Next-PC register; `None` while waiting for an indirect
    /// target to resolve at retire.
    fetch_pc: Option<u32>,
    /// Sequence number of the slot whose retirement will supply
    /// `fetch_pc` (indirect branches, returns).
    waiting_on: Option<u64>,
    next_seq: u64,
    /// The PC whose miss is currently being counted (so a multi-cycle
    /// stall counts as one miss).
    missing_pc: Option<u32>,
    /// The EU stall in progress, for paired stall begin/end events.
    stall: Option<StallKind>,
    /// Whether the configured [`SimConfig::fault_plan`] has fired (each
    /// plan injects exactly one transient fault).
    fault_done: bool,
    /// Bubble provenance, parallel to `stages` and clocked forward with
    /// them: why the latch at each position carries no useful work.
    /// Meaningful only where the stage latch is empty — a full latch's
    /// entry is stale and ignored (and overwritten if the slot is later
    /// squashed).
    causes: [BubbleCause; MAX_DEPTH],
    /// Bubble cause of the mispredict that cancelled this cycle's
    /// fetch; read only while `kill_fetch` is set within a cycle, to
    /// tag the suppressed fetch slot's bubble.
    fetch_kill_cause: BubbleCause,
    /// PC whose decoded-cache entry was invalidated by a read-time
    /// parity check: the refill stall for that PC is accounted as
    /// parity recovery rather than an ordinary miss.
    parity_pc: Option<u32>,
}

/// How a [`CycleSim::run_until`] run ended (an engine error is the
/// `Err` side instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// The program retired `halt`.
    Halted,
    /// A watchdog limit ([`SimConfig::max_cycles`] /
    /// [`SimConfig::max_insns`]) expired first.
    Watchdog,
    /// The caller's stop predicate fired.
    Stopped,
}

impl CycleSim {
    /// Build an uninstrumented simulator over a loaded machine.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`SimConfig::validate`]).
    pub fn new(machine: Machine, cfg: SimConfig) -> CycleSim {
        CycleSim::with_observer(machine, cfg, NullObserver)
    }
}

impl<O: PipeObserver> CycleSim<O> {
    /// Build a simulator whose pipeline activity streams into `obs`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`SimConfig::validate`]).
    pub fn with_observer(machine: Machine, cfg: SimConfig, obs: O) -> CycleSim<O> {
        cfg.validate();
        let entry = machine.pc;
        let mut sim = CycleSim {
            machine,
            cfg,
            cache: DecodedCache::new(cfg.icache_entries),
            pdu: Pdu::new(
                cfg.fold_policy,
                cfg.mem_latency,
                cfg.pdu_pipe_delay,
                cfg.icache_entries as u32,
            ),
            front: PipeFront::new(entry, cfg.geometry),
            predictor: HwPredictorState::from_config(cfg.predictor),
            obs,
            stats: CycleStats {
                mispredicts_by_stage: StageHistogram::for_geometry(cfg.geometry),
                accounts: CycleAccounts::for_geometry(cfg.geometry),
                predicted_by: cfg.predictor.label(),
                ..CycleStats::default()
            },
        };
        sim.pdu.demand(entry);
        sim
    }

    /// Serve PDU refills from a shared predecode table instead of
    /// re-running `decode_and_fold` per miss (see
    /// [`Pdu::set_predecoded`]); timing is unchanged. Campaign drivers
    /// build one table per image × fold policy and share it across
    /// every case and both engines.
    ///
    /// # Panics
    ///
    /// If the table's fold policy differs from this simulator's
    /// configuration.
    pub fn set_predecoded(&mut self, table: Arc<PredecodedImage>) {
        self.pdu.set_predecoded(table);
    }

    /// Recover the machine for buffer reuse (see
    /// [`Machine::reset_from`]), dropping the pipeline state.
    pub fn into_machine(self) -> Machine {
        self.machine
    }

    /// The pipeline geometry this simulation runs at.
    pub fn geometry(&self) -> PipelineGeometry {
        self.cfg.geometry
    }

    /// The observer (read-only view).
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Run until `halt`, returning both the run result and the
    /// observer with everything it collected.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CycleSim::run`].
    pub fn run_observed(mut self) -> Result<(CycleRun, O), SimError> {
        self.run_until(|_| false)?;
        Ok(self.finish())
    }

    /// Run until `halt`, a watchdog limit, or `stop` — whichever comes
    /// first. Each cycle checks the watchdog, advances the machine one
    /// clock, then asks `stop` (which sees the simulator as that cycle
    /// left it). The simulator survives the run, error or not, so the
    /// caller can still read its machine, counters and observer.
    ///
    /// Campaign kernels stop a case as soon as its verdict is fixed —
    /// see [`crate::classify_batch`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`CycleSim::run`].
    pub fn run_until(&mut self, mut stop: impl FnMut(&Self) -> bool) -> Result<RunEnd, SimError> {
        loop {
            if self.watchdog_expired() {
                self.stats.watchdog = true;
                return Ok(RunEnd::Watchdog);
            }
            if self.cycle_once()? {
                return Ok(RunEnd::Halted);
            }
            if stop(self) {
                return Ok(RunEnd::Stopped);
            }
        }
    }

    /// Fork a faulted run off this fault-free one: a simulator in this
    /// one's exact state (machine, decoded cache, PDU, front end,
    /// predictor, counters and observer) whose configuration adds
    /// `plan` and runs under `parity`. The machine is copied into
    /// `buf`, a recycled buffer ([`Machine::copy_from`]).
    ///
    /// Running the fork is exactly running a fresh simulator with
    /// `plan` and `parity` from cycle 0: the engine consults a plan only
    /// from cycle `plan.cycle` on, so before the strike a faulted run is
    /// cycle-for-cycle the fault-free one, and a fault-free run never
    /// fails a parity check, so it is the same run in either parity
    /// mode (`tests/prop_eject.rs`). The mode lives only in the fork's
    /// configuration, which every parity check reads, and the copied
    /// cache lines, PDU latches and BTB entries carry only what faults
    /// flipped — nothing, before the strike. [`crate::classify_batch`]
    /// steps one fault-free run to each case's strike cycle in turn and
    /// simulates only the cycles after it, in both parity phases.
    ///
    /// # Panics
    ///
    /// If this run has a fault plan of its own, has halted, or is past
    /// `plan.cycle`.
    pub fn fork(&self, mut buf: Machine, plan: FaultPlan, parity: ParityMode) -> CycleSim<O>
    where
        O: Clone,
    {
        assert!(self.cfg.fault_plan.is_none(), "fork from a fault-free run");
        assert!(!self.machine.halted, "fork before halt");
        assert!(
            self.stats.cycles <= plan.cycle,
            "fork at cycle {} is past the strike at {}",
            self.stats.cycles,
            plan.cycle
        );
        buf.copy_from(&self.machine);
        CycleSim {
            machine: buf,
            cfg: SimConfig {
                parity,
                fault_plan: Some(plan),
                ..self.cfg
            },
            cache: self.cache.clone(),
            pdu: self.pdu.clone(),
            front: self.front.clone(),
            predictor: self.predictor.clone(),
            obs: self.obs.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Whether this run's fault plan has fired: it struck, or it was
    /// spent on an empty cache slot or a run with no predictor table.
    /// Until then a faulted run is the fault-free one, cycle for cycle.
    pub(crate) fn strike_spent(&self) -> bool {
        self.front.fault_done
    }

    /// Whether a strike on `target` armed now lands at the start of the
    /// next cycle, spending the plan: the cycle's fault-injection step
    /// asks exactly this.
    ///
    /// Cache slots always exist, so a cache strike always lands — on an
    /// empty slot it is a no-op, the particle landing in invalid state.
    /// Predictor tables and PDU fold slots are often empty at any given
    /// instant: such a strike stays armed until the structure first
    /// holds state (a particle that never finds a victim is a trivially
    /// masked run). The static bit has no hardware state at all, so a
    /// run without a predictor table spends a predictor strike at once.
    pub(crate) fn strike_lands(&self, target: FaultTarget) -> bool {
        match target {
            FaultTarget::Cache => true,
            FaultTarget::Predictor => self
                .predictor
                .as_ref()
                .is_none_or(HwPredictorState::has_state),
            FaultTarget::Pdu => self.pdu.inflight_len() > 0,
        }
    }

    /// The decoded cache (read-only view).
    pub(crate) fn cache(&self) -> &DecodedCache {
        &self.cache
    }

    /// Whether this run and `other`, a fault-free run of the same
    /// configuration up to the fault plan and the parity mode, having
    /// retired the same commit records, evolve identically from here
    /// on, `other`'s clock shifted by the difference of their cycle
    /// counts. The state compared is the micro-architectural state that
    /// decides behaviour: the front end's live latches (see
    /// `PipeFront::same_future`), the PDU with its ready cycles relative
    /// to each run's clock, the decoded cache with its parity deltas
    /// when this run checks them, the predictor tables (the BTB's up to
    /// entries no lookup in this machine's memory can find), and the retired
    /// instruction count the `max_insns` watchdog reads. Pure counters
    /// (fill and eviction counts, [`CycleStats`]) are left out.
    ///
    /// The machines are not compared: the caller has checked that both
    /// runs' commit cursors match the same reference prefix, and a
    /// commit record carries every architectural write (accumulator,
    /// stack pointer, flag, next PC, the one memory word), so equal
    /// records from one start state leave equal machines. A spent fault
    /// plan is inert, and a run that has not yet fired its plan is the
    /// fault-free run: comparing it proves nothing, so callers first
    /// check [`CycleSim::strike_spent`].
    pub(crate) fn same_future(&self, other: &Self) -> bool {
        debug_assert_eq!(
            SimConfig {
                fault_plan: None,
                ..self.cfg
            },
            SimConfig {
                fault_plan: None,
                parity: self.cfg.parity,
                ..other.cfg
            }
        );
        self.stats.program_instrs == other.stats.program_instrs
            && self.front.same_future(&other.front)
            && self
                .pdu
                .same_future(self.stats.cycles, &other.pdu, other.stats.cycles)
            && self.cache.same_future(&other.cache, self.cfg.parity)
            && match (&self.predictor, &other.predictor) {
                (Some(p), Some(q)) => p.same_future(q, self.machine.mem.size()),
                (p, q) => p.is_none() && q.is_none(),
            }
    }

    /// Whether a parity-protected run's planned soft-error fault has
    /// both struck and been caught by a parity check (a decoded-cache
    /// invalidate or a predictor scrub). From then on no corrupted entry
    /// can execute, so the rest of the run matches the fault-free
    /// reference (see [`crate::classify_batch`]).
    pub fn parity_settled(&self) -> bool {
        self.cfg.parity == ParityMode::DetectInvalidate
            && self.stats.faults_injected > 0
            && (self.cache.parity_invalidates
                + self
                    .predictor
                    .as_ref()
                    .map_or(0, HwPredictorState::parity_scrubs))
                > 0
    }

    /// Whether a watchdog limit ([`SimConfig::max_cycles`] /
    /// [`SimConfig::max_insns`]) has expired.
    fn watchdog_expired(&self) -> bool {
        self.stats.cycles >= self.cfg.max_cycles
            || self
                .cfg
                .max_insns
                .is_some_and(|limit| self.stats.program_instrs >= limit)
    }

    /// The architectural state (read-only view).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Split the simulator into its run result and its observer.
    fn finish(self) -> (CycleRun, O) {
        let halted = self.machine.halted;
        let run = CycleRun {
            machine: self.machine,
            stats: self.stats,
            halted,
            halt_reason: if halted {
                HaltReason::Halted
            } else {
                HaltReason::Watchdog
            },
        };
        (run, self.obs)
    }

    /// Run until `halt`, or until a watchdog limit expires (a graceful
    /// [`HaltReason::Watchdog`] end, not an error).
    ///
    /// # Errors
    ///
    /// * [`SimError::Decode`] when the architecturally-correct path
    ///   reaches bytes that do not decode;
    /// * [`SimError::MemOutOfBounds`] on wild data accesses.
    pub fn run(self) -> Result<CycleRun, SimError> {
        self.run_observed().map(|(run, _)| run)
    }

    /// Early-resolve the conditional branch at stage `pos` (0 = the
    /// issue stage; at the default geometry `pos` 1 is OR and 0 is IR),
    /// if its direction is now certain. Its resolve-point index — and
    /// mispredict penalty — is `pos + 1`. The caller guarantees no
    /// older pre-retire stage still holds a compare (the incremental
    /// blocker walk in `cycle_once`).
    #[inline]
    fn try_resolve(&mut self, cyc: u64, pos: usize, kill_fetch: &mut bool) {
        // Resolve in place: the slot stays latched in its stage and only
        // its resolution bits change. This runs every cycle for every
        // pre-retire stage, so a take/put-back of the whole slot would
        // be two wasted copies on the (overwhelmingly common)
        // nothing-to-resolve path.
        let Some(slot) = &mut self.front.stages[pos] else {
            return;
        };
        let FoldClass::Cond { on_true, .. } = slot.d.fold else {
            return;
        };
        if slot.resolved || slot.d.modifies_cc {
            return;
        }
        let taken = self.machine.psw.flag == on_true;
        slot.resolved = true;
        let seq = slot.seq;
        let other = slot.other;
        let branch_pc = slot.d.branch_pc.unwrap_or(slot.d.pc);
        let mispredicted = taken != slot.followed;
        let guess_miss = slot.guess_miss;
        if self.resolve(cyc, branch_pc, pos + 1, mispredicted) {
            self.recover(cyc, pos, guess_miss, other, seq, kill_fetch);
        }
    }

    /// Resolve a conditional branch at resolve point `stage` (fetch 0,
    /// then one per EU stage): report it, and count it if the fetch unit
    /// followed the wrong path. Returns `mispredicted`.
    #[inline]
    fn resolve(&mut self, cyc: u64, branch_pc: u32, stage: usize, mispredicted: bool) -> bool {
        if O::PIPELINE {
            self.obs.event(PipeEvent::BranchResolve {
                cycle: cyc,
                branch_pc,
                stage: stage as u8,
                mispredicted,
            });
        }
        if mispredicted {
            self.stats.mispredicts_by_stage.bump(stage);
        }
        mispredicted
    }

    /// Recover from the mispredict of the branch (fetch sequence number
    /// `seq`) at stage `pos`, resolve point `pos + 1`. Everything
    /// younger is wrong-path: the stages behind it, squashed oldest
    /// first, and this cycle's fetch. Their bubbles are charged to the
    /// branch, and fetch is redirected to `to`.
    fn recover(
        &mut self,
        cyc: u64,
        pos: usize,
        guess_miss: bool,
        to: NextPc,
        seq: u64,
        kill_fetch: &mut bool,
    ) {
        // A wrong guess that was only a predictor-table miss default is
        // cold/capacity behaviour, not trained-direction error: its
        // recovery bubbles get their own bucket.
        let cause = if guess_miss {
            BubbleCause::BtbMiss
        } else {
            BubbleCause::Branch((pos + 1) as u8)
        };
        for q in (0..pos).rev() {
            // The planted SkipOrSquash bug skips the stage just behind
            // retire (OR on the paper's machine). An early resolve
            // flushes only stages younger than its own, which sits
            // before retire, so the skip can fire only at retire.
            if q == self.front.depth - 2 && self.cfg.fault == Some(FaultInjection::SkipOrSquash) {
                continue;
            }
            if let Some(s) = self.front.stages[q].take() {
                self.stats.flushed_slots += 1;
                if O::PIPELINE {
                    self.obs.event(PipeEvent::Squash {
                        cycle: cyc,
                        pc: s.d.pc,
                        stage: (q + 1) as u8,
                    });
                }
                self.front.causes[q] = cause;
            }
        }
        *kill_fetch = true;
        self.front.fetch_kill_cause = cause;
        self.front.redirect_to(to, seq);
    }

    /// Advance the machine by one clock cycle. Returns `true` on halt.
    ///
    /// The paper's 3-stage geometry gets a monomorphized copy of the
    /// cycle body whose stage loops unroll at compile time — the
    /// parameterized engine then costs nothing over the original
    /// fixed-latch IR/OR/RR implementation at the default depth (the
    /// `bench_sim --against` A/B with the parent build guards this).
    /// Every other depth shares the one dynamic copy. The per-cycle
    /// dispatch branch is perfectly predicted: `depth` never changes
    /// during a run.
    fn cycle_once(&mut self) -> Result<bool, SimError> {
        if self.front.depth == 3 {
            self.cycle_once_at::<3>()
        } else {
            self.cycle_once_at::<0>()
        }
    }

    /// One clock cycle at EU depth `D`, where `D == 0` means "read the
    /// live depth at run time" (the generic fallback).
    fn cycle_once_at<const D: usize>(&mut self) -> Result<bool, SimError> {
        // Pin the live depth to the latch array's capacity once per
        // cycle: the construction invariant (`PipelineGeometry::new`
        // range-checks) guarantees it holds, and stating it here lets
        // the stage indexing below compile without per-access bounds
        // checks. When `D` is a real depth the pin const-folds away.
        let depth = if D == 0 { self.front.depth } else { D };
        assert!(
            (MIN_DEPTH..=MAX_DEPTH).contains(&depth),
            "geometry invariant"
        );
        let cyc = self.stats.cycles;
        self.stats.cycles += 1;
        let mut kill_fetch = false;

        // ---- Top-down cycle accounting. ---- Attribute this cycle by
        // what the retire latch is about to do: an entry retiring
        // is useful work; anything else is a bubble whose cause rode
        // along in `causes`. Done before anything mutates the latches,
        // so every exit path below (including halt) is covered and the
        // conservation invariant holds cycle-by-cycle.
        match &self.front.stages[depth - 1] {
            Some(_) => self.stats.accounts.useful += 1,
            None => self.stats.accounts.bubble(self.front.causes[depth - 1]),
        }
        debug_assert_eq!(
            self.stats.accounts.total(),
            self.stats.cycles,
            "cycle accounting must conserve cycles"
        );

        // ---- 0. Transient-fault injection (soft-error model). ----
        if let Some(plan) = self.cfg.fault_plan {
            if !self.front.fault_done && cyc >= plan.cycle && self.strike_lands(plan.target) {
                self.front.fault_done = true;
                let struck = match plan.target {
                    FaultTarget::Cache => self.cache.corrupt(plan.slot as usize, plan.field),
                    FaultTarget::Predictor => self
                        .predictor
                        .as_mut()
                        .and_then(|p| p.corrupt(plan.slot, plan.field)),
                    FaultTarget::Pdu => self.pdu.corrupt(plan.slot, plan.field),
                };
                if let Some(pc) = struck {
                    self.stats.faults_injected += 1;
                    if O::PIPELINE {
                        self.obs.event(PipeEvent::FaultInject {
                            cycle: cyc,
                            slot: plan.slot,
                            pc,
                        });
                    }
                }
            }
        }

        // ---- 1. Retire stage (RR): commit and retire. ----
        // The slot is read in place (it is overwritten when the stages
        // clock forward below) rather than moved out: retirement happens
        // every cycle and the slot is the widest structure in the loop.
        // Only the scalars that resolving it needs are copied out.
        if let Some(slot) = &self.front.stages[depth - 1] {
            let step = self.machine.execute_observed(&slot.d, cyc, &mut self.obs)?;
            self.stats.issued += 1;
            self.stats.program_instrs += 1 + u64::from(slot.d.folded);
            let (seq, guess_miss) = (slot.seq, slot.guess_miss);
            // A conditional entry whose step reports no direction halted
            // before resolving: a parity-off opcode strike can turn a
            // folded compare-and-branch into `halt`. It retires as no
            // branch, matching `Machine::execute_observed`, which emits
            // no `BranchRetire` for it.
            if let (Some(taken), FoldClass::Cond { predict_taken, .. }) = (step.taken, slot.d.fold)
            {
                self.stats.cond_branches += 1;
                // Shadow score of the compiler's static bit over the
                // same retired branch stream, independent of which
                // predictor actually drove the fetch — the basis of the
                // per-predictor mispredict split in the stats.
                if taken != predict_taken {
                    self.stats.static_bit_mispredicts += 1;
                }
                let branch_pc = slot.d.branch_pc.unwrap_or(slot.d.pc);
                if let Some(p) = self.predictor.as_mut() {
                    p.train(branch_pc, taken, self.cfg.parity);
                }
                // Resolved only now — the folded-compare case. Every
                // younger stage dies (plus this cycle's fetch): `depth`
                // slots in total.
                if !slot.resolved && self.resolve(cyc, branch_pc, depth, taken != slot.followed) {
                    let to = NextPc::Known(step.next_pc);
                    self.recover(cyc, depth - 1, guess_miss, to, seq, &mut kill_fetch);
                }
            }
            if self.front.waiting_on == Some(seq) {
                // This retirement supplies the pending indirect target.
                self.front.waiting_on = None;
                self.front.fetch_pc = Some(step.next_pc);
            }
            if step.halted {
                if O::PIPELINE {
                    // Close any open stall so begin/end pairs match the
                    // stall-cycle counters exactly.
                    self.front.sync_stall(&mut self.obs, cyc, None);
                }
                return Ok(true);
            }
        }

        // ---- 2. Early resolution: oldest pre-retire stage first (OR
        // then IR on the paper's machine). ---- A stage is blocked while
        // an older pre-retire stage still holds a compare; one
        // oldest-first walk carries that blocker incrementally instead
        // of rescanning the older stages at every position.
        let mut blocked = false;
        for pos in (0..depth - 1).rev() {
            if !blocked {
                self.try_resolve(cyc, pos, &mut kill_fetch);
            }
            if let Some(s) = &self.front.stages[pos] {
                blocked |= s.d.modifies_cc;
            }
        }

        // ---- 3. Clock the stages forward (bubble causes ride along
        // with their latches). ----
        for i in (1..depth).rev() {
            self.front.stages[i] = self.front.stages[i - 1].take();
            self.front.causes[i] = self.front.causes[i - 1];
        }

        // ---- 4. Fetch into the issue stage (IR) from the decoded
        // cache. ----
        self.front.stages[0] = None;
        let mut stalled: Option<StallKind> = None;
        if kill_fetch {
            // The slot being clocked into IR this edge was cancelled:
            // one more bubble charged to the resolving branch.
            self.front.causes[0] = self.front.fetch_kill_cause;
        } else if let Some(pc) = self.front.fetch_pc {
            // The hit entry is latched (copied) into the IR slot here —
            // the one purposeful copy-out of the borrow
            // `lookup_verified` returns, mirroring the hardware latch
            // at the cache read port.
            let looked_up = match self.cache.lookup_verified(pc, self.cfg.parity) {
                CacheLookup::Hit(d) => Some(*d),
                CacheLookup::ParityError => {
                    // A protected entry failed its parity check at read
                    // time: the cache invalidated it, so fetch falls into
                    // the ordinary miss path below and the PDU redecodes
                    // the entry from memory.
                    if O::PIPELINE {
                        self.obs.event(PipeEvent::ParityError {
                            cycle: cyc,
                            pc,
                            slot: self.cache.slot_of(pc) as u32,
                        });
                    }
                    self.front.parity_pc = Some(pc);
                    None
                }
                CacheLookup::Miss => None,
            };
            if let Some(d) = looked_up {
                self.stats.icache_hits += 1;
                if O::PIPELINE {
                    self.obs.event(PipeEvent::FetchHit {
                        cycle: cyc,
                        pc,
                        folded: d.folded,
                    });
                }
                self.front.missing_pc = None;
                self.front.parity_pc = None;
                let seq = self.front.next_seq;
                self.front.next_seq += 1;
                let mut slot = Slot {
                    d,
                    resolved: false,
                    followed: false,
                    other: d.next_pc,
                    guess_miss: false,
                    seq,
                };
                let mut chosen = d.next_pc;
                if let FoldClass::Cond {
                    on_true,
                    predict_taken,
                } = d.fold
                {
                    // Decoding always gives conditional entries an
                    // alternate; only a corrupted entry (soft_error)
                    // lacks one, and then both paths collapse onto
                    // Next-PC.
                    let alt = d.alt_pc.unwrap_or(d.next_pc);
                    // The hardware's guess: the static bit, or the live
                    // dynamic predictor when configured. `guess` must be
                    // a read-only lookup — training happens at retire —
                    // or wrong-path fetches and in-flight repeats of a
                    // tight loop would desynchronize the table from a
                    // replay of the retired branch stream (see
                    // `crate::predictor`).
                    let branch_pc = d.branch_pc.unwrap_or(d.pc);
                    let (guess, guess_miss) = match self.predictor.as_ref() {
                        None => (predict_taken, false),
                        Some(p) => p.guess(branch_pc),
                    };
                    slot.guess_miss = guess_miss;
                    if O::PIPELINE && self.predictor.is_some() {
                        self.obs.event(PipeEvent::Predict {
                            cycle: cyc,
                            branch_pc,
                            guess,
                            miss: guess_miss,
                        });
                    }
                    // Zero-cost resolution at cache-read time: no compare
                    // anywhere in the pipeline means the flag is final.
                    if !d.modifies_cc && !self.front.cc_writer_in_flight() {
                        let taken = self.machine.psw.flag == on_true;
                        slot.resolved = true;
                        slot.followed = taken;
                        self.stats.resolved_at_fetch += 1;
                        // A wrong guess costs zero cycles here: "the
                        // conditional branch has effectively been turned
                        // into an unconditional branch".
                        self.resolve(cyc, branch_pc, resolve_stage::FETCH, guess != taken);
                        // Follow the actual direction. The Next-PC field
                        // holds the static-bit path; swap when needed.
                        chosen = if taken == predict_taken {
                            d.next_pc
                        } else {
                            alt
                        };
                    } else {
                        slot.followed = guess;
                        let (c, o) = if guess == predict_taken {
                            (d.next_pc, alt)
                        } else {
                            (alt, d.next_pc)
                        };
                        chosen = c;
                        slot.other = o;
                    }
                }
                match chosen {
                    NextPc::Known(n) => self.front.fetch_pc = Some(n),
                    _ => {
                        self.front.fetch_pc = None;
                        self.front.waiting_on = Some(seq);
                    }
                }
                self.front.stages[0] = Some(slot);
            } else {
                if self.front.missing_pc != Some(pc) {
                    self.front.missing_pc = Some(pc);
                    self.stats.icache_misses += 1;
                    if O::PIPELINE {
                        self.obs.event(PipeEvent::FetchMiss { cycle: cyc, pc });
                    }
                }
                self.stats.miss_stall_cycles += 1;
                stalled = Some(StallKind::Miss);
                self.front.causes[0] = if self.front.parity_pc == Some(pc) {
                    BubbleCause::ParityRecovery
                } else {
                    BubbleCause::MissRefill
                };
                // Check for a decode failure at this address *before*
                // re-demanding (demand clears the failure latch). If no
                // branch in flight can still redirect us, the failing
                // address is the real path.
                if let Some((fpc, e)) = self.pdu.failure() {
                    if *fpc == pc && !self.front.unresolved_branch_in_flight() {
                        return Err(SimError::Decode {
                            pc,
                            source: e.clone(),
                        });
                    }
                }
                self.pdu.demand(pc);
            }
        } else {
            self.stats.indirect_stall_cycles += 1;
            stalled = Some(StallKind::Indirect);
            self.front.causes[0] = BubbleCause::Indirect;
        }
        if O::PIPELINE {
            self.front.sync_stall(&mut self.obs, cyc, stalled);
        }

        // ---- 5. PDU cycle. ---- An idle PDU (parked, nothing in the
        // PIR pipeline) cannot change the cache or any counter, so the
        // captured-loop steady state skips it outright.
        if !self.pdu.is_idle() {
            self.pdu.tick_observed(
                cyc,
                &self.machine.mem,
                &mut self.cache,
                self.cfg.parity,
                &mut self.obs,
            );
            self.stats.pdu_decodes = self.pdu.decodes;
            self.stats.cache_inserts = self.cache.inserts;
            self.stats.cache_refills = self.cache.refills;
            self.stats.cache_evictions = self.cache.evictions;
            self.stats.parity_invalidates = self.cache.parity_invalidates;
        }

        if let Some(p) = self.predictor.as_ref() {
            self.stats.parity_scrubs = p.parity_scrubs();
        }
        Ok(false)
    }
}

impl PipeFront {
    /// A fresh front end pointed at `entry`, for a pipe of the given
    /// geometry. Mirrors the reset state `CycleSim::with_observer`
    /// always established inline.
    fn new(entry: u32, geometry: PipelineGeometry) -> PipeFront {
        PipeFront {
            stages: [None; MAX_DEPTH],
            depth: geometry.depth(),
            fetch_pc: Some(entry),
            waiting_on: None,
            next_seq: 0,
            missing_pc: None,
            stall: None,
            fault_done: false,
            causes: [BubbleCause::Startup; MAX_DEPTH],
            fetch_kill_cause: BubbleCause::Startup,
            parity_pc: None,
        }
    }

    /// Whether this front end and `other` steer the same from here on:
    /// the fetch register, the pending indirect wait and every stage
    /// latch, with sequence numbers taken relative to each side's
    /// `next_seq`. Left out: the miss latch, the stall in progress and
    /// the bubble provenance, which only feed counters and events, and
    /// the fault latch, as a spent plan is inert.
    fn same_future(&self, other: &PipeFront) -> bool {
        let live = |f: &PipeFront, s: &Option<Slot>| {
            s.map(|s| {
                (
                    s.d,
                    s.resolved,
                    s.followed,
                    s.other,
                    f.next_seq.wrapping_sub(s.seq),
                )
            })
        };
        let waiting = |f: &PipeFront| f.waiting_on.map(|w| f.next_seq.wrapping_sub(w));
        self.depth == other.depth
            && self.fetch_pc == other.fetch_pc
            && waiting(self) == waiting(other)
            && self.stages[..self.depth]
                .iter()
                .zip(&other.stages)
                .all(|(a, b)| live(self, a) == live(other, b))
    }

    fn cc_writer_in_flight(&self) -> bool {
        self.stages[..self.depth]
            .iter()
            .flatten()
            .any(|s| s.d.modifies_cc)
    }

    fn unresolved_branch_in_flight(&self) -> bool {
        self.stages[..self.depth]
            .iter()
            .flatten()
            .any(|s| !s.resolved && matches!(s.d.fold, FoldClass::Cond { .. }))
    }

    /// Report a stall-state transition (begin, end, or kind change).
    fn sync_stall<O: PipeObserver>(&mut self, obs: &mut O, cycle: u64, now: Option<StallKind>) {
        if self.stall != now {
            if let Some(kind) = self.stall {
                obs.event(PipeEvent::StallEnd { cycle, kind });
            }
            if let Some(kind) = now {
                obs.event(PipeEvent::StallBegin { cycle, kind });
            }
            self.stall = now;
        }
    }

    /// Point fetch at the architectural continuation of a mispredicted
    /// branch: the already-known alternate when it is static, otherwise
    /// wait for the branch's own retirement to supply it.
    fn redirect_to(&mut self, alt: NextPc, branch_seq: u64) {
        match alt {
            NextPc::Known(a) => {
                self.fetch_pc = Some(a);
                self.waiting_on = None;
            }
            _ => {
                self.fetch_pc = None;
                self.waiting_on = Some(branch_seq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionalSim;
    use crisp_asm::assemble_text;

    fn run_cfg(src: &str, cfg: SimConfig) -> CycleRun {
        let img = assemble_text(src).unwrap();
        CycleSim::new(Machine::load(&img).unwrap(), cfg)
            .run()
            .unwrap()
    }

    fn run(src: &str) -> CycleRun {
        run_cfg(src, SimConfig::default())
    }

    #[test]
    fn run_until_stops_after_the_cycle_and_resumes_exactly() {
        let src = "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$9
            ifjmpy.t top
            halt
        ";
        let img = assemble_text(src).unwrap();
        let whole = run(src);
        let mut sim = CycleSim::new(Machine::load(&img).unwrap(), SimConfig::default());
        // `stop` sees each cycle's result, so it fires after cycle 5.
        assert_eq!(sim.run_until(|s| s.stats.cycles >= 5), Ok(RunEnd::Stopped));
        assert_eq!(sim.stats.cycles, 5);
        // A stopped run picks up where it left off: stopping changes
        // nothing about how the run ends.
        assert_eq!(sim.run_until(|_| false), Ok(RunEnd::Halted));
        assert_eq!(sim.stats, whole.stats);
        assert_eq!(sim.machine(), &whole.machine);
        // The watchdog is checked before the cycle runs, so a budget of
        // N cycles runs exactly N.
        let cfg = SimConfig {
            max_cycles: 7,
            ..SimConfig::default()
        };
        let mut sim = CycleSim::new(Machine::load(&img).unwrap(), cfg);
        assert_eq!(sim.run_until(|_| false), Ok(RunEnd::Watchdog));
        assert_eq!(sim.stats.cycles, 7);
        assert!(sim.stats.watchdog);
    }

    #[test]
    fn fork_runs_like_a_fresh_faulted_run() {
        use crate::config::HwPredictor;
        use crate::observe::EventRing;
        use crate::soft_error::{nth_field, nth_pdu_field, nth_predictor_field};
        let src = "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            mov 8(sp),0(sp)
            cmp.s< 0(sp),$40
            ifjmpy.t top
            halt
        ";
        let img = assemble_text(src).unwrap();
        let btb = HwPredictor::parse("btb16x2").unwrap();
        // Next-PC payload bit 5, opcode bit 1, the valid bit, an
        // Alternate Next-PC payload bit, BTB counter bit 0, BTB tag bit 2.
        let strikes = [
            (0, 0, FaultTarget::Cache, nth_field(7)),
            (37, 2, FaultTarget::Cache, nth_field(72)),
            (38, 1, FaultTarget::Cache, nth_field(70)),
            (2, 0, FaultTarget::Pdu, nth_pdu_field(37)),
            (
                45,
                0,
                FaultTarget::Predictor,
                nth_predictor_field(btb, 32).unwrap(),
            ),
            (
                90,
                3,
                FaultTarget::Predictor,
                nth_predictor_field(btb, 2).unwrap(),
            ),
        ];
        // Every fork comes off a protected golden, the one
        // `classify_batch` runs, and takes its own parity mode.
        let golden_cfg = SimConfig {
            parity: ParityMode::DetectInvalidate,
            predictor: btb,
            ..SimConfig::default()
        };
        let mut injected = 0;
        for parity in [ParityMode::Off, ParityMode::DetectInvalidate] {
            let base = SimConfig {
                parity,
                ..golden_cfg
            };
            for (cycle, slot, target, field) in strikes {
                let plan = FaultPlan {
                    cycle,
                    slot,
                    field,
                    target,
                };
                let fresh = CycleSim::with_observer(
                    Machine::load(&img).unwrap(),
                    SimConfig {
                        fault_plan: Some(plan),
                        ..base
                    },
                    EventRing::new(1 << 16),
                )
                .run_observed()
                .unwrap();
                let mut golden = CycleSim::with_observer(
                    Machine::load(&img).unwrap(),
                    golden_cfg,
                    EventRing::new(1 << 16),
                );
                if cycle > 0 {
                    golden.run_until(|s| s.stats.cycles >= cycle).unwrap();
                }
                // A recycled buffer holding another run's state, with a
                // page the golden never writes.
                let mut buf = Machine::load(&assemble_text("halt").unwrap()).unwrap();
                buf.mem.write_word(0x2_0000, -1).unwrap();
                buf.accum = 99;
                let forked = golden.fork(buf, plan, parity).run_observed().unwrap();
                let what = format!("{parity:?} {plan:?}");
                assert_eq!(forked.0.machine, fresh.0.machine, "{what}");
                assert_eq!(forked.0.stats, fresh.0.stats, "{what}");
                assert!(
                    forked.1.events().eq(fresh.1.events()),
                    "{what}: event streams differ"
                );
                injected += fresh.0.stats.faults_injected;
            }
        }
        assert!(injected >= 8, "most strikes must land ({injected})");
    }

    #[test]
    #[should_panic(expected = "past the strike")]
    fn fork_refuses_a_run_past_the_strike() {
        let img = assemble_text("top: add 0(sp),$1\n jmp top").unwrap();
        let mut sim = CycleSim::new(Machine::load(&img).unwrap(), SimConfig::default());
        sim.run_until(|s| s.stats.cycles >= 10).unwrap();
        let buf = Machine::load(&img).unwrap();
        let _ = sim.fork(
            buf,
            FaultPlan {
                cycle: 9,
                slot: 0,
                field: crate::soft_error::nth_field(70), // the valid bit
                target: FaultTarget::Cache,
            },
            ParityMode::Off,
        );
    }

    #[test]
    fn straight_line_executes_and_halts() {
        let r = run("
            mov 0(sp),$1
            add 0(sp),$2
            add 0(sp),$3
            halt
        ");
        assert!(r.halted);
        assert_eq!(r.machine.mem.read_word(r.machine.sp).unwrap(), 6);
        assert_eq!(r.stats.issued, 4);
        assert_eq!(r.stats.program_instrs, 4);
    }

    #[test]
    fn matches_functional_results() {
        let src = "
            mov 0(sp),$0
            mov 4(sp),$0
        top:
            add 4(sp),0(sp)
            add 0(sp),$1
            cmp.s< 0(sp),$20
            ifjmpy.t top
            mov Accum,4(sp)
            halt
        ";
        let img = assemble_text(src).unwrap();
        let f = FunctionalSim::new(Machine::load(&img).unwrap())
            .run()
            .unwrap();
        let c = CycleSim::new(Machine::load(&img).unwrap(), SimConfig::default())
            .run()
            .unwrap();
        assert_eq!(f.machine.accum, c.machine.accum);
        assert_eq!(f.machine.sp, c.machine.sp);
        assert_eq!(f.stats.program_instrs, c.stats.program_instrs);
        assert_eq!(f.stats.entries, c.stats.issued);
    }

    // ---- The paper's penalty schedule ----

    #[test]
    fn folded_compare_mispredict_resolves_at_rr() {
        // cmp folded with its branch; prediction bit wrong.
        // Flag: Accum(0) == 0 → true; ifjmpn (branch if false) predicted
        // taken → mispredict, resolvable only at RR.
        let r = run("
            nop
            cmp.= Accum,$0
            ifjmpn.t skip
            nop
        skip:
            halt
        ");
        assert_eq!(r.stats.mispredicts_by_stage, [0, 0, 0, 1]);
    }

    #[test]
    fn compare_one_ahead_resolves_at_or() {
        // Folding disabled so cmp and branch are separate entries,
        // immediately adjacent: the branch is one stage behind.
        let r = run_cfg(
            "
            nop
            cmp.= Accum,$0
            ifjmpn.t skip
            nop
        skip:
            halt
        ",
            SimConfig::without_folding(),
        );
        assert_eq!(r.stats.mispredicts_by_stage, [0, 0, 1, 0]);
    }

    #[test]
    fn compare_two_ahead_resolves_at_ir() {
        // One independent instruction between cmp and branch
        // (folding off keeps the distance exact).
        let r = run_cfg(
            "
            nop
            cmp.= Accum,$0
            add 0(sp),$1
            ifjmpn.t skip
            nop
        skip:
            halt
        ",
            SimConfig::without_folding(),
        );
        assert_eq!(r.stats.mispredicts_by_stage, [0, 1, 0, 0]);
    }

    #[test]
    fn compare_three_ahead_costs_nothing() {
        // Two instructions between cmp and branch: the compare has left
        // the pipeline when the branch is read from the cache, so the
        // wrong prediction bit costs zero cycles.
        let r = run_cfg(
            "
            nop
            cmp.= Accum,$0
            add 0(sp),$1
            add 4(sp),$1
            ifjmpn.t skip
            nop
        skip:
            halt
        ",
            SimConfig::without_folding(),
        );
        assert_eq!(r.stats.mispredicts_by_stage, [1, 0, 0, 0]);
        assert!(r.stats.resolved_at_fetch >= 1);
    }

    #[test]
    fn penalty_cycles_match_the_schedule() {
        // Same program, mispredict penalty varied by compare distance;
        // cycle counts must differ by exactly the schedule (3/2/1/0).
        let base = "
            nop
            cmp.= Accum,$0
            {SPREAD}
            ifjmpn.t skip
            nop
        skip:
            halt
        ";
        let cycles = |spread: &str, cfg: SimConfig| {
            run_cfg(&base.replace("{SPREAD}", spread), cfg).stats.cycles
        };
        let nf = SimConfig::without_folding();
        // Distance 3+: zero penalty. Reference point.
        let c3 = cycles("add 0(sp),$1\n add 4(sp),$1", nf);
        // Distance 2: one cycle. One less instruction in the pipeline,
        // so an equal-cycle program would be c3 - 1; the penalty adds 1.
        let c2 = cycles("add 0(sp),$1", nf);
        assert_eq!(c2, c3 - 1 + 1, "c2={c2} c3={c3}");
        // Distance 1 (adjacent): two cycles.
        let c1 = cycles("", nf);
        assert_eq!(c1, c3 - 2 + 2, "c1={c1} c3={c3}");
        // Folded (distance 0): three cycles; folding also removes the
        // branch's own slot.
        let c0 = cycles("", SimConfig::default());
        assert_eq!(c0, c3 - 3 + 3, "c0={c0} c3={c3}");
    }

    #[test]
    fn penalty_schedule_covers_every_fold_policy() {
        use crisp_isa::FoldPolicy;
        // For each policy, resolve a mispredicted branch at every
        // compare distance and check (a) the resolving stage and (b)
        // that the per-mispredict cycle penalty equals the stage index
        // — the `resolve_stage` invariant.
        //
        // (a) uses a one-shot forward branch with the prediction bit
        // wrong; the stage comes straight from `mispredicts_by_stage`.
        let stage_of = |spread: &str, policy: FoldPolicy| {
            // Flag is true (Accum == 0) and ifjmpn branches on false:
            // not taken, so predicting taken is wrong.
            let src = format!(
                "
                nop
                cmp.= Accum,$0
                {spread}
                ifjmpn.t skip
                nop
            skip:
                halt
            "
            );
            let cfg = SimConfig {
                fold_policy: policy,
                ..SimConfig::default()
            };
            let r = run_cfg(&src, cfg);
            let stages = r.stats.mispredicts_by_stage;
            assert_eq!(stages.total(), 1, "{policy:?} {spread:?}");
            stages.as_slice().iter().position(|&c| c == 1).unwrap()
        };
        // (b) measures steady state, where every path is cache-hot and
        // the cost is pure recovery: a 24-iteration loop whose back
        // branch is predicted right (one exit mispredict) vs wrong
        // (23). The cycle delta is 22 penalties plus a ±few-cycle
        // cold-start difference, so rounding to the nearest multiple
        // recovers the schedule unambiguously. The counter lives in the
        // accumulator because only `cmp.cond Accum,imm5` is one parcel
        // — the folded-compare case needs a one-parcel host.
        let penalty_of = |spread: &str, policy: FoldPolicy| {
            let src_with = |bit: &str| {
                format!(
                    "
                    mov Accum,$0
                top:
                    add Accum,$1
                    cmp.s< Accum,$24
                    {spread}
                    ifjmpy.{bit} top
                    halt
                "
                )
            };
            let cfg = SimConfig {
                fold_policy: policy,
                ..SimConfig::default()
            };
            let wrong = run_cfg(&src_with("nt"), cfg);
            let right = run_cfg(&src_with("t"), cfg);
            assert!(wrong.stats.mispredicts() >= 23);
            let delta = wrong.stats.cycles as i64 - right.stats.cycles as i64;
            usize::try_from(((delta + 11).div_euclid(22)).max(0)).unwrap()
        };
        let check = |spread: &str, policy: FoldPolicy, expect: usize| {
            assert_eq!(stage_of(spread, policy), expect, "{policy:?} {spread:?}");
            assert_eq!(
                penalty_of(spread, policy),
                expect,
                "penalty must equal the stage index ({policy:?}, {spread:?})"
            );
        };

        // Fillers keep clear of the flag and of the accumulator (the
        // penalty loop's counter).
        let narrow = [
            "",
            "add 8(sp),$1",
            "add 8(sp),$1\n add 12(sp),$1",
            "add 8(sp),$1\n add 12(sp),$1\n add 16(sp),$1",
        ];
        // Unfolded: the branch occupies its own slot, so an adjacent
        // compare is one stage ahead (OR), and so on down the schedule.
        let none_expect = [
            resolve_stage::OR,
            resolve_stage::IR,
            resolve_stage::FETCH,
            resolve_stage::FETCH,
        ];
        for (spread, expect) in narrow.iter().zip(none_expect) {
            check(spread, FoldPolicy::None, expect);
        }
        // Any folding policy: one-parcel hosts fold, so the last
        // pre-branch instruction absorbs the branch, pulling every
        // distance one stage later — RR for the folded compare itself.
        let fold_expect = [
            resolve_stage::RR,
            resolve_stage::OR,
            resolve_stage::IR,
            resolve_stage::FETCH,
        ];
        for policy in [FoldPolicy::Host1, FoldPolicy::Host13, FoldPolicy::All] {
            for (spread, expect) in narrow.iter().zip(fold_expect) {
                check(spread, policy, expect);
            }
        }
        // A three-parcel host (long immediate — an absolute operand
        // would cost *two* extension parcels, making the instruction
        // five parcels) before the branch: Host1 cannot fold it,
        // Host13/All can.
        let wide3 = "add 8(sp),$64";
        check(wide3, FoldPolicy::None, resolve_stage::IR);
        check(wide3, FoldPolicy::Host1, resolve_stage::IR);
        check(wide3, FoldPolicy::Host13, resolve_stage::OR);
        check(wide3, FoldPolicy::All, resolve_stage::OR);
        // A five-parcel (two absolute operands) host: only All folds it.
        let wide5 = "mov *0x10000,*0x10004";
        check(wide5, FoldPolicy::Host13, resolve_stage::IR);
        check(wide5, FoldPolicy::All, resolve_stage::OR);
    }

    #[test]
    fn deeper_pipes_resolve_folded_compares_at_retire() {
        use crate::geometry::PipelineGeometry;
        // The folded-compare mispredict resolves at the retire stage,
        // whose resolve index — and penalty — is the EU depth itself.
        for depth in [2usize, 3, 4, 5, 6] {
            let cfg = SimConfig {
                geometry: PipelineGeometry::new(depth),
                ..SimConfig::default()
            };
            let r = run_cfg(
                "
                nop
                cmp.= Accum,$0
                ifjmpn.t skip
                nop
            skip:
                halt
            ",
                cfg,
            );
            assert_eq!(
                r.stats.mispredicts_by_stage.len(),
                depth + 1,
                "depth {depth}"
            );
            assert_eq!(r.stats.mispredicts(), 1, "depth {depth}");
            assert_eq!(
                r.stats.mispredicts_by_stage[depth], 1,
                "depth {depth}: {:?}",
                r.stats.mispredicts_by_stage
            );
        }
    }

    #[test]
    fn spreading_distance_needed_for_free_resolution_scales_with_depth() {
        use crate::geometry::PipelineGeometry;
        // With folding off, a compare spread `d` entries ahead of its
        // branch resolves at stage `max(0, depth - d)` — deeper pipes
        // need more spreading to reach the free fetch-time resolution.
        for depth in [2usize, 3, 5] {
            let geo = PipelineGeometry::new(depth);
            for distance in 1..=depth + 1 {
                let filler = (0..distance - 1)
                    .map(|i| format!("add {}(sp),$1\n", 8 + 4 * i))
                    .collect::<String>();
                let src = format!(
                    "
                    nop
                    cmp.= Accum,$0
                    {filler}
                    ifjmpn.t skip
                    nop
                skip:
                    halt
                "
                );
                let cfg = SimConfig {
                    geometry: geo,
                    fold_policy: crisp_isa::FoldPolicy::None,
                    ..SimConfig::default()
                };
                let r = run_cfg(&src, cfg);
                let expect = geo.resolve_stage_for_distance(distance);
                assert_eq!(r.stats.mispredicts(), 1, "D={depth} d={distance}");
                assert_eq!(
                    r.stats.mispredicts_by_stage[expect], 1,
                    "D={depth} d={distance}: {:?}",
                    r.stats.mispredicts_by_stage
                );
            }
        }
    }

    #[test]
    fn every_depth_computes_the_same_result() {
        use crate::geometry::{PipelineGeometry, MAX_DEPTH, MIN_DEPTH};
        let src = "
            mov 0(sp),$0
            mov 4(sp),$0
        top:
            add 4(sp),0(sp)
            add 0(sp),$1
            cmp.s< 0(sp),$30
            ifjmpy.t top
            mov Accum,4(sp)
            halt
        ";
        let base = run(src);
        for depth in MIN_DEPTH..=MAX_DEPTH {
            let cfg = SimConfig {
                geometry: PipelineGeometry::new(depth),
                ..SimConfig::default()
            };
            let r = run_cfg(src, cfg);
            assert!(r.halted, "depth {depth}");
            assert_eq!(r.machine.accum, base.machine.accum, "depth {depth}");
            assert_eq!(r.machine.sp, base.machine.sp, "depth {depth}");
            assert_eq!(
                r.stats.program_instrs, base.stats.program_instrs,
                "depth {depth}"
            );
            // A deeper pipe can only make the mispredicted loop exit
            // more expensive.
            if depth > 3 {
                assert!(r.stats.cycles >= base.stats.cycles, "depth {depth}");
            }
        }
    }

    #[test]
    fn correct_prediction_costs_nothing() {
        // Predicted-taken backward branch, taken every time: steady
        // state issues one entry per cycle.
        let r = run("
            mov 0(sp),$0
        top:
            add 0(sp),$1
            add 4(sp),$2
            mov 8(sp),4(sp)
            cmp.s< 0(sp),$200
            ifjmpy.t top
            halt
        ");
        // 4 entries per iteration (cmp folds the branch), 200 iterations.
        let steady = r.stats.issued as f64;
        let cpi = r.stats.cycles as f64 / steady;
        assert!(cpi < 1.1, "steady-state CPI should approach 1, got {cpi}");
        // Exactly one mispredict: the loop exit (resolved at RR since
        // cmp is folded with the branch).
        assert_eq!(r.stats.mispredicts(), 1);
    }

    #[test]
    fn folding_reduces_issued_but_not_program_instrs() {
        let src = "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$50
            ifjmpy.t top
            halt
        ";
        let fold = run_cfg(src, SimConfig::default());
        let nofold = run_cfg(src, SimConfig::without_folding());
        assert_eq!(fold.stats.program_instrs, nofold.stats.program_instrs);
        // 50 folded branches disappear from the issue stream.
        assert_eq!(nofold.stats.issued - fold.stats.issued, 50);
        assert!(fold.stats.cycles < nofold.stats.cycles);
        // Apparent CPI dips below issued CPI when folding is on.
        assert!(fold.stats.apparent_cpi() < fold.stats.cycles_per_issued());
    }

    #[test]
    fn indirect_jump_stalls_then_proceeds() {
        let r = run("
            mov *0x10000,$12
            jmp *0x10000
            nop
            nop
            nop
            nop      ; byte 12: target
            halt
        ");
        assert!(r.halted);
        assert!(r.stats.indirect_stall_cycles >= 1);
    }

    #[test]
    fn call_and_return_work_under_timing() {
        let r = run("
            mov 0(sp),$5
            call f
            mov 4(sp),Accum
            halt
        f:
            enter 8
            mov Accum,$7
            leave 8
            ret
        ");
        assert!(r.halted);
        assert_eq!(r.machine.accum, 7);
        assert_eq!(r.machine.mem.read_word(r.machine.sp + 4).unwrap(), 7);
    }

    /// Run `src` to `halt` at EU depth `depth`, keeping every event.
    fn run_events(src: &str, depth: usize) -> (CycleRun, Vec<PipeEvent>) {
        let cfg = SimConfig {
            geometry: PipelineGeometry::new(depth),
            ..SimConfig::default()
        };
        let machine = Machine::load(&assemble_text(src).unwrap()).unwrap();
        let (run, ring) = CycleSim::with_observer(machine, cfg, crate::EventRing::new(1 << 12))
            .run_observed()
            .unwrap();
        assert!(run.halted);
        (run, ring.into_vec())
    }

    #[test]
    fn entries_issue_depth_cycles_after_their_fetch() {
        let src = "
            mov 0(sp),$1
            add 0(sp),$2
            add 0(sp),$3
            halt
        ";
        for depth in [3, 5] {
            let (run, events) = run_events(src, depth);
            assert_eq!(run.machine.mem.read_word(run.machine.sp).unwrap(), 6);
            // The mov (pc 0) is latched into the issue stage at the end
            // of cycle c, sits in stage k after cycle c + k, and retires
            // from the last stage (k = depth - 1) in the cycle after.
            let fetched = events.iter().find_map(|e| match *e {
                PipeEvent::FetchHit { cycle, pc: 0, .. } => Some(cycle),
                _ => None,
            });
            let issued = events.iter().find_map(|e| match *e {
                PipeEvent::Issue { cycle, pc: 0, .. } => Some(cycle),
                _ => None,
            });
            let fetched = fetched.expect("the mov is fetched");
            assert_eq!(issued, Some(fetched + depth as u64), "depth {depth}");
        }
    }

    #[test]
    fn folded_entries_are_fetched_and_issued_folded() {
        let (_, events) = run_events(
            "
            top: add 0(sp),$1
                 ifjmpy.nt top
                 halt
            ",
            3,
        );
        // The add carries the folded branch through every stage.
        assert!(events.iter().any(|e| matches!(
            e,
            PipeEvent::FetchHit {
                pc: 0,
                folded: true,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            PipeEvent::Issue {
                pc: 0,
                folded: true,
                ..
            }
        )));
    }

    #[test]
    fn cold_start_misses_then_hits() {
        let r = run("
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$100
            ifjmpy.t top
            halt
        ");
        assert!(r.stats.icache_misses >= 1);
        // Steady state: hits dominate (hundreds of fetches, few misses).
        assert!(r.stats.icache_hits > 50 * r.stats.icache_misses);
    }

    #[test]
    fn tiny_cache_thrashes() {
        // A loop longer than the cache must keep missing.
        let mut body = String::from("mov 0(sp),$0\ntop:\n");
        for i in 0..24 {
            body.push_str(&format!("add {}(sp),$1\n", 4 * (i % 8)));
        }
        body.push_str("add 0(sp),$1\ncmp.s< 0(sp),$50\nifjmpy.t top\nhalt\n");
        let big = run_cfg(
            &body,
            SimConfig {
                icache_entries: 64,
                ..SimConfig::default()
            },
        );
        let tiny = run_cfg(
            &body,
            SimConfig {
                icache_entries: 8,
                ..SimConfig::default()
            },
        );
        assert!(
            tiny.stats.cycles > big.stats.cycles,
            "tiny {} vs big {}",
            tiny.stats.cycles,
            big.stats.cycles
        );
        assert!(tiny.stats.icache_misses > big.stats.icache_misses);
        // Architectural results identical regardless of geometry.
        assert_eq!(
            tiny.machine.mem.read_word(tiny.machine.sp).unwrap(),
            big.machine.mem.read_word(big.machine.sp).unwrap()
        );
    }

    #[test]
    fn wrong_path_halt_does_not_stop_the_machine() {
        // Predicted-taken branch jumps over a halt; prediction is wrong
        // only in that the halt IS the correct path... inverted: the
        // branch is predicted NOT taken so the halt streams in behind
        // it, but the branch is actually taken.
        let r = run("
            cmp.= Accum,$0
            nop
            nop
            nop
            ifjmpy.nt skip   ; actually taken (flag true), predicted not
            halt             ; wrong path: must not commit
        skip:
            mov 0(sp),$9
            halt
        ");
        assert!(r.halted);
        assert_eq!(r.machine.mem.read_word(r.machine.sp).unwrap(), 9);
    }

    #[test]
    fn wrong_path_wild_fetch_is_harmless() {
        // The not-taken path runs into data that does not decode; the
        // branch is predicted not-taken but actually taken. The wild
        // wrong-path fetch must not kill the run.
        let r = run("
            cmp.= Accum,$0
            ifjmpy.nt good
            .word 0x0000B800   ; junk on the wrong path
        good:
            halt
        ");
        assert!(r.halted);
    }

    #[test]
    fn true_path_decode_error_is_reported() {
        let img = assemble_text("jmp bad\nbad: .word 0x0000B800").unwrap();
        let err = CycleSim::new(Machine::load(&img).unwrap(), SimConfig::default())
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Decode { .. }), "{err:?}");
    }

    #[test]
    fn cycle_limit_ends_gracefully() {
        let img = assemble_text("top: jmp top").unwrap();
        let r = CycleSim::new(
            Machine::load(&img).unwrap(),
            SimConfig {
                max_cycles: 500,
                ..SimConfig::default()
            },
        )
        .run()
        .unwrap();
        assert!(!r.halted);
        assert_eq!(r.halt_reason, HaltReason::Watchdog);
        assert!(r.stats.watchdog);
        assert_eq!(r.stats.cycles, 500);
    }

    #[test]
    fn insn_limit_ends_gracefully() {
        let img = assemble_text("top: add 0(sp),$1\n jmp top").unwrap();
        let r = CycleSim::new(
            Machine::load(&img).unwrap(),
            SimConfig {
                max_insns: Some(40),
                ..SimConfig::default()
            },
        )
        .run()
        .unwrap();
        assert!(!r.halted);
        assert_eq!(r.halt_reason, HaltReason::Watchdog);
        assert!(r.stats.watchdog);
        // The limit is checked between cycles, so the run stops at the
        // first boundary at or past 40 retirements.
        assert!(r.stats.program_instrs >= 40);
        assert!(r.stats.program_instrs < 44);
    }

    #[test]
    fn injected_fault_detected_and_recovered_under_parity() {
        use crate::soft_error::{nth_field, FaultPlan, FaultTarget, ParityMode};
        let src = "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$50
            ifjmpy.t top
            halt
        ";
        let img = assemble_text(src).unwrap();
        let clean = run_cfg(src, SimConfig::default());
        // Strike every slot of a warmed-up loop; under DetectInvalidate
        // every run must still produce the fault-free result.
        let mut detected = 0u64;
        for slot in 0..8u32 {
            let cfg = SimConfig {
                parity: ParityMode::DetectInvalidate,
                fault_plan: Some(FaultPlan {
                    cycle: 60,
                    slot,
                    field: nth_field(7),
                    target: FaultTarget::Cache,
                }),
                ..SimConfig::default()
            };
            let r = CycleSim::new(Machine::load(&img).unwrap(), cfg)
                .run()
                .unwrap();
            assert!(r.halted, "slot {slot}");
            assert_eq!(
                r.machine.mem.read_word(r.machine.sp).unwrap(),
                clean.machine.mem.read_word(clean.machine.sp).unwrap(),
                "slot {slot}"
            );
            // A strike is only detected when the corrupted entry is
            // fetched again (one-shot entries linger unread), so the
            // invalidate count is bounded by — not equal to — the
            // injection count.
            assert!(
                r.stats.parity_invalidates <= r.stats.faults_injected,
                "slot {slot}"
            );
            detected += r.stats.parity_invalidates;
        }
        // The loop body is re-fetched every iteration, so at least one
        // of the strikes must have been caught at read time.
        assert!(detected >= 1);
    }

    #[test]
    fn dynamic_predictor_learns_a_loop() {
        use crate::config::HwPredictor;
        // The loop branch: a 2-bit dynamic counter starts weakly
        // not-taken, mispredicts early iterations, then learns. The
        // compare is adjacent (folded), so each early mispredict costs
        // the full 3 cycles — slower than a correct static bit but far
        // better than a wrong one.
        let src = "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$100
            ifjmpy.nt top      ; static bit says NOT taken (wrong 99x)
            halt
        ";
        let dyn_cfg = SimConfig {
            predictor: HwPredictor::Dynamic {
                bits: 2,
                entries: 256,
            },
            ..SimConfig::default()
        };
        let dynamic = run_cfg(src, dyn_cfg);
        let static_bad = run_cfg(src, SimConfig::default());
        // The dynamic predictor overrides the bad static bit after a
        // couple of iterations.
        assert!(
            dynamic.stats.mispredicts() < 6,
            "dynamic mispredicts = {}",
            dynamic.stats.mispredicts()
        );
        assert!(static_bad.stats.mispredicts() > 90);
        assert!(dynamic.stats.cycles < static_bad.stats.cycles);
        // Architectural results identical.
        assert_eq!(
            dynamic.machine.mem.read_word(dynamic.machine.sp).unwrap(),
            static_bad
                .machine
                .mem
                .read_word(static_bad.machine.sp)
                .unwrap(),
        );
    }

    #[test]
    fn dynamic_predictor_loses_on_alternating_branch() {
        use crate::config::HwPredictor;
        // The paper's alternating case: a 1-bit counter mispredicts
        // every time once warmed, while the optimal static bit gets 50%.
        let src = "
            mov 0(sp),$0
        top:
            and3 0(sp),$1
            cmp.= Accum,$0
            nop
            nop
            nop
            ifjmpy.t skip      ; taken on even i: alternates
            add 4(sp),$1
        skip:
            add 0(sp),$1
            cmp.s< 0(sp),$64
            ifjmpy.t top
            halt
        ";
        let dyn_cfg = SimConfig {
            predictor: HwPredictor::Dynamic {
                bits: 1,
                entries: 256,
            },
            ..SimConfig::default()
        };
        let dynamic = run_cfg(src, dyn_cfg);
        let static_bit = run_cfg(src, SimConfig::default());
        // Both runs compute the same result ...
        assert_eq!(
            dynamic
                .machine
                .mem
                .read_word(dynamic.machine.sp + 4)
                .unwrap(),
            static_bit
                .machine
                .mem
                .read_word(static_bit.machine.sp + 4)
                .unwrap(),
        );
        // ... and the alternating branch is spread (3 instructions), so
        // every wrong guess costs 0 — both predictors tie on cycles.
        // Check the guess quality itself: the 1-bit table must be wrong
        // more often on the alternating branch.
        assert!(
            dynamic.stats.mispredicts_by_stage[0] > static_bit.stats.mispredicts_by_stage[0],
            "dynamic {:?} vs static {:?}",
            dynamic.stats.mispredicts_by_stage,
            static_bit.stats.mispredicts_by_stage
        );
    }

    #[test]
    fn btb_predictor_learns_a_loop_and_charges_cold_misses() {
        use crate::config::HwPredictor;
        // Same loop as the counter test: the static bit is wrong every
        // iteration, a BTB allocates the branch on its first taken
        // retirement and predicts taken from then on. The first wrong
        // guess came from a table miss, so its recovery bubbles land in
        // the btb_miss bucket, not branch_penalty.
        let src = "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$100
            ifjmpy.nt top      ; static bit says NOT taken (wrong 99x)
            halt
        ";
        let btb_cfg = SimConfig {
            predictor: HwPredictor::Btb {
                entries: 128,
                ways: 4,
            },
            ..SimConfig::default()
        };
        let btb = run_cfg(src, btb_cfg);
        let static_bad = run_cfg(src, SimConfig::default());
        assert!(
            btb.stats.mispredicts() < 6,
            "btb mispredicts = {}",
            btb.stats.mispredicts()
        );
        assert!(btb.stats.cycles < static_bad.stats.cycles);
        assert_eq!(btb.stats.accounts.total(), btb.stats.cycles);
        assert!(
            btb.stats.accounts.btb_miss > 0,
            "cold-miss mispredict must be charged to btb_miss: {:?}",
            btb.stats.accounts
        );
        // The shadow static-bit score is independent of the live
        // predictor: the bad bit misses ~99 times either way.
        assert_eq!(
            btb.stats.static_bit_mispredicts,
            static_bad.stats.static_bit_mispredicts
        );
        assert!(btb.stats.static_bit_mispredicts > 90);
        assert_eq!(btb.stats.predicted_by, "btb128x4");
        assert_eq!(static_bad.stats.predicted_by, "static");
        // Under the static bit the shadow score IS the live score.
        assert_eq!(
            static_bad.stats.static_bit_mispredicts,
            static_bad.stats.mispredicts()
        );
        // Architectural results identical.
        assert_eq!(
            btb.machine.mem.read_word(btb.machine.sp).unwrap(),
            static_bad
                .machine
                .mem
                .read_word(static_bad.machine.sp)
                .unwrap(),
        );
    }

    #[test]
    fn jump_trace_predictor_learns_a_loop() {
        use crate::config::HwPredictor;
        let src = "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$100
            ifjmpy.nt top      ; static bit says NOT taken (wrong 99x)
            halt
        ";
        let jt_cfg = SimConfig {
            predictor: HwPredictor::JumpTrace { entries: 8 },
            ..SimConfig::default()
        };
        let jt = run_cfg(src, jt_cfg);
        let static_bad = run_cfg(src, SimConfig::default());
        // A hit predicts taken, so after the first taken retirement the
        // loop branch is always right; only the cold miss costs.
        assert!(
            jt.stats.mispredicts() < 3,
            "jump-trace mispredicts = {}",
            jt.stats.mispredicts()
        );
        assert!(jt.stats.cycles < static_bad.stats.cycles);
        assert_eq!(jt.stats.accounts.total(), jt.stats.cycles);
        assert!(jt.stats.accounts.btb_miss > 0, "{:?}", jt.stats.accounts);
        assert_eq!(jt.stats.predicted_by, "jumptrace8");
        assert_eq!(
            jt.machine.mem.read_word(jt.machine.sp).unwrap(),
            static_bad
                .machine
                .mem
                .read_word(static_bad.machine.sp)
                .unwrap(),
        );
    }

    #[test]
    fn predict_events_mark_table_misses() {
        use crate::config::HwPredictor;
        use crate::EventRing;
        let src = "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$16
            ifjmpy.nt top
            halt
        ";
        let image = assemble_text(src).unwrap();
        let cfg = SimConfig {
            predictor: HwPredictor::Btb {
                entries: 8,
                ways: 2,
            },
            ..SimConfig::default()
        };
        let sim =
            CycleSim::with_observer(Machine::load(&image).unwrap(), cfg, EventRing::new(1 << 16));
        let (run, ring) = sim.run_observed().unwrap();
        assert!(run.halted);
        let predicts: Vec<_> = ring
            .events()
            .filter_map(|e| match *e {
                PipeEvent::Predict { guess, miss, .. } => Some((guess, miss)),
                _ => None,
            })
            .collect();
        assert!(!predicts.is_empty(), "dynamic runs must emit Predict");
        // First consult of the loop branch misses (predicting
        // not-taken); once allocated, hits predict taken.
        assert_eq!(predicts[0], (false, true));
        assert!(predicts.iter().any(|&(g, m)| g && !m));
        // The static-bit machine consults no table: no Predict events.
        let sim = CycleSim::with_observer(
            Machine::load(&image).unwrap(),
            SimConfig::default(),
            EventRing::new(1 << 16),
        );
        let (_, ring) = sim.run_observed().unwrap();
        assert!(!ring
            .events()
            .any(|e| matches!(e, PipeEvent::Predict { .. })));
    }

    #[test]
    fn slow_memory_hurts_cold_start_only() {
        let src = "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$100
            ifjmpy.t top
            halt
        ";
        let fast = run_cfg(src, SimConfig::default());
        let slow = run_cfg(
            src,
            SimConfig {
                mem_latency: 10,
                ..SimConfig::default()
            },
        );
        assert!(slow.stats.cycles > fast.stats.cycles);
        // The loop runs from the decoded cache, so the gap is bounded by
        // the (small) number of misses, not proportional to iterations.
        assert!(slow.stats.cycles < fast.stats.cycles + 400);
    }

    // ---- Top-down cycle accounting ----

    fn assert_conserved(r: &CycleRun) {
        assert_eq!(
            r.stats.accounts.total(),
            r.stats.cycles,
            "buckets must sum to cycles: {:?}",
            r.stats.accounts
        );
        assert_eq!(
            r.stats.accounts.useful, r.stats.issued,
            "useful cycles are exactly the retirements"
        );
        assert!(
            r.stats.accounts.branch_penalty.total()
                <= r.stats.mispredicts_by_stage.penalty_cycles(),
            "branch bubbles cannot exceed the scheduled penalty: {} > {}",
            r.stats.accounts.branch_penalty.total(),
            r.stats.mispredicts_by_stage.penalty_cycles()
        );
    }

    #[test]
    fn accounting_attributes_startup_and_refills() {
        let r = run("
            mov 0(sp),$1
            add 0(sp),$2
            add 0(sp),$3
            halt
        ");
        assert_conserved(&r);
        // Pipeline fill: exactly `depth` cycles pass before the first
        // entry can reach retire.
        assert_eq!(r.stats.accounts.startup, 3);
        // A cold straight line has no branches — every other bubble is
        // a decode refill.
        assert_eq!(r.stats.accounts.branch_penalty.total(), 0);
        assert_eq!(r.stats.accounts.indirect_stall, 0);
        assert!(r.stats.accounts.miss_refill > 0);
    }

    #[test]
    fn accounting_startup_equals_depth_at_every_geometry() {
        for depth in MIN_DEPTH..=6 {
            let r = run_cfg(
                "
                mov 0(sp),$0
            top:
                add 0(sp),$1
                cmp.s< 0(sp),$8
                ifjmpy.t top
                halt
            ",
                SimConfig {
                    geometry: PipelineGeometry::new(depth),
                    ..SimConfig::default()
                },
            );
            assert_conserved(&r);
            assert_eq!(r.stats.accounts.startup, depth as u64, "depth {depth}");
        }
    }

    #[test]
    fn folded_mispredict_bubbles_land_in_the_retire_bucket() {
        // The folded-compare mispredict resolves at RR; its recovery
        // bubbles are charged to the retire-stage bucket and to no
        // other branch bucket.
        let r = run("
            nop
            cmp.= Accum,$0
            ifjmpn.t skip
            nop
        skip:
            halt
        ");
        assert_conserved(&r);
        let penalty = &r.stats.accounts.branch_penalty;
        assert!(penalty.get(3) > 0, "{penalty}");
        assert_eq!(penalty.total(), penalty.get(3), "{penalty}");
    }

    #[test]
    fn spread_compare_leaves_branch_buckets_empty() {
        // Fully spread: the wrong prediction bit is corrected for free
        // at cache-read time — the paper's zero-delay case, visible in
        // the accounting as an empty branch-penalty column.
        let r = run_cfg(
            "
            nop
            cmp.= Accum,$0
            add 0(sp),$1
            add 4(sp),$1
            ifjmpn.t skip
            nop
        skip:
            halt
        ",
            SimConfig::without_folding(),
        );
        assert_conserved(&r);
        assert_eq!(r.stats.mispredicts_by_stage, [1, 0, 0, 0]);
        assert_eq!(r.stats.accounts.branch_penalty.total(), 0);
    }

    #[test]
    fn parity_invalidate_refills_accounted_separately() {
        use crate::soft_error::{nth_field, FaultPlan, FaultTarget, ParityMode};
        let src = "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$50
            ifjmpy.t top
            halt
        ";
        let img = assemble_text(src).unwrap();
        let mut recovered = 0u64;
        for slot in 0..8u32 {
            let cfg = SimConfig {
                parity: ParityMode::DetectInvalidate,
                fault_plan: Some(FaultPlan {
                    cycle: 60,
                    slot,
                    field: nth_field(7),
                    target: FaultTarget::Cache,
                }),
                ..SimConfig::default()
            };
            let r = CycleSim::new(Machine::load(&img).unwrap(), cfg)
                .run()
                .unwrap();
            assert_conserved(&r);
            if r.stats.parity_invalidates > 0 {
                recovered += r.stats.accounts.parity_recovery;
            } else {
                assert_eq!(r.stats.accounts.parity_recovery, 0, "slot {slot}");
            }
        }
        // At least one strike hit the warm loop body, and its redecode
        // stall landed in the parity bucket, not the ordinary-miss one.
        assert!(recovered >= 1);
    }

    #[test]
    fn watchdog_truncation_still_conserves() {
        let img = assemble_text("top: jmp top").unwrap();
        let r = CycleSim::new(
            Machine::load(&img).unwrap(),
            SimConfig {
                max_cycles: 500,
                ..SimConfig::default()
            },
        )
        .run()
        .unwrap();
        assert!(r.stats.watchdog);
        assert_conserved(&r);
    }
}
