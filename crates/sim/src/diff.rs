//! Differential co-simulation: a lockstep functional-vs-cycle oracle.
//!
//! The two engines share one architectural core ([`Machine::execute`]),
//! but the cycle engine wraps it in speculation: wrong-path slots,
//! squash windows, mispredict redirects, cache-conflict refetches. A
//! whole class of pipeline bugs — a missed squash, a stale Alternate
//! Next-PC, a double retire — corrupts architectural state in ways an
//! end-of-run result check can miss, because later correct-path writes
//! can overwrite the damage. The oracle here compares the engines
//! *commit by commit* instead: both emit [`PipeEvent::Commit`] through
//! the shared commit point ([`Machine::execute_observed`]).
//!
//! Every lockstep verdict comes from one kernel. [`diff_reference`]
//! runs the functional engine once and keeps its commit stream and how
//! it ended; the cycle engine then runs with a [`PrefixCheck`] cursor
//! over that stream, stopping at the first commit that decides the
//! verdict; and one `judge` turns the cursor and the way the run ended
//! into agreement or the first divergence. [`run_lockstep`] adds an
//! event ring to that run for a pipeline-timeline excerpt of the cycles
//! around the divergence, and the fault campaigns
//! ([`crate::classify_batch`]) map the same judgement onto AVF
//! outcomes.
//!
//! The harness is validated by fault injection: configuring
//! [`crate::FaultInjection::SkipOrSquash`] makes the cycle engine skip
//! one squash during folded-compare mispredict recovery, and the oracle
//! must catch the wrong-path commit (a unit test here and the
//! `diff_oracle` integration test both insist on it).

use std::sync::Arc;

use crisp_isa::FoldPolicy;

use crate::config::HwPredictor;
use crate::observe::{render_timeline, EventRing, PipeEvent, PipeObserver};
use crate::predecode::PredecodedImage;
use crate::{CycleSim, FunctionalSim, Machine, MachinePool, RunEnd, SimConfig, SimError};
use crisp_asm::Image;

/// Events of pipeline context retained for the divergence excerpt.
const TIMELINE_RING: usize = 4096;
/// Cycles of context rendered before the divergent commit.
const EXCERPT_BEFORE: u64 = 8;
/// Cycles of context rendered after the divergent commit.
const EXCERPT_AFTER: u64 = 3;
/// How many commits past the cycle engine's last the functional
/// reference may raise the cycle engine's error and still agree. The
/// cycle engine's fetch/decode errors fire up to a full pipeline ahead
/// of retirement, so the reference legitimately commits the few slots
/// still in flight before reaching the same error.
const ERROR_CHASE: usize = 8;

/// The architectural effects of one retired entry, as reported through
/// [`PipeEvent::Commit`].
///
/// Deliberately excludes the clock: the cycle engine stamps commits
/// with cycle numbers and the functional engine with step indices, so
/// the clock lives in [`CommitLog::cycles`] instead and records from
/// the two engines compare equal exactly when the architectural
/// history matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Address of the (host) entry that committed.
    pub pc: u32,
    /// The architecturally correct next PC.
    pub next_pc: u32,
    /// Address of the branch the entry carried, if any.
    pub branch_pc: Option<u32>,
    /// Whether the entry carried a folded branch.
    pub folded: bool,
    /// For conditional entries, the actual direction taken.
    pub taken: Option<bool>,
    /// Accumulator after the commit.
    pub accum: i32,
    /// Stack pointer after the commit.
    pub sp: u32,
    /// PSW condition flag after the commit.
    pub flag: bool,
    /// The memory word written (word-aligned address, value), if any.
    pub mem_write: Option<(u32, i32)>,
    /// Whether this commit was a `halt`.
    pub halted: bool,
}

impl CommitRecord {
    fn from_event(ev: &PipeEvent) -> Option<(u64, CommitRecord)> {
        match *ev {
            PipeEvent::Commit {
                cycle,
                pc,
                next_pc,
                branch_pc,
                folded,
                taken,
                accum,
                sp,
                flag,
                mem_write,
                halted,
            } => Some((
                cycle,
                CommitRecord {
                    pc,
                    next_pc,
                    branch_pc,
                    folded,
                    taken,
                    accum,
                    sp,
                    flag,
                    mem_write,
                    halted,
                },
            )),
            _ => None,
        }
    }
}

/// A [`PipeObserver`] that captures the commit stream: one
/// [`CommitRecord`] per retired entry, in retirement order, with the
/// clock each record retired on kept in a parallel vector (see
/// [`CommitRecord`] for why the clock is split out). It is a
/// commit-only observer ([`PipeObserver::PIPELINE`] is `false`): alone
/// it is sent nothing but commits, and in a tuple it ignores the other
/// events its sibling receives.
#[derive(Debug, Default, Clone)]
pub struct CommitLog {
    /// Per-commit architectural records.
    pub records: Vec<CommitRecord>,
    /// The cycle (cycle engine) or step index (functional engine) each
    /// record retired on; `cycles[i]` pairs with `records[i]`.
    pub cycles: Vec<u64>,
}

impl PipeObserver for CommitLog {
    const PIPELINE: bool = false;

    #[inline]
    fn event(&mut self, ev: PipeEvent) {
        if let Some((cycle, rec)) = CommitRecord::from_event(&ev) {
            self.cycles.push(cycle);
            self.records.push(rec);
        }
    }
}

/// Why the two engines disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The engines retired different architectural state at the same
    /// commit index.
    Mismatch {
        /// What the functional reference committed.
        functional: CommitRecord,
        /// What the cycle engine committed.
        cycle: CommitRecord,
    },
    /// The cycle engine committed after the functional engine halted —
    /// a wrong-path slot escaped its squash.
    ExtraCommit {
        /// The surplus cycle-engine commit.
        cycle: CommitRecord,
    },
    /// One engine raised an error the other did not, or their errors
    /// disagree. (`None` means that engine was still running cleanly.)
    Error {
        /// The functional engine's error, if any.
        functional: Option<SimError>,
        /// The cycle engine's error, if any.
        cycle: Option<SimError>,
    },
    /// Every commit matched but the final machine state did not — a
    /// write both engines failed to report (belt and braces over the
    /// per-commit comparison).
    FinalState,
    /// The cycle engine hit its watchdog limit
    /// ([`SimConfig::max_cycles`] / [`SimConfig::max_insns`]) before
    /// halting — the oracle cannot tell agreement from a hang.
    Watchdog {
        /// The commits that did match before the limit expired.
        commits: u64,
    },
}

/// The first point where the two engines disagreed.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index into the commit stream (0-based) of the divergent commit;
    /// all earlier commits matched.
    pub commit_index: usize,
    /// Cycle-engine clock at the divergence.
    pub cycle: u64,
    /// What disagreed.
    pub kind: DivergenceKind,
    /// A pipeline-timeline excerpt (see
    /// [`crate::observe::render_timeline`]) of the cycles around the
    /// divergence.
    pub timeline: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "first divergence at commit #{} (cycle {}):",
            self.commit_index, self.cycle
        )?;
        match &self.kind {
            DivergenceKind::Mismatch { functional, cycle } => {
                writeln!(f, "  functional: {functional:?}")?;
                writeln!(f, "  cycle:      {cycle:?}")?;
            }
            DivergenceKind::ExtraCommit { cycle } => {
                writeln!(
                    f,
                    "  cycle engine committed after the functional engine halted: {cycle:?}"
                )?;
            }
            DivergenceKind::Error { functional, cycle } => {
                writeln!(f, "  functional error: {functional:?}")?;
                writeln!(f, "  cycle error:      {cycle:?}")?;
            }
            DivergenceKind::FinalState => {
                writeln!(f, "  commit streams match but final machine state differs")?;
            }
            DivergenceKind::Watchdog { commits } => {
                writeln!(
                    f,
                    "  watchdog limit expired after {commits} matching commits (no halt)"
                )?;
            }
        }
        write!(f, "{}", self.timeline)
    }
}

/// The verdict of one [`run_lockstep`] call.
#[derive(Debug, Clone)]
pub enum LockstepOutcome {
    /// The engines agreed on every commit and on the final state.
    /// (Programs on which both engines raise the *same* error also
    /// land here: the engines agree the program is faulty.)
    Agree {
        /// Retired entries compared.
        commits: u64,
        /// Cycle-engine clock at the end of the run.
        cycles: u64,
    },
    /// The engines disagreed; the payload pinpoints the first
    /// divergent commit.
    Diverge(Box<Divergence>),
}

impl LockstepOutcome {
    /// Whether the engines agreed.
    pub fn is_agree(&self) -> bool {
        matches!(self, LockstepOutcome::Agree { .. })
    }

    /// The divergence, if any.
    pub fn divergence(&self) -> Option<&Divergence> {
        match self {
            LockstepOutcome::Agree { .. } => None,
            LockstepOutcome::Diverge(d) => Some(d),
        }
    }
}

/// The configuration grid the differential harness sweeps: every
/// [`FoldPolicy`] × decoded-cache size × hardware-prediction mode. The
/// small cache forces conflict evictions and refetch-replay paths; the
/// dynamic predictors exercise guess-direction swaps the static bit
/// never takes — every [`HwPredictor`] variant is represented (tiny
/// BTB/jump-trace geometries, so eviction and capacity paths fire on
/// short programs).
pub fn sweep_configs() -> Vec<SimConfig> {
    let mut out = Vec::new();
    for fold_policy in [
        FoldPolicy::None,
        FoldPolicy::Host1,
        FoldPolicy::Host13,
        FoldPolicy::All,
    ] {
        for icache_entries in [8usize, 32] {
            for predictor in [
                HwPredictor::StaticBit,
                HwPredictor::Dynamic {
                    bits: 2,
                    entries: 64,
                },
                HwPredictor::Btb {
                    entries: 8,
                    ways: 2,
                },
                HwPredictor::JumpTrace { entries: 8 },
            ] {
                out.push(SimConfig {
                    fold_policy,
                    icache_entries,
                    predictor,
                    ..SimConfig::default()
                });
            }
        }
    }
    out
}

/// Reusable per-worker state for [`verify_threaded_pooled`]: the
/// interpreter's and the threaded tier's `Machine` buffers, recycled
/// across cases via [`Machine::reset_from`] so a campaign performs two
/// memory allocations per worker instead of two per case.
/// [`run_lockstep_batched`] takes one and ignores it.
///
/// [`verify_threaded_pooled`]: crate::verify_threaded_pooled
#[derive(Debug, Default)]
pub struct LockstepBuffers {
    pub(crate) func: Option<Machine>,
    pub(crate) cycle: Option<Machine>,
}

/// Whether two engines ended in the same architectural state: the
/// final-state check behind every lockstep agreement.
fn same_final_state(a: &Machine, b: &Machine) -> bool {
    a.accum == b.accum
        && a.sp == b.sp
        && a.psw.flag == b.psw.flag
        && a.halted == b.halted
        && a.mem == b.mem
}

/// The first commit a [`PrefixCheck`] could not match.
#[derive(Debug, Clone, Copy)]
struct Miss {
    /// The cycle it retired on.
    cycle: u64,
    /// What the cycle engine committed.
    observed: CommitRecord,
    /// The reference's record at the same index, `None` past the
    /// reference's end.
    expected: Option<CommitRecord>,
}

/// An online commit-stream comparator: checks each commit a cycle
/// engine retires against a precomputed reference [`CommitLog`], in
/// retirement order, without storing the stream.
///
/// This is the lockstep kernel's observer, shared by [`run_lockstep`],
/// [`run_lockstep_batched`] and [`crate::classify_batch`]: one
/// reference log serves every configuration or fault case of a
/// program, each run carries only a cursor into it — no per-run log
/// allocation — and stops ([`CycleSim::run_until`]) as soon as
/// [`PrefixCheck::decided`] reports that its verdict is fixed.
///
/// It reads only [`PipeEvent::Commit`], so it declares itself
/// commit-only ([`PipeObserver::PIPELINE`] is `false`): the cycle
/// engine then builds and delivers no other event to it, and a checked
/// run costs little more than an unobserved one.
#[derive(Debug, Clone)]
pub struct PrefixCheck {
    reference: Arc<CommitLog>,
    /// Leading commits that matched the reference.
    matched: usize,
    /// The first commit that did not extend the matched prefix.
    miss: Option<Miss>,
}

impl PrefixCheck {
    /// A fresh cursor over `reference`.
    pub fn new(reference: Arc<CommitLog>) -> PrefixCheck {
        PrefixCheck {
            reference,
            matched: 0,
            miss: None,
        }
    }

    /// Leading commits that matched the reference stream.
    pub fn matched(&self) -> usize {
        self.matched
    }

    /// Whether the verdict is already fixed no matter how the run
    /// ends: a commit differed from the reference's, or retired past
    /// the reference's end. A stream that is merely short or stalled
    /// does *not* decide — how the run ends tells hang from halt.
    pub fn decided(&self) -> bool {
        self.miss.is_some()
    }

    /// Whether the observed stream reproduced the reference exactly:
    /// every reference commit matched and nothing else retired.
    pub fn full_match(&self) -> bool {
        self.miss.is_none() && self.matched == self.reference.records.len()
    }
}

impl PipeObserver for PrefixCheck {
    const PIPELINE: bool = false;

    #[inline]
    fn event(&mut self, ev: PipeEvent) {
        let Some((cycle, observed)) = CommitRecord::from_event(&ev) else {
            return;
        };
        if self.miss.is_some() {
            return;
        }
        match self.reference.records.get(self.matched) {
            Some(r) if *r == observed => self.matched += 1,
            expected => {
                self.miss = Some(Miss {
                    cycle,
                    observed,
                    expected: expected.copied(),
                });
            }
        }
    }
}

/// How a reference's functional run ended.
#[derive(Debug)]
pub(crate) enum ReferenceEnd {
    /// It retired `halt`, leaving this final architectural state.
    Halted(Machine),
    /// The step after its last record raised this error.
    Error(SimError),
    /// It ran its whole step budget.
    Exhausted,
}

/// The functional engine's run over one (image, fold policy): the
/// commit stream plus how it ended. One reference serves every
/// configuration of a [`run_lockstep_batched`] sweep under that
/// policy, and every lockstep verdict is judged against one.
#[derive(Debug)]
pub struct DiffReference {
    log: Arc<CommitLog>,
    end: ReferenceEnd,
}

impl DiffReference {
    /// How the reference's run ended.
    pub(crate) fn end(&self) -> &ReferenceEnd {
        &self.end
    }

    /// The reference commit stream.
    pub fn log(&self) -> &Arc<CommitLog> {
        &self.log
    }

    /// The final state of a reference that halted, for a caller to
    /// return to its [`MachinePool`] once the sweep is judged.
    pub fn into_machine(self) -> Option<Machine> {
        match self.end {
            ReferenceEnd::Halted(m) => Some(m),
            _ => None,
        }
    }
}

/// Precompute the functional side of a lockstep sweep: run the
/// reference once and capture its commit stream and how it ended.
///
/// `max_steps` is the sweep's watchdog budget, `min(max_cycles,
/// max_insns)`: the cycle engine retires at most one entry per cycle
/// and one instruction per entry, so a run inside its watchdog never
/// retires more. The reference runs `ERROR_CHASE` (8) steps further,
/// so an error the cycle engine raises can always be chased into it.
///
/// # Errors
///
/// Image-load failures only.
pub fn diff_reference(
    image: &Image,
    fold_policy: FoldPolicy,
    max_steps: u64,
    predecoded: Option<&Arc<PredecodedImage>>,
    pool: &mut MachinePool,
) -> Result<DiffReference, SimError> {
    if let Some(t) = predecoded {
        assert_eq!(
            t.policy(),
            fold_policy,
            "predecode table policy must match the reference policy"
        );
    }
    let machine = pool.take(image)?;
    let mut log = CommitLog::default();
    let run = match predecoded {
        Some(t) => FunctionalSim::with_predecoded(machine, Arc::clone(t)),
        None => FunctionalSim::with_policy(machine, fold_policy),
    }
    .max_steps(max_steps.saturating_add(ERROR_CHASE as u64))
    .run_observed(&mut log);
    let end = match run {
        Ok(run) if run.halted => ReferenceEnd::Halted(run.machine),
        Ok(run) => {
            pool.put(run.machine);
            ReferenceEnd::Exhausted
        }
        Err(e) => ReferenceEnd::Error(e),
    };
    Ok(DiffReference {
        log: Arc::new(log),
        end,
    })
}

/// The verdict order of every lockstep comparison, applied to a cycle
/// run that `check` watched against `reference` and that ended with
/// `end`: `None` for agreement, else where and how the run left its
/// reference (the commit index, the cycle-engine clock, and what
/// disagreed).
///
/// In order: a commit that differs from the reference's, or retires
/// past its end (an extra commit after its halt, or a commit where it
/// raised an error); then the watchdog; then a cycle-engine error,
/// which agrees only if the reference raises the same error within
/// [`ERROR_CHASE`] commits of the cycle engine's last; then, after a
/// halt, the final state. A run its caller stopped with the prefix
/// still clean agrees: only the fault kernel's parity settle does that.
///
/// # Panics
///
/// If the reference ran out of budget before the run could be judged
/// (its step budget was below the run's watchdog budget).
pub(crate) fn judge<O: PipeObserver>(
    reference: &DiffReference,
    check: &PrefixCheck,
    sim: &CycleSim<O>,
    end: &Result<RunEnd, SimError>,
) -> Option<(usize, u64, DivergenceKind)> {
    let (matched, records) = (check.matched, reference.log.records.len());
    if matches!(reference.end, ReferenceEnd::Exhausted) {
        assert!(
            matched + ERROR_CHASE <= records,
            "the reference's step budget is below the run's watchdog budget"
        );
    }
    if let Some(miss) = check.miss {
        let kind = match (miss.expected, &reference.end) {
            (Some(functional), _) => DivergenceKind::Mismatch {
                functional,
                cycle: miss.observed,
            },
            (None, ReferenceEnd::Error(e)) => DivergenceKind::Error {
                functional: Some(e.clone()),
                cycle: None,
            },
            (None, _) => DivergenceKind::ExtraCommit {
                cycle: miss.observed,
            },
        };
        return Some((matched, miss.cycle, kind));
    }
    let kind = match end {
        Ok(RunEnd::Stopped) => return None,
        Ok(RunEnd::Watchdog) => DivergenceKind::Watchdog {
            commits: matched as u64,
        },
        Err(cycle_err) => {
            let functional = match &reference.end {
                ReferenceEnd::Error(e) if records < matched + ERROR_CHASE => Some(e.clone()),
                _ => None,
            };
            if functional.as_ref() == Some(cycle_err) {
                return None;
            }
            DivergenceKind::Error {
                functional,
                cycle: Some(cycle_err.clone()),
            }
        }
        Ok(RunEnd::Halted) => match &reference.end {
            ReferenceEnd::Halted(f) if matched == records && same_final_state(f, sim.machine()) => {
                return None
            }
            _ => DivergenceKind::FinalState,
        },
    };
    Some((matched, sim.stats.cycles, kind))
}

/// One cycle run of `cfg` over `image` under `obs`, stopped as soon as
/// the [`PrefixCheck`] that `check` finds in `obs` has decided.
fn checked_run<O: PipeObserver>(
    image: &Image,
    cfg: SimConfig,
    predecoded: Option<&Arc<PredecodedImage>>,
    pool: &mut MachinePool,
    obs: O,
    check: fn(&O) -> &PrefixCheck,
) -> Result<(CycleSim<O>, Result<RunEnd, SimError>), SimError> {
    let mut sim = CycleSim::with_observer(pool.take(image)?, cfg, obs);
    if let Some(t) = predecoded {
        sim.set_predecoded(Arc::clone(t));
    }
    let end = sim.run_until(|s| check(s.observer()).decided());
    Ok((sim, end))
}

/// The checked run of `cfg` with a pipeline-event ring beside the
/// cursor, judged into a full [`LockstepOutcome`]: a divergence carries
/// a timeline excerpt of the cycles around it.
fn report(
    image: &Image,
    cfg: SimConfig,
    predecoded: Option<&Arc<PredecodedImage>>,
    reference: &DiffReference,
    pool: &mut MachinePool,
) -> Result<LockstepOutcome, SimError> {
    let obs = (
        PrefixCheck::new(Arc::clone(&reference.log)),
        EventRing::new(TIMELINE_RING),
    );
    let (sim, end) = checked_run(image, cfg, predecoded, pool, obs, |o| &o.0)?;
    let outcome = match judge(reference, &sim.observer().0, &sim, &end) {
        None => LockstepOutcome::Agree {
            commits: sim.observer().0.matched as u64,
            cycles: sim.stats.cycles,
        },
        Some((commit_index, cycle, kind)) => {
            let events: Vec<PipeEvent> = sim.observer().1.events().copied().collect();
            let from = cycle.saturating_sub(EXCERPT_BEFORE);
            let timeline = render_timeline(&events, from, cycle + EXCERPT_AFTER, sim.geometry());
            LockstepOutcome::Diverge(Box::new(Divergence {
                commit_index,
                cycle,
                kind,
                timeline,
            }))
        }
    };
    pool.put(sim.into_machine());
    Ok(outcome)
}

/// Run the cycle engine over `image` under `cfg` against the
/// functional reference, comparing commit streams, and report the
/// first divergence (or agreement).
///
/// This is [`diff_reference`] with the configuration's watchdog budget,
/// then one cycle run checked commit by commit with a [`PrefixCheck`]
/// and an [`EventRing`]: the run stops at the end of the cycle whose
/// commit decided the verdict, with the pipeline context still in the
/// ring for the excerpt.
///
/// # Errors
///
/// Only harness-level failures (the image does not load) are `Err`;
/// every behavioural disagreement — including one engine erroring where
/// the other ran on — is reported as [`LockstepOutcome::Diverge`].
pub fn run_lockstep(image: &Image, cfg: SimConfig) -> Result<LockstepOutcome, SimError> {
    let mut pool = MachinePool::default();
    let budget = cfg
        .max_insns
        .map_or(cfg.max_cycles, |n| n.min(cfg.max_cycles));
    let reference = diff_reference(image, cfg.fold_policy, budget, None, &mut pool)?;
    report(image, cfg, None, &reference, &mut pool)
}

/// [`run_lockstep`] over a block of configurations, all sharing
/// `reference`'s fold policy and checked against that one reference.
///
/// Each configuration first runs on a pooled [`CycleSim`] with only a
/// [`PrefixCheck`] cursor, stopping at its first mismatched commit. A
/// run that agrees reports [`LockstepOutcome::Agree`] with exactly the
/// counts [`run_lockstep`] computes. A run that does not is run again
/// with an [`EventRing`] beside the cursor, as [`run_lockstep`] runs
/// it, so the divergence report (timeline excerpt included) is
/// bit-identical. Campaigns abort on the first divergence, so the
/// second run costs nothing on the steady-state path.
///
/// `_lanes` and `_bufs` are ignored: configurations run one at a time
/// on `pool`'s machines, as no measured batch width beat that. They
/// stay so existing callers keep compiling.
///
/// # Errors
///
/// Image-load failures only, as in [`run_lockstep`].
///
/// # Panics
///
/// If a config's fold policy differs from the reference table's
/// policy, a config fails [`SimConfig::validate`], or `reference` was
/// built with a step budget below a config's watchdog budget.
pub fn run_lockstep_batched(
    image: &Image,
    cfgs: &[SimConfig],
    predecoded: Option<&Arc<PredecodedImage>>,
    reference: &DiffReference,
    _lanes: usize,
    pool: &mut MachinePool,
    _bufs: &mut LockstepBuffers,
) -> Result<Vec<LockstepOutcome>, SimError> {
    cfgs.iter()
        .map(|&cfg| {
            let check = PrefixCheck::new(Arc::clone(&reference.log));
            let (sim, end) = checked_run(image, cfg, predecoded, pool, check, |c| c)?;
            let outcome = judge(reference, sim.observer(), &sim, &end)
                .is_none()
                .then(|| LockstepOutcome::Agree {
                    commits: sim.observer().matched as u64,
                    cycles: sim.stats.cycles,
                });
            pool.put(sim.into_machine());
            match outcome {
                Some(agree) => Ok(agree),
                None => report(image, cfg, predecoded, reference, pool),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultInjection;
    use crate::observe::NullObserver;
    use crisp_asm::assemble_text;

    fn image(src: &str) -> Image {
        assemble_text(src).unwrap()
    }

    #[test]
    fn lockstep_agrees_across_the_whole_sweep() {
        let img = image(
            "
                mov 0(sp),$0
                mov 4(sp),$0
            top:
                add 4(sp),0(sp)
                cmp.= Accum,$3
                ifjmpy.nt keep
                mov 8(sp),4(sp)
            keep:
                add 0(sp),$1
                cmp.s< 0(sp),$20
                ifjmpy.t top
                halt
            ",
        );
        for cfg in sweep_configs() {
            let out = run_lockstep(&img, cfg).unwrap();
            match out {
                LockstepOutcome::Agree { commits, cycles } => {
                    assert!(commits > 20, "{commits} commits under {cfg:?}");
                    assert!(cycles >= commits);
                }
                LockstepOutcome::Diverge(d) => panic!("diverged under {cfg:?}:\n{d}"),
            }
        }
    }

    #[test]
    fn batched_lockstep_matches_fresh_runs() {
        // Shared tables, a shared reference and recycled machine buffers
        // are pure work-savers: the outcome of every swept config must
        // match a fresh `run_lockstep`, including across different
        // images through the same pool.
        let images = [
            image(
                "
                    mov 0(sp),$0
                top:
                    add 0(sp),$1
                    cmp.s< 0(sp),$9
                    ifjmpy.t top
                    halt
                ",
            ),
            image("call f\nhalt\nf: add 0(sp),$3\nret"),
        ];
        let mut pool = MachinePool::default();
        for img in &images {
            let configs = sweep_configs();
            for group in configs.chunk_by(|a, b| a.fold_policy == b.fold_policy) {
                let table = PredecodedImage::shared(img, group[0].fold_policy).unwrap();
                let reference = diff_reference(
                    img,
                    group[0].fold_policy,
                    group[0].max_cycles,
                    Some(&table),
                    &mut pool,
                )
                .unwrap();
                let batched = run_lockstep_batched(
                    img,
                    group,
                    Some(&table),
                    &reference,
                    1,
                    &mut pool,
                    &mut LockstepBuffers::default(),
                )
                .unwrap();
                for (cfg, pooled) in group.iter().zip(batched) {
                    match (run_lockstep(img, *cfg).unwrap(), pooled) {
                        (
                            LockstepOutcome::Agree { commits, cycles },
                            LockstepOutcome::Agree {
                                commits: pc,
                                cycles: py,
                            },
                        ) => {
                            assert_eq!(commits, pc, "{cfg:?}");
                            assert_eq!(cycles, py, "{cfg:?}");
                        }
                        other => panic!("outcomes differ under {cfg:?}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn unaligned_operands_agree_and_record_masked_addresses() {
        // Satellite proof for the Memory alignment contract: unaligned
        // absolute operands round down identically in both engines, and
        // the commit stream records the *aligned* address.
        let img = image(
            "
                mov *0x10001,$5
                mov 0(sp),*0x10002
                halt
            ",
        );
        assert!(run_lockstep(&img, SimConfig::default()).unwrap().is_agree());
        let mut log = CommitLog::default();
        let run = FunctionalSim::new(Machine::load(&img).unwrap())
            .run_observed(&mut log)
            .unwrap();
        assert_eq!(log.records[0].mem_write, Some((0x1_0000, 5)));
        assert_eq!(run.machine.mem.read_word(0x1_0003).unwrap(), 5);
    }

    #[test]
    fn error_chase_window_edges() {
        // A cycle-engine error agrees only with the same reference error
        // raised fewer than ERROR_CHASE commits past the cycle engine's
        // last; a reference that halts or runs on never agrees.
        let img = image("halt");
        let cycle_err = SimError::Decode {
            pc: 2,
            source: crisp_isa::IsaError::Truncated,
        };
        let sim = CycleSim::new(Machine::load(&img).unwrap(), SimConfig::default());
        let record = CommitRecord {
            pc: 0,
            next_pc: 2,
            branch_pc: None,
            folded: false,
            taken: None,
            accum: 0,
            sp: 0,
            flag: false,
            mem_write: None,
            halted: false,
        };
        let log = CommitLog {
            records: vec![record; ERROR_CHASE],
            cycles: vec![0; ERROR_CHASE],
        };
        for matched in 0..=ERROR_CHASE {
            let mut check = PrefixCheck::new(Arc::new(log.clone()));
            check.matched = matched;
            for (end, agrees) in [
                (ReferenceEnd::Error(cycle_err.clone()), matched > 0),
                (ReferenceEnd::Halted(Machine::load(&img).unwrap()), false),
            ] {
                let reference = DiffReference {
                    log: Arc::new(log.clone()),
                    end,
                };
                let verdict = judge(&reference, &check, &sim, &Err(cycle_err.clone()));
                assert_eq!(verdict.is_none(), agrees, "{matched} matched");
            }
        }
    }

    #[test]
    fn injected_squash_skip_is_caught() {
        // Folded compare, mispredicted at RR: flag is true (Accum == 0)
        // and ifjmpn branches on false, so the predicted-taken branch
        // falls through. The wrong (taken) path stores 9; recovery must
        // squash it. With the squash skipped, that store commits — and
        // the oracle must report the wrong-path commit, not agreement.
        let src = "
            nop
            cmp.= Accum,$0
            ifjmpn.t over
            mov 0(sp),$7
            halt
        over:
            mov 0(sp),$9
            halt
        ";
        let img = image(src);
        let clean = run_lockstep(&img, SimConfig::default()).unwrap();
        assert!(
            clean.is_agree(),
            "{:?}",
            clean.divergence().map(|d| &d.kind)
        );

        let faulty_cfg = SimConfig {
            fault: Some(FaultInjection::SkipOrSquash),
            ..SimConfig::default()
        };
        let faulty = run_lockstep(&img, faulty_cfg).unwrap();
        let d = faulty.divergence().expect("oracle catches the fault");
        match &d.kind {
            DivergenceKind::Mismatch { functional, cycle } => {
                // The cycle engine committed the wrong-path store.
                assert_eq!(cycle.mem_write.map(|(_, v)| v), Some(9));
                assert_ne!(functional, cycle);
            }
            other => panic!("unexpected divergence kind: {other:?}"),
        }
        assert!(
            !d.timeline.is_empty(),
            "divergence report carries a timeline excerpt"
        );
        let shown = format!("{d}");
        assert!(shown.contains("first divergence at commit #"));
    }

    #[test]
    fn cycle_error_against_running_functional_is_a_divergence() {
        // A program whose true path decodes garbage errors identically
        // in both engines — that is agreement, not divergence.
        let img = image("jmp bad\nbad: .word 0x0000B800");
        let out = run_lockstep(&img, SimConfig::default()).unwrap();
        assert!(out.is_agree(), "{:?}", out.divergence().map(|d| &d.kind));
    }

    #[test]
    fn commit_log_ignores_other_events() {
        let mut log = CommitLog::default();
        log.event(PipeEvent::FetchMiss { cycle: 1, pc: 0 });
        assert!(log.records.is_empty());
        // And NullObserver remains zero-cost for lockstep-free runs.
        const { assert!(!NullObserver::ENABLED) };
    }

    #[test]
    fn commit_stream_observers_are_commit_only() {
        const {
            assert!(!PrefixCheck::PIPELINE && PrefixCheck::ENABLED);
            assert!(!CommitLog::PIPELINE && CommitLog::ENABLED);
            assert!(<(CommitLog, EventRing)>::PIPELINE);
            assert!(!<(CommitLog, PrefixCheck)>::PIPELINE);
            assert!(!NullObserver::PIPELINE);
            assert!(EventRing::PIPELINE);
        };
    }
}
