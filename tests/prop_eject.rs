//! Early eject is exact: the campaign kernels stop a cycle-engine run
//! as soon as its verdict is fixed, and that never changes a verdict.
//!
//! `classify_batch` stops a faulted run at its first commit that
//! diverges from the shared reference, or — under parity protection —
//! once the planned fault has struck and been caught, or once its state
//! has rejoined the fault-free run's; a strike on an empty cache slot
//! is never run at all. `run_lockstep_batched` stops a sweep run at its
//! first divergent commit. The claims, checked over generated programs:
//!
//! 1. `classify_batch` matches a full-run classifier
//!    (`crisp_bench::classify_full_run`): the faulted
//!    `CycleSim<CommitLog>` runs from cycle 0 to halt, watchdog or
//!    error, and its whole commit stream and final state are compared
//!    after the fact with a full `FunctionalSim` reference. This holds
//!    for blocks of up to eight plans forked off one fault-free run,
//!    across decoded-cache, predictor and PDU targets, parity on and
//!    off, strike cycles at 0, tied, and past the fault-free halt, and
//!    watchdog budgets both roomy and tight. The one allowed
//!    difference is the one `classify_batch` documents: a protected run
//!    whose caught fault would have pushed it past the watchdog is
//!    `Masked`, not `Hang`. A block whose fault-free cycle run does not
//!    fit the budget is `Err(StepLimit)`, and no other block is. Four
//!    pinned cases, found by search, hold the rejoin eject at points
//!    random draws rarely reach: both sides of the shifted watchdog
//!    (`rejoined_case_hangs_past_the_shifted_budget`), a strike that
//!    is still armed while its run is the fault-free one, and state
//!    that differs only in the predictor or in the PDU's PIR pipeline.
//!    Each fails under a mutant of the kernel that drops that part of the
//!    check.
//! 2. `run_lockstep_batched` and `run_lockstep` match a post-hoc
//!    comparison: a whole `FunctionalSim` run (its commit log and its
//!    error) against a whole `CycleSim<CommitLog>` run, compared after
//!    both have ended. The kind, commit index and cycle of the first
//!    divergence agree on every sweep configuration, with tight
//!    watchdog budgets (cycles or instructions), programs that end in
//!    a decode error, the planted squash bug and soft-error strikes.
//!    Together they reach agreement, mismatches, watchdogs, commits
//!    past an erroring reference, and cycle-engine errors on both
//!    sides of the error chase's far edge (the edge itself through one
//!    pinned case, `lockstep_error_chase_far_edge`, since random draws
//!    almost never land on it). (An extra commit after the
//!    reference's halt, and a final-state difference, need a pipeline
//!    bug none of these plants.)

use crisp::asm::rand_prog::GenProgram;
use crisp::asm::Image;
use crisp::isa::FoldPolicy;
use crisp::sim::{
    classify_batch, diff_reference, fault_reference, nth_field, nth_pdu_field, nth_predictor_field,
    predictor_fault_space, run_lockstep, run_lockstep_batched, sweep_configs, CommitLog, CycleSim,
    DivergenceKind, FaultInjection, FaultOutcome, FaultPlan, FaultTarget, FunctionalSim,
    HwPredictor, LockstepBuffers, LockstepOutcome, Machine, MachinePool, ParityMode, RunEnd,
    SimConfig, SimError, FAULT_SPACE, PDU_FAULT_SPACE,
};
use crisp_bench::classify_full_run;
use proptest::prelude::*;

/// A watchdog budget with room for any fault-induced slowdown.
const ROOMY_BUDGET: u64 = 20_000;

/// The fault plan for one generated case, drawn the way `crisp-fault`
/// draws its plans. Predictor strikes need a stateful predictor, which
/// every case here runs with.
fn plan(
    target: FaultTarget,
    predictor: HwPredictor,
    cycle: u64,
    slot: u32,
    site: u64,
) -> FaultPlan {
    let (slot, field) = match target {
        FaultTarget::Cache => (
            slot % SimConfig::default().icache_entries as u32,
            nth_field(site % FAULT_SPACE),
        ),
        FaultTarget::Pdu => (slot % 8, nth_pdu_field(site % PDU_FAULT_SPACE)),
        FaultTarget::Predictor => (
            slot % 1024,
            nth_predictor_field(predictor, site % predictor_fault_space(predictor))
                .expect("stateful predictor enumerates fields"),
        ),
    };
    FaultPlan {
        cycle,
        slot,
        field,
        target,
    }
}

/// Stateful predictors with small geometries, so evictions and
/// aliasing paths get struck too.
const PREDICTORS: [HwPredictor; 3] = [
    HwPredictor::Btb {
        entries: 16,
        ways: 2,
    },
    HwPredictor::Dynamic {
        bits: 2,
        entries: 64,
    },
    HwPredictor::JumpTrace { entries: 8 },
];

/// Whether a plain fault-free `CycleSim` run under `cfg` (its fault
/// plan dropped) hits the watchdog before halting.
fn fault_free_run_hits_watchdog(image: &crisp::asm::Image, cfg: SimConfig) -> bool {
    let cfg = SimConfig {
        fault_plan: None,
        ..cfg
    };
    let run = CycleSim::new(Machine::load(image).unwrap(), cfg)
        .run()
        .expect("fault-free run");
    !run.halted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Claim 1: stopping at the first divergent commit or at parity
    /// settle, forking every case off one fault-free run as its strike
    /// lands, giving a case that struck an empty cache slot or rejoined
    /// the fault-free run the fault-free verdict (shifted onto the
    /// watchdog), classifies every case of a block as a full run does,
    /// except a protected watchdog `Hang` that eject settles as
    /// `Masked`. A block is 1–8 plans, each classified protected then
    /// unprotected as `crisp-fault` orders them, with strike cycles at
    /// 0, tied with the previous plan's, past the fault-free halt, or
    /// anywhere in the first 400 cycles. A quarter of the plans are
    /// drawn where rejoining is common: cache strikes in the second
    /// half of the run, when its loops are warm, and PDU strikes
    /// anywhere in it. Under a budget too tight for the fault-free
    /// cycle run itself the block is `Err`, and only then.
    #[test]
    fn eject_classifies_like_a_full_run(
        seed in 0u64..5000,
        p_idx in 0usize..3,
        strikes in prop::collection::vec(
            (0usize..3, 0u8..8, 0u64..400, any::<u32>(), any::<u64>()),
            1..=8,
        ),
        tight in any::<bool>(),
    ) {
        let image = GenProgram::generate(seed, 8).image().unwrap();
        let predictor = PREDICTORS[p_idx];
        let base = SimConfig { predictor, max_cycles: ROOMY_BUDGET, ..SimConfig::default() };
        // A tight budget sits near the fault-free run's own length, so
        // a fault that costs cycles can push the run into the watchdog,
        // and the fault-free cycle run itself may not fit.
        let mut pool = MachinePool::default();
        let max_cycles = if tight {
            let reference = fault_reference(&image, base, None, None, &mut pool).unwrap();
            reference.log().records.len() as u64 * 2
        } else {
            ROOMY_BUDGET
        };
        let halt_cycle = CycleSim::new(Machine::load(&image).unwrap(), base)
            .run()
            .unwrap()
            .stats
            .cycles;
        let mut plans: Vec<FaultPlan> = Vec::new();
        for (target_idx, kind, cycle, slot, site) in strikes {
            let (target, cycle) = match kind {
                0 => (FaultTarget::ALL[target_idx], 0),
                1 => (FaultTarget::ALL[target_idx], plans.last().map_or(0, |p| p.cycle)),
                2 => (FaultTarget::ALL[target_idx], halt_cycle + cycle % 8),
                6 => (FaultTarget::Cache, halt_cycle / 2 + cycle % (halt_cycle / 2 + 1)),
                7 => (FaultTarget::Pdu, site % halt_cycle),
                _ => (FaultTarget::ALL[target_idx], cycle),
            };
            plans.push(plan(target, predictor, cycle, slot, site));
        }
        let cfgs: Vec<SimConfig> = plans
            .iter()
            .flat_map(|&plan| {
                [ParityMode::DetectInvalidate, ParityMode::Off].map(|parity| SimConfig {
                    parity,
                    fault_plan: Some(plan),
                    max_cycles,
                    ..base
                })
            })
            .collect();
        let reference = fault_reference(&image, cfgs[0], None, None, &mut pool).unwrap();
        let ejected = classify_batch(&image, &cfgs, None, &reference, 1, &mut pool);
        let starved = cfgs.iter().any(|&cfg| fault_free_run_hits_watchdog(&image, cfg));
        let ejected = match ejected {
            Err(e) => {
                prop_assert!(starved, "seed {} budget {}: unexpected {:?}", seed, max_cycles, e);
                prop_assert_eq!(e, SimError::StepLimit { limit: max_cycles });
                return Ok(());
            }
            Ok(outcomes) => {
                prop_assert!(!starved, "seed {} budget {}: starved block classified", seed, max_cycles);
                outcomes
            }
        };
        for (cfg, eject) in cfgs.iter().zip(ejected) {
            let full = classify_full_run(&image, *cfg, None, &mut pool);
            let allowed = cfg.parity == ParityMode::DetectInvalidate
                && full == FaultOutcome::Hang
                && eject == FaultOutcome::Masked;
            prop_assert!(
                eject == full || allowed,
                "seed {} {:?} {:?}: eject {:?} vs full run {:?}",
                seed, cfg.parity, cfg.fault_plan, eject, full
            );
        }
    }

    /// Claim 2: both lockstep entry points give the post-hoc
    /// comparison's verdict on every sweep configuration.
    #[test]
    fn lockstep_batched_matches_scalar_oracle(
        seed in 0u64..5000,
        garbage_end in any::<bool>(),
        squash_bug in any::<bool>(),
        budget in 0u8..6,
        tight_seed in any::<u64>(),
        strike in 0u8..4,
        strike_seed in any::<u64>(),
        slot in any::<u32>(),
        site in any::<u64>(),
    ) {
        lockstep_matches_post_hoc(LockstepCase {
            seed, garbage_end, squash_bug, budget, tight_seed, strike, strike_seed, slot, site,
        })?;
    }
}

/// One draw of claim 2's parameters.
#[derive(Debug, Clone, Copy)]
struct LockstepCase {
    seed: u64,
    garbage_end: bool,
    squash_bug: bool,
    budget: u8,
    tight_seed: u64,
    strike: u8,
    strike_seed: u64,
    slot: u32,
    site: u64,
}

/// Claim 2 for one case: every sweep configuration, through both
/// lockstep entry points, against the post-hoc comparison.
fn lockstep_matches_post_hoc(case: LockstepCase) -> Result<(), TestCaseError> {
    let LockstepCase {
        seed,
        garbage_end,
        squash_bug,
        budget,
        tight_seed,
        strike,
        strike_seed,
        slot,
        site,
    } = case;
    let mut image = GenProgram::generate(seed, 6).image().unwrap();
    if garbage_end {
        // The closing `halt` becomes an unassigned opcode: both
        // engines end in the same decode error, the cycle engine
        // up to a pipeline ahead of retirement.
        *image.parcels.last_mut().unwrap() = 0xB800;
    }
    let mut pool = MachinePool::default();
    // A third of the cases get a tight watchdog budget (in cycles
    // or in instructions), three quarters a cache or PDU strike
    // somewhere in the run.
    let configs: Vec<SimConfig> = sweep_configs()
        .into_iter()
        .map(|cfg| {
            let plain = SimConfig {
                fault: squash_bug.then_some(FaultInjection::SkipOrSquash),
                max_cycles: ROOMY_BUDGET,
                ..cfg
            };
            let end_cycle = run_cycles(&image, plain);
            let tight = 1 + tight_seed % (end_cycle + 16);
            let target = [FaultTarget::Cache, FaultTarget::Pdu][strike as usize % 2];
            SimConfig {
                max_cycles: if budget == 4 { tight } else { ROOMY_BUDGET },
                max_insns: (budget == 5).then_some(tight),
                fault_plan: (strike < 3).then(|| FaultPlan {
                    cycle: strike_seed % (end_cycle + 1),
                    ..plan(target, cfg.predictor, 0, slot, site)
                }),
                ..plain
            }
        })
        .collect();
    for group in configs.chunk_by(|a, b| a.fold_policy == b.fold_policy) {
        let budget = group
            .iter()
            .map(|c| c.max_insns.unwrap_or(c.max_cycles).min(c.max_cycles))
            .max()
            .unwrap();
        let reference =
            diff_reference(&image, group[0].fold_policy, budget, None, &mut pool).unwrap();
        let batched = run_lockstep_batched(
            &image,
            group,
            None,
            &reference,
            1,
            &mut pool,
            &mut LockstepBuffers::default(),
        )
        .unwrap();
        for (cfg, batched) in group.iter().zip(batched) {
            let expected = post_hoc(&image, *cfg);
            let scalar = run_lockstep(&image, *cfg).unwrap();
            for (name, got) in [("batched", &batched), ("scalar", &scalar)] {
                let got = match got {
                    LockstepOutcome::Agree { commits, cycles } => Verdict::Agree {
                        commits: *commits,
                        cycles: *cycles,
                    },
                    LockstepOutcome::Diverge(d) => {
                        Verdict::Diverge(d.commit_index, d.cycle, d.kind.clone())
                    }
                };
                prop_assert_eq!(&got, &expected, "{} seed {} under {:?}", name, seed, cfg);
            }
            if let (LockstepOutcome::Diverge(b), LockstepOutcome::Diverge(s)) = (&batched, &scalar)
            {
                prop_assert_eq!(&b.timeline, &s.timeline);
            }
        }
    }
    Ok(())
}

/// Claim 2 at the error chase's far edge, which random draws almost
/// never reach: on seed 0 with a garbage end, a parity-off strike on
/// cache slot 2 at cycle 100 sends the cycle engine (fold `all`, 8
/// cache entries, static bit) into the decode error with the reference
/// exactly `ERROR_CHASE - 1` commits further on. The run agrees; one
/// commit further and it would not.
#[test]
fn lockstep_error_chase_far_edge() {
    let case = LockstepCase {
        seed: 0,
        garbage_end: true,
        squash_bug: false,
        budget: 0,
        tight_seed: 0,
        strike: 0,
        strike_seed: 100,
        slot: 2,
        site: 5,
    };
    // The configuration that reaches the edge, as claim 2 builds it
    // (the fault-free run takes 123 cycles, so the strike is at 100).
    let mut image = GenProgram::generate(case.seed, 6).image().unwrap();
    *image.parcels.last_mut().unwrap() = 0xB800;
    let cfg = SimConfig {
        fold_policy: FoldPolicy::All,
        icache_entries: 8,
        max_cycles: ROOMY_BUDGET,
        fault_plan: Some(FaultPlan {
            cycle: 100,
            ..plan(
                FaultTarget::Cache,
                HwPredictor::StaticBit,
                0,
                case.slot,
                case.site,
            )
        }),
        ..SimConfig::default()
    };
    let mut flog = CommitLog::default();
    let func = FunctionalSim::with_policy(Machine::load(&image).unwrap(), cfg.fold_policy)
        .run_observed(&mut flog);
    let mut sim =
        CycleSim::with_observer(Machine::load(&image).unwrap(), cfg, CommitLog::default());
    let end = sim.run_until(|_| false);
    let matched = sim.observer().records.len();
    assert!(matches!(end, Err(SimError::Decode { .. })), "{end:?}");
    assert_eq!(end.err(), func.err());
    assert_eq!(flog.records[..matched], sim.observer().records[..]);
    assert_eq!(flog.records.len(), matched + ERROR_CHASE - 1);
    lockstep_matches_post_hoc(case).unwrap();
}

/// Claim 1's verdict for one unprotected case: `classify_batch` on a
/// block of that case alone, held to the full run's and to `expected`.
fn eject_and_full_run_agree(seed: u64, plan: FaultPlan, max_cycles: u64, expected: FaultOutcome) {
    let image = GenProgram::generate(seed, 8).image().unwrap();
    let cfg = SimConfig {
        predictor: PREDICTORS[0],
        parity: ParityMode::Off,
        max_cycles,
        fault_plan: Some(plan),
        ..SimConfig::default()
    };
    let mut pool = MachinePool::default();
    let reference = fault_reference(&image, cfg, None, None, &mut pool).unwrap();
    let ejected = classify_batch(&image, &[cfg], None, &reference, 1, &mut pool).unwrap();
    assert_eq!(classify_full_run(&image, cfg, None, &mut pool), expected);
    assert_eq!(ejected, [expected], "budget {max_cycles}");
}

/// Claim 1 on both sides of the shifted watchdog: on seed 10 (fault-free
/// halt at cycle 216) an unprotected strike on tag bit 31 of cache slot
/// 16 at cycle 164 costs 3 cycles and then rejoins the fault-free run,
/// found by search. It halts at cycle 219, so a 219-cycle budget masks
/// it and a 218-cycle one hangs it, although the fault-free run fits
/// both.
#[test]
fn rejoined_case_hangs_past_the_shifted_budget() {
    let plan = FaultPlan {
        cycle: 164,
        slot: 16,
        field: nth_field(180),
        target: FaultTarget::Cache,
    };
    assert_eq!(plan.field.to_string(), "tag bit 31");
    eject_and_full_run_agree(10, plan, 219, FaultOutcome::Masked);
    eject_and_full_run_agree(10, plan, 218, FaultOutcome::Hang);
}

/// Claim 1 for a strike that stays armed while its run is the
/// fault-free one: on seed 52 a PDU strike on Next-PC bit 31 armed at
/// cycle 57 waits for the PIR pipeline to fill, found by search. A
/// kernel that compared the case with the fault-free run before the
/// strike fired would find them equal and call it masked; the strike
/// then lands and diverts control flow.
#[test]
fn armed_strike_does_not_rejoin_before_it_fires() {
    let plan = FaultPlan {
        cycle: 57,
        slot: 3,
        field: nth_pdu_field(33),
        target: FaultTarget::Pdu,
    };
    assert_eq!(plan.field.to_string(), "next-pc bit 33");
    eject_and_full_run_agree(52, plan, ROOMY_BUDGET, FaultOutcome::ControlDivergence);
}

/// Claim 1 for a strike whose only lasting trace is predictor state: on
/// seed 11 (fault-free halt at cycle 1709) an unprotected strike on
/// BTB tag bit 20 at cycle 11 leaves the program's state otherwise the
/// fault-free run's, and costs 3 cycles of worse predictions, found by
/// search. A kernel that left the predictor out of the comparison would
/// rejoin it at no cost and miss the hang one cycle short of its halt.
#[test]
fn predictor_state_keeps_a_case_from_rejoining() {
    let predictor = PREDICTORS[0];
    let plan = FaultPlan {
        cycle: 11,
        slot: 11,
        field: nth_predictor_field(predictor, 20).unwrap(),
        target: FaultTarget::Predictor,
    };
    assert_eq!(plan.field.to_string(), "btb-tag bit 20");
    eject_and_full_run_agree(11, plan, 1712, FaultOutcome::Masked);
    eject_and_full_run_agree(11, plan, 1711, FaultOutcome::Hang);
}

/// Claim 1 for an entry corrupted in the PDU's PIR pipeline: on seed 193
/// (8 blocks, `btb` predictor, parity off) this block of eight strikes,
/// alternately PDU and cache, has its third case checked against the
/// fault-free run while its corrupted Next-PC is still in flight, found
/// by search. Everything else already matches, so a kernel that left
/// the PIR pipeline out of the comparison would call it masked; the
/// entry reaches the cache and diverts control flow.
#[test]
fn in_flight_pdu_entry_keeps_a_case_from_rejoining() {
    let image = GenProgram::generate(193, 8).image().unwrap();
    let predictor = HwPredictor::Btb {
        entries: 128,
        ways: 4,
    };
    let base = SimConfig {
        predictor,
        parity: ParityMode::Off,
        max_cycles: ROOMY_BUDGET,
        ..SimConfig::default()
    };
    let cfgs: Vec<SimConfig> = (0..8u64)
        .map(|k| {
            let target = [FaultTarget::Pdu, FaultTarget::Cache][k as usize % 2];
            let cycle = (k * 37 + 193 * 11) % 300;
            let strike = plan(
                target,
                predictor,
                cycle,
                (k * 7 + 193) as u32,
                k * 13 + 193 * 5,
            );
            SimConfig {
                fault_plan: Some(strike),
                ..base
            }
        })
        .collect();
    let mut pool = MachinePool::default();
    let reference = fault_reference(&image, base, None, None, &mut pool).unwrap();
    let ejected = classify_batch(&image, &cfgs, None, &reference, 1, &mut pool).unwrap();
    let full: Vec<FaultOutcome> = cfgs
        .iter()
        .map(|&cfg| classify_full_run(&image, cfg, None, &mut pool))
        .collect();
    assert_eq!(ejected, full);
    assert_eq!(full[2], FaultOutcome::ControlDivergence);
}

/// Cycles a whole run of `cfg` over `image` takes, however it ends.
fn run_cycles(image: &Image, cfg: SimConfig) -> u64 {
    let mut sim = CycleSim::new(Machine::load(image).unwrap(), cfg);
    let _ = sim.run_until(|_| false);
    sim.stats.cycles
}

/// A lockstep verdict without its report text.
#[derive(Debug, PartialEq)]
enum Verdict {
    Agree { commits: u64, cycles: u64 },
    Diverge(usize, u64, DivergenceKind),
}

/// How many commits past the cycle engine's last the functional
/// engine may raise the same error and still agree: the cycle engine
/// fetches, and fails to decode, up to a pipeline ahead of retirement.
const ERROR_CHASE: usize = 8;

/// The lockstep verdict found after the fact: both engines run to
/// their ends, each logging every commit, and the logs and final
/// states are then compared.
fn post_hoc(image: &Image, cfg: SimConfig) -> Verdict {
    let mut flog = CommitLog::default();
    let func = FunctionalSim::with_policy(Machine::load(image).unwrap(), cfg.fold_policy)
        .run_observed(&mut flog);
    let mut sim = CycleSim::with_observer(Machine::load(image).unwrap(), cfg, CommitLog::default());
    let end = sim.run_until(|_| false);
    let (f, c) = (&flog.records, &sim.observer().records);
    for (i, rec) in c.iter().enumerate() {
        let at = sim.observer().cycles[i];
        let kind = match (f.get(i), &func) {
            (Some(r), _) if r == rec => continue,
            (Some(r), _) => DivergenceKind::Mismatch {
                functional: *r,
                cycle: *rec,
            },
            (None, Err(e)) => DivergenceKind::Error {
                functional: Some(e.clone()),
                cycle: None,
            },
            (None, Ok(_)) => DivergenceKind::ExtraCommit { cycle: *rec },
        };
        return Verdict::Diverge(i, at, kind);
    }
    let (m, cycles) = (c.len(), sim.stats.cycles);
    let kind = match end {
        Ok(RunEnd::Watchdog) => DivergenceKind::Watchdog { commits: m as u64 },
        Err(cycle_err) => {
            let functional = match &func {
                Err(e) if f.len() < m + ERROR_CHASE => Some(e.clone()),
                _ => None,
            };
            if functional.as_ref() == Some(&cycle_err) {
                return Verdict::Agree {
                    commits: m as u64,
                    cycles,
                };
            }
            DivergenceKind::Error {
                functional,
                cycle: Some(cycle_err),
            }
        }
        Ok(_) => {
            let (a, b) = (sim.machine(), func.as_ref().map(|r| &r.machine));
            match b {
                Ok(b)
                    if f.len() == m
                        && (a.accum, a.sp, a.psw.flag, a.halted)
                            == (b.accum, b.sp, b.psw.flag, b.halted)
                        && a.mem == b.mem =>
                {
                    return Verdict::Agree {
                        commits: m as u64,
                        cycles,
                    };
                }
                _ => DivergenceKind::FinalState,
            }
        }
    };
    Verdict::Diverge(m, cycles, kind)
}
