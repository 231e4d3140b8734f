//! Early eject is exact: the campaign kernels stop a cycle-engine run
//! as soon as its verdict is fixed, and that never changes a verdict.
//!
//! `classify_batch` stops a faulted run at its first commit that
//! diverges from the shared reference, or — under parity protection —
//! once the planned fault has struck and been caught.
//! `run_lockstep_batched` stops a sweep run at its first divergent
//! commit. The claims, checked over generated programs:
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
//!    fit the budget is `Err(StepLimit)`, and no other block is.
//! 2. `run_lockstep_batched` returns the same outcome as the
//!    co-stepped `run_lockstep_pooled` oracle on every sweep
//!    configuration.

use crisp::asm::rand_prog::GenProgram;
use crisp::sim::{
    classify_batch, diff_reference, fault_reference, nth_field, nth_pdu_field, nth_predictor_field,
    predictor_fault_space, run_lockstep_batched, run_lockstep_pooled, sweep_configs, CycleSim,
    FaultOutcome, FaultPlan, FaultTarget, HwPredictor, LockstepBuffers, LockstepOutcome, Machine,
    MachinePool, ParityMode, SimConfig, SimError, FAULT_SPACE, PDU_FAULT_SPACE,
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
    /// settle, and forking every case off one fault-free run at its
    /// strike cycle, classifies every case of a block as a full run
    /// does, except a protected watchdog `Hang` that eject settles as
    /// `Masked`. A block is 1–8 plans, each classified protected then
    /// unprotected as `crisp-fault` orders them, with strike cycles at
    /// 0, tied with the previous plan's, past the fault-free halt, or
    /// anywhere in the first 400 cycles. Under a budget too tight for
    /// the fault-free cycle run itself the block is `Err`, and only
    /// then.
    #[test]
    fn eject_classifies_like_a_full_run(
        seed in 0u64..5000,
        p_idx in 0usize..3,
        strikes in prop::collection::vec(
            (0usize..3, 0u8..6, 0u64..400, any::<u32>(), any::<u64>()),
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
            let cycle = match kind {
                0 => 0,
                1 => plans.last().map_or(0, |p| p.cycle),
                2 => halt_cycle + cycle % 8,
                _ => cycle,
            };
            plans.push(plan(FaultTarget::ALL[target_idx], predictor, cycle, slot, site));
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

    /// Claim 2: the prefix-checked lockstep sweep agrees with the
    /// co-stepped lockstep oracle on every sweep configuration.
    #[test]
    fn lockstep_batched_matches_scalar_oracle(seed in 0u64..5000) {
        let image = GenProgram::generate(seed, 6).image().unwrap();
        let mut bufs = LockstepBuffers::default();
        let mut pool = MachinePool::default();
        let configs = sweep_configs();
        for group in configs.chunk_by(|a, b| a.fold_policy == b.fold_policy) {
            let policy = group[0].fold_policy;
            let reference =
                diff_reference(&image, policy, group[0].max_cycles, None, &mut pool).unwrap();
            let batched =
                run_lockstep_batched(&image, group, None, &reference, 1, &mut pool, &mut bufs)
                    .unwrap();
            for (cfg, b) in group.iter().zip(batched) {
                let s = run_lockstep_pooled(&image, *cfg, None, &mut bufs).unwrap();
                match (s, b) {
                    (
                        LockstepOutcome::Agree { commits: sc, cycles: scy },
                        LockstepOutcome::Agree { commits: bc, cycles: bcy },
                    ) => {
                        prop_assert_eq!(sc, bc);
                        prop_assert_eq!(scy, bcy);
                    }
                    (s, b) => {
                        return Err(TestCaseError::fail(format!(
                            "outcome mismatch under {cfg:?}: scalar {s:?} vs batched {b:?}"
                        )))
                    }
                }
            }
        }
    }
}
