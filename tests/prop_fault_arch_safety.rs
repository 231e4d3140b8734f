//! Architectural safety of predictor-state faults, plus graceful
//! degradation of parity-protected front-end ways.
//!
//! The predictor contract says a prediction — right or wrong — only
//! ever costs cycles: the Next-PC guess is checked at resolve and a
//! bad one is squashed before retirement. A particle strike on
//! predictor state (BTB tags, direction counters, valid bits,
//! saturating-counter bits, jump-trace entries) therefore produces at
//! worst a *wrong prediction*, which the existing recovery machinery
//! already handles. The enforced property: for every predictor
//! variant, fold policy, pipeline depth and parity mode, every
//! single-bit predictor-state fault is `Masked` — the cycle engine's
//! commit stream stays bit-identical to the fault-free functional
//! oracle.
//!
//! The degradation properties pin the `DegradePolicy` path: with a
//! one-strike policy, a detected parity error disables the struck
//! cache slot (or BTB way), the `degraded_ways` stat goes nonzero, and
//! the run still retires the fault-free result — a flaky bit costs
//! performance, never correctness.

use crisp::asm::rand_prog::GenProgram;
use crisp::asm::{assemble, Item, Module};
use crisp::isa::{BinOp, Cond, FoldPolicy, Instr, Operand};
use crisp::sim::{
    classify_fault, nth_field, nth_predictor_field, predictor_fault_space, CycleSim, DegradePolicy,
    EventRing, FaultOutcome, FaultPlan, FaultTarget, HwPredictor, Machine, ParityMode, PipeEvent,
    PipelineGeometry, SimConfig,
};
use proptest::prelude::*;

/// The stateful predictor variants, with deliberately tiny geometries
/// so aliasing, eviction and occupancy-wrap paths get struck too.
fn predictors() -> Vec<HwPredictor> {
    vec![
        HwPredictor::Dynamic {
            bits: 2,
            entries: 64,
        },
        HwPredictor::Dynamic {
            bits: 1,
            entries: 8,
        },
        HwPredictor::Btb {
            entries: 128,
            ways: 4,
        },
        HwPredictor::Btb {
            entries: 4,
            ways: 1,
        },
        HwPredictor::JumpTrace { entries: 8 },
        HwPredictor::JumpTrace { entries: 2 },
    ]
}

const FOLD_POLICIES: [FoldPolicy; 4] = [
    FoldPolicy::None,
    FoldPolicy::Host1,
    FoldPolicy::Host13,
    FoldPolicy::All,
];

const DEPTHS: [usize; 3] = [2, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: a predictor-state fault may change
    /// cycle counts but never committed architectural state, under
    /// either parity mode, any fold policy, any EU depth and every
    /// enumerable fault site of every stateful predictor.
    #[test]
    fn predictor_faults_never_change_architectural_state(
        seed in 0u64..5000,
        cycle in 0u64..400,
        slot in any::<u32>(),
        p_idx in 0usize..6,
        fold_idx in 0usize..4,
        depth_idx in 0usize..3,
        parity_on in any::<bool>(),
        site in any::<u64>(),
    ) {
        let predictor = predictors()[p_idx];
        let space = predictor_fault_space(predictor);
        prop_assert!(space > 0, "every sampled predictor has state");
        let field = nth_predictor_field(predictor, site % space)
            .expect("stateful predictor enumerates fields");
        let image = GenProgram::generate(seed, 8).image().unwrap();
        let cfg = SimConfig {
            fold_policy: FOLD_POLICIES[fold_idx],
            geometry: PipelineGeometry::new(DEPTHS[depth_idx]),
            predictor,
            parity: if parity_on {
                ParityMode::DetectInvalidate
            } else {
                ParityMode::Off
            },
            fault_plan: Some(FaultPlan {
                cycle,
                slot,
                field,
                target: FaultTarget::Predictor,
            }),
            max_cycles: 200_000,
            ..SimConfig::default()
        };
        let outcome = classify_fault(&image, cfg).unwrap();
        prop_assert_eq!(
            outcome, FaultOutcome::Masked,
            "predictor fault {:?} on {:?} leaked into architectural state (seed {})",
            field, predictor, seed
        );
    }

    /// Degradation composes with the invariant: a one-strike policy on
    /// top of parity protection may disable ways mid-run, and the
    /// commit stream still matches the oracle exactly.
    #[test]
    fn degraded_runs_stay_architecturally_correct(
        seed in 0u64..5000,
        cycle in 0u64..400,
        slot in 0u32..32,
        p_idx in 0usize..6,
        site in any::<u64>(),
        strike_predictor in any::<bool>(),
    ) {
        let predictor = predictors()[p_idx];
        let (field, target) = if strike_predictor {
            let space = predictor_fault_space(predictor);
            (
                nth_predictor_field(predictor, site % space).unwrap(),
                FaultTarget::Predictor,
            )
        } else {
            (
                crisp::sim::nth_field(site),
                FaultTarget::Cache,
            )
        };
        let image = GenProgram::generate(seed, 8).image().unwrap();
        let cfg = SimConfig {
            predictor,
            parity: ParityMode::DetectInvalidate,
            degrade: Some(DegradePolicy { parity_limit: 1 }),
            fault_plan: Some(FaultPlan { cycle, slot, field, target }),
            max_cycles: 200_000,
            ..SimConfig::default()
        };
        let outcome = classify_fault(&image, cfg).unwrap();
        prop_assert_eq!(
            outcome, FaultOutcome::Masked,
            "{:?} fault {:?} escaped under a one-strike degrade policy (seed {})",
            target, field, seed
        );
    }
}

/// A 50-iteration counted loop: hot decoded entries re-fetched every
/// iteration, so a corrupted one is detected on the next trip around.
fn counted_loop() -> Module {
    let mut m = Module::new();
    m.push(Item::Instr(Instr::Op2 {
        op: BinOp::Mov,
        dst: Operand::SpOff(0),
        src: Operand::Imm(0),
    }));
    m.push(Item::Label("top".into()));
    m.push(Item::Instr(Instr::Op2 {
        op: BinOp::Add,
        dst: Operand::SpOff(0),
        src: Operand::Imm(1),
    }));
    m.push(Item::Instr(Instr::Cmp {
        cond: Cond::LtS,
        a: Operand::SpOff(0),
        b: Operand::Imm(50),
    }));
    m.push(Item::IfJmpTo {
        on_true: true,
        predict_taken: true,
        label: "top".into(),
    });
    m.push(Item::Instr(Instr::Halt));
    m
}

/// A detected cache fault under a one-strike policy disables the
/// struck slot: `degraded_ways` goes nonzero, the `Degrade` event is
/// emitted (and reconciles with the counter), the partner slot takes
/// over, and the run still retires the fault-free result.
#[test]
fn one_strike_policy_disables_the_struck_cache_slot() {
    let image = assemble(&counted_loop()).unwrap();
    let base_cfg = SimConfig {
        parity: ParityMode::DetectInvalidate,
        degrade: Some(DegradePolicy { parity_limit: 1 }),
        max_cycles: 100_000,
        ..SimConfig::default()
    };
    let baseline = CycleSim::new(Machine::load(&image).unwrap(), base_cfg)
        .run()
        .unwrap();
    assert!(baseline.halted);
    assert_eq!(baseline.stats.degraded_ways, 0, "no fault, no degradation");

    let mut degraded_runs = 0u64;
    for slot in 0..32u32 {
        let cfg = SimConfig {
            fault_plan: Some(FaultPlan {
                cycle: 60,
                slot,
                field: nth_field(7), // a Next-PC payload bit
                target: FaultTarget::Cache,
            }),
            ..base_cfg
        };
        let sim =
            CycleSim::with_observer(Machine::load(&image).unwrap(), cfg, EventRing::new(1 << 16));
        let (run, ring) = sim.run_observed().unwrap();
        assert!(run.halted, "slot {slot}: degraded run must still halt");
        assert_eq!(run.machine.accum, baseline.machine.accum, "slot {slot}");
        assert_eq!(run.machine.mem, baseline.machine.mem, "slot {slot}");

        let degrade_events = ring
            .into_vec()
            .iter()
            .filter(|e| matches!(e, PipeEvent::Degrade { .. }))
            .count() as u64;
        assert_eq!(degrade_events, run.stats.degraded_ways, "slot {slot}");
        if run.stats.parity_invalidates > 0 {
            // One strike, one disabled slot.
            assert_eq!(run.stats.degraded_ways, 1, "slot {slot}");
            degraded_runs += 1;
        } else {
            assert_eq!(run.stats.degraded_ways, 0, "slot {slot}");
        }
    }
    assert!(
        degraded_runs >= 1,
        "the hot-loop strike must disable a slot in at least one run"
    );
}

/// A detected BTB parity scrub under a one-strike policy disables the
/// struck way and the predictor keeps working (or falls back to the
/// static bit when fully degraded) — the loop still retires the
/// fault-free result.
#[test]
fn one_strike_policy_disables_the_struck_btb_way() {
    let image = assemble(&counted_loop()).unwrap();
    // A single-set, single-way BTB: any resident-entry strike hits the
    // one way, and disabling it forces the static-bit fallback.
    let predictor = HwPredictor::Btb {
        entries: 1,
        ways: 1,
    };
    let base_cfg = SimConfig {
        predictor,
        parity: ParityMode::DetectInvalidate,
        degrade: Some(DegradePolicy { parity_limit: 1 }),
        max_cycles: 100_000,
        ..SimConfig::default()
    };
    let baseline = CycleSim::new(Machine::load(&image).unwrap(), base_cfg)
        .run()
        .unwrap();
    assert!(baseline.halted);
    assert_eq!(baseline.stats.parity_scrubs, 0);
    assert_eq!(baseline.stats.degraded_ways, 0);

    let mut degraded_runs = 0u64;
    for cycle in [40u64, 60, 80, 100, 120] {
        let cfg = SimConfig {
            fault_plan: Some(FaultPlan {
                cycle,
                slot: 0,
                field: nth_predictor_field(base_cfg.predictor, 5).unwrap(), // BTB tag bit 5
                target: FaultTarget::Predictor,
            }),
            ..base_cfg
        };
        let sim =
            CycleSim::with_observer(Machine::load(&image).unwrap(), cfg, EventRing::new(1 << 16));
        let (run, ring) = sim.run_observed().unwrap();
        assert!(run.halted, "cycle {cycle}: degraded run must still halt");
        assert_eq!(run.machine.accum, baseline.machine.accum, "cycle {cycle}");
        assert_eq!(run.machine.mem, baseline.machine.mem, "cycle {cycle}");

        let degrade_events = ring
            .into_vec()
            .iter()
            .filter(|e| matches!(e, PipeEvent::Degrade { .. }))
            .count() as u64;
        assert_eq!(degrade_events, run.stats.degraded_ways, "cycle {cycle}");
        if run.stats.parity_scrubs > 0 {
            assert_eq!(run.stats.degraded_ways, 1, "cycle {cycle}");
            degraded_runs += 1;
        }
    }
    assert!(
        degraded_runs >= 1,
        "the hot-loop BTB strike must scrub and disable the way at least once"
    );
}
