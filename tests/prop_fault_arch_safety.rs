//! Architectural safety of predictor-state faults, plus parity
//! recovery of struck front-end entries.
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
//! The recovery tests pin the parity path on a hot loop: a detected
//! strike on a decoded-cache slot is invalidated and redecoded, one on
//! a BTB entry is scrubbed at the train port, and either way the run
//! retires the fault-free result — a transient flip costs cycles,
//! never correctness.

use crisp::asm::rand_prog::GenProgram;
use crisp::asm::{assemble, Item, Module};
use crisp::isa::{BinOp, Cond, FoldPolicy, Instr, Operand};
use crisp::sim::{
    classify_fault, nth_field, nth_predictor_field, predictor_fault_space, CycleSim, EventRing,
    FaultOutcome, FaultPlan, FaultTarget, HwPredictor, Machine, ParityMode, PipeEvent,
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

/// A detected cache fault invalidates the struck slot: every
/// `ParityError` event is counted in `parity_invalidates`, the PDU
/// redecodes the entry, and the run still retires the fault-free
/// result.
#[test]
fn detected_cache_strike_retires_the_fault_free_result() {
    let image = assemble(&counted_loop()).unwrap();
    let base_cfg = SimConfig {
        parity: ParityMode::DetectInvalidate,
        max_cycles: 100_000,
        ..SimConfig::default()
    };
    let baseline = CycleSim::new(Machine::load(&image).unwrap(), base_cfg)
        .run()
        .unwrap();
    assert!(baseline.halted);
    assert_eq!(
        baseline.stats.parity_invalidates, 0,
        "no fault, no detection"
    );

    let mut detected_runs = 0u64;
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
        assert!(run.halted, "slot {slot}: struck run must still halt");
        assert_eq!(run.machine.accum, baseline.machine.accum, "slot {slot}");
        assert_eq!(run.machine.mem, baseline.machine.mem, "slot {slot}");

        let parity_events = ring
            .into_vec()
            .iter()
            .filter(|e| matches!(e, PipeEvent::ParityError { .. }))
            .count() as u64;
        assert_eq!(parity_events, run.stats.parity_invalidates, "slot {slot}");
        // One strike, at most one detection.
        assert!(run.stats.parity_invalidates <= 1, "slot {slot}");
        detected_runs += run.stats.parity_invalidates;
    }
    assert!(
        detected_runs >= 1,
        "the hot-loop strike must be detected in at least one run"
    );
}

/// A detected BTB strike is scrubbed at the train port and the
/// predictor keeps working — the loop still retires the fault-free
/// result.
#[test]
fn scrubbed_btb_strike_retires_the_fault_free_result() {
    let image = assemble(&counted_loop()).unwrap();
    // A single-set, single-way BTB: any resident-entry strike hits the
    // one way.
    let predictor = HwPredictor::Btb {
        entries: 1,
        ways: 1,
    };
    let base_cfg = SimConfig {
        predictor,
        parity: ParityMode::DetectInvalidate,
        max_cycles: 100_000,
        ..SimConfig::default()
    };
    let baseline = CycleSim::new(Machine::load(&image).unwrap(), base_cfg)
        .run()
        .unwrap();
    assert!(baseline.halted);
    assert_eq!(baseline.stats.parity_scrubs, 0);

    let mut scrubbed_runs = 0u64;
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
        let run = CycleSim::new(Machine::load(&image).unwrap(), cfg)
            .run()
            .unwrap();
        assert!(run.halted, "cycle {cycle}: struck run must still halt");
        assert_eq!(run.machine.accum, baseline.machine.accum, "cycle {cycle}");
        assert_eq!(run.machine.mem, baseline.machine.mem, "cycle {cycle}");
        // One strike, at most one scrub.
        assert!(run.stats.parity_scrubs <= 1, "cycle {cycle}");
        scrubbed_runs += run.stats.parity_scrubs;
    }
    assert!(
        scrubbed_runs >= 1,
        "the hot-loop BTB strike must be scrubbed at least once"
    );
}
