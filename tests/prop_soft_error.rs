//! Property tests for the soft-error model and the parity-protected
//! decoded cache.
//!
//! The load-bearing claims, checked over randomized entries, programs
//! and fault plans:
//!
//! 1. the parity word detects *every* single-bit flip of a canonical
//!    decoded-entry image (the whole fault space maps to real bits).
//!    Each flip changes `parity32` in exactly one column, so the cycle
//!    engine keeps only the flipped columns per entry (its parity
//!    delta) instead of a stored and a live word;
//! 2. under `ParityMode::DetectInvalidate` every injected single-bit
//!    fault is recovered — the cycle engine's commit log still matches
//!    the fault-free functional reference (outcome `Masked`);
//! 3. under `ParityMode::Off` classification is total: every fault
//!    buckets into masked / SDC / control-divergence / hang;
//! 4. a detected fault costs exactly one invalidate plus one redecode
//!    refill, reconciled across cache counters and observer events;
//! 5. PDU fold-slot fault sites are parity-visible and a corrupted
//!    in-flight entry is dropped at the fill port — `DetectInvalidate`
//!    masks 100% of PDU-slot strikes.

use crisp::asm::rand_prog::GenProgram;
use crisp::asm::{assemble, Item, Module};
use crisp::isa::{BinOp, Cond, Instr, Operand};
use crisp::sim::{
    classify_fault, decode_entry, entry_bits, nth_field, nth_pdu_field, parity32, CycleSim,
    EventRing, FaultOutcome, FaultPlan, FaultTarget, Machine, ParityMode, PipeEvent, SimConfig,
    FAULT_SPACE, PDU_FAULT_SPACE,
};
use proptest::prelude::*;

/// Faults are injected into live cache state, so the plan space only
/// needs to cover plausible strike points.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (0u64..1500, 0u32..32, 0u64..FAULT_SPACE).prop_map(|(cycle, slot, i)| FaultPlan {
        cycle,
        slot,
        field: nth_field(i),
        target: FaultTarget::Cache,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim 1: flipping any single bit of a canonical entry image
    /// changes its parity word in exactly the bit's column, for every
    /// field in the fault space.
    #[test]
    fn parity_detects_every_single_bit_flip(
        words in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        // Canonicalise: decode the random words into a real entry and
        // re-encode, so the image is one the cache could actually hold.
        let d = decode_entry([words.0, words.1, words.2, words.3]);
        let bits = entry_bits(&d);
        prop_assert_eq!(decode_entry(bits), d, "canonical images round-trip");
        let clean = parity32(&bits);
        for i in 0..FAULT_SPACE {
            let field = nth_field(i);
            let Some((word, bit)) = field.bit() else {
                // The valid bit lives outside the entry image; its
                // "flip" is modelled as slot invalidation instead.
                prop_assert_eq!(field.name(), "valid");
                continue;
            };
            let mut flipped = bits;
            flipped[word] ^= 1u64 << bit;
            prop_assert_eq!(
                parity32(&flipped) ^ clean,
                1 << (bit % 32),
                "flip of {:?} (word {} bit {}) must strike its own column", field, word, bit
            );
        }
    }

    /// Claim 2: DetectInvalidate always reconverges to the fault-free
    /// commit log, whatever program and wherever the fault strikes.
    #[test]
    fn detect_invalidate_always_reconverges(seed in 0u64..5000, plan in arb_plan()) {
        let image = GenProgram::generate(seed, 8).image().unwrap();
        let cfg = SimConfig {
            parity: ParityMode::DetectInvalidate,
            fault_plan: Some(plan),
            max_cycles: 200_000,
            ..SimConfig::default()
        };
        let outcome = classify_fault(&image, cfg).unwrap();
        prop_assert_eq!(
            outcome, FaultOutcome::Masked,
            "fault {:?} escaped parity recovery on seed {}", plan, seed
        );
    }

    /// Claim 5 (whole-front-end model): every PDU fold-slot fault site
    /// maps into the canonical entry image — so the cache's parity word
    /// covers it — and under `DetectInvalidate` a strike on an
    /// in-flight PIR entry is dropped at the fill port before it can
    /// pollute the cache: classification is always `Masked`.
    #[test]
    fn pdu_slot_faults_are_always_masked_under_parity(
        seed in 0u64..5000,
        cycle in 0u64..300,
        slot in 0u32..8,
        i in 0u64..PDU_FAULT_SPACE,
    ) {
        let field = nth_pdu_field(i);
        prop_assert!(field.bit().is_some(), "{:?} must be parity-visible", field);
        let image = GenProgram::generate(seed, 8).image().unwrap();
        let cfg = SimConfig {
            parity: ParityMode::DetectInvalidate,
            fault_plan: Some(FaultPlan {
                cycle,
                slot,
                field,
                target: FaultTarget::Pdu,
            }),
            max_cycles: 200_000,
            ..SimConfig::default()
        };
        let outcome = classify_fault(&image, cfg).unwrap();
        prop_assert_eq!(
            outcome, FaultOutcome::Masked,
            "PDU-slot fault {:?} escaped the fill-port parity check on seed {}", field, seed
        );
    }

    /// Claim 3: with parity off, every fault classifies cleanly (the
    /// harness never errors on a halting program, never hangs the
    /// host — hangs are caught by the watchdog and bucketed).
    #[test]
    fn unprotected_classification_is_total(seed in 0u64..5000, plan in arb_plan()) {
        let image = GenProgram::generate(seed, 8).image().unwrap();
        let cfg = SimConfig {
            parity: ParityMode::Off,
            fault_plan: Some(plan),
            max_cycles: 200_000,
            ..SimConfig::default()
        };
        let outcome = classify_fault(&image, cfg).unwrap();
        prop_assert!(FaultOutcome::ALL.contains(&outcome));
    }
}

/// A 50-iteration counted loop: a handful of hot decoded entries that
/// are re-fetched every iteration, so a corrupted one is detected on
/// the next trip around.
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

/// Claim 4: recovery from a detected fault costs exactly one
/// invalidate and one redecode refill — no double-counting, no silent
/// extra traffic — and the counters reconcile with the event stream.
#[test]
fn recovery_costs_one_invalidate_and_one_refill() {
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
    let base_fills = baseline.stats.cache_inserts + baseline.stats.cache_refills;

    let mut detected = 0u64;
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
        assert!(run.halted, "slot {slot}: run must still halt");
        // Recovery is architecturally invisible: same final state.
        assert_eq!(run.machine.accum, baseline.machine.accum, "slot {slot}");
        assert_eq!(run.machine.mem, baseline.machine.mem, "slot {slot}");

        // Counters reconcile with the typed event stream.
        let events = ring.into_vec();
        let injects = events
            .iter()
            .filter(|e| matches!(e, PipeEvent::FaultInject { .. }))
            .count() as u64;
        let parity_errors = events
            .iter()
            .filter(|e| matches!(e, PipeEvent::ParityError { .. }))
            .count() as u64;
        assert_eq!(injects, run.stats.faults_injected, "slot {slot}");
        assert_eq!(parity_errors, run.stats.parity_invalidates, "slot {slot}");
        assert!(run.stats.parity_invalidates <= run.stats.faults_injected);

        // The recovery bill: one invalidate, one extra fill (the
        // redecode), nothing else. Undetected strikes (the slot was
        // empty, or the corpse was never re-fetched) change nothing.
        let fills = run.stats.cache_inserts + run.stats.cache_refills;
        assert_eq!(
            fills,
            base_fills + run.stats.parity_invalidates,
            "slot {slot}: exactly one redecode refill per invalidate"
        );
        if run.stats.parity_invalidates > 0 {
            detected += 1;
            assert_eq!(run.stats.parity_invalidates, 1, "slot {slot}");
            assert!(
                run.stats.cycles > baseline.stats.cycles,
                "slot {slot}: recovery must cost stall cycles"
            );
        } else {
            assert_eq!(fills, base_fills, "slot {slot}");
        }
    }
    assert!(
        detected >= 1,
        "the hot-loop strike must be detected in at least one slot"
    );
}
