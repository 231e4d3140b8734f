//! Property tests for the threaded-code tier: block-translated
//! execution is **bit-identical** to the one-entry interpreter.
//!
//! The claim, checked over both generated corpora (random assembly
//! programs and random mini-C programs): registers, memory, halt
//! disposition and architectural statistics all match, under every
//! fold policy, including runs that end in the watchdog mid-block.
//!
//! The comparison itself lives in `crisp::sim::verify_threaded_pooled`:
//! one interpreter run and one run of the tier's lowered and melded
//! micro-op path, the one `crisp-run --engine threaded` ships (the
//! tier has no observed path). These properties drive it across the
//! corpus space, and over the fixed workloads, whose loops exercise the
//! melded pairs the random corpora rarely or never form. A last
//! property checks that handing `fault_reference` a translated table
//! changes no fault verdict.

use crisp::asm::rand_prog::GenProgram;
use crisp::asm::Image;
use crisp::cc::{compile_crisp, generate_c, CompileOptions};
use crisp::isa::FoldPolicy;
use crisp::sim::{
    classify_batch, fault_reference, nth_field, FaultOutcome, FaultPlan, FaultTarget,
    LockstepBuffers, MachinePool, ParityMode, PredecodedImage, SimConfig, SimError,
    TranslatedImage, FAULT_SPACE,
};
use crisp::workloads::{dispatch_workload, figure3_with_count, fsm_workload, sort_workload};
use proptest::prelude::*;
use std::sync::Arc;

const POLICIES: [FoldPolicy; 4] = [
    FoldPolicy::None,
    FoldPolicy::Host1,
    FoldPolicy::Host13,
    FoldPolicy::All,
];

/// Faults strike live front-end state; the plan space covers plausible
/// strike points (cycle windows long enough to hit steady state).
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (0u64..1500, 0u32..32, 0u64..FAULT_SPACE).prop_map(|(cycle, slot, i)| FaultPlan {
        cycle,
        slot,
        field: nth_field(i),
        target: FaultTarget::Cache,
    })
}

/// Classify one case the way `crisp-fault` does: the fault-free
/// reference (`translated`, when given, is passed through), then the
/// faulted run against it.
fn classify(
    image: &Image,
    cfg: SimConfig,
    predecoded: &Arc<PredecodedImage>,
    translated: Option<&Arc<TranslatedImage>>,
    pool: &mut MachinePool,
) -> Result<FaultOutcome, SimError> {
    let reference = fault_reference(image, cfg, Some(predecoded), translated, pool)?;
    let outcome = classify_batch(image, &[cfg], Some(predecoded), &reference, 1, pool);
    pool.put(reference.into_machine());
    Ok(outcome?[0])
}

/// The fixed workloads under every fold policy. Figure 3 runs one
/// `Op3Cmp` and one `Op2SpMov` meld per iteration; over 300 random
/// assembly and 100 random mini-C programs `Op2SpMov` ran 0 times.
#[test]
fn threaded_matches_interp_on_fixed_workloads() {
    let sources = [
        ("figure3", figure3_with_count(64)),
        ("dispatch", dispatch_workload().source.to_string()),
        ("sort", sort_workload().source.to_string()),
        ("fsm", fsm_workload().source.to_string()),
    ];
    let mut bufs = LockstepBuffers::default();
    for (name, source) in sources {
        let image = compile_crisp(&source, &CompileOptions::default()).unwrap();
        for policy in POLICIES {
            let table = TranslatedImage::shared(&image, policy).unwrap();
            let d =
                crisp::sim::verify_threaded_pooled(&image, &table, 2_000_000, &mut bufs).unwrap();
            assert!(d.is_none(), "{name} under {policy:?}: {}", d.unwrap());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random assembly programs (the `crisp-diff`/`crisp-fault` corpus
    /// generator: calls, indirect jumps, random branches) run
    /// identically on both tiers under every fold policy.
    #[test]
    fn threaded_matches_interp_on_random_asm(seed in 0u64..5000) {
        let image = GenProgram::generate(seed, 8).image().unwrap();
        let mut bufs = LockstepBuffers::default();
        for policy in POLICIES {
            let table = TranslatedImage::shared(&image, policy).unwrap();
            let d = crisp::sim::verify_threaded_pooled(&image, &table, 2_000_000, &mut bufs)
                .unwrap();
            prop_assert!(d.is_none(), "seed {} under {:?}: {}", seed, policy, d.unwrap());
        }
    }

    /// Random mini-C programs (structured control flow: loops,
    /// conditionals, dense switches lowering to indirect jump tables)
    /// run identically on both tiers.
    #[test]
    fn threaded_matches_interp_on_random_c(seed in 0u64..5000) {
        let source = generate_c(seed).source;
        let image = compile_crisp(&source, &CompileOptions::default()).unwrap();
        let mut bufs = LockstepBuffers::default();
        for policy in [FoldPolicy::Host13, FoldPolicy::All] {
            let table = TranslatedImage::shared(&image, policy).unwrap();
            let d = crisp::sim::verify_threaded_pooled(&image, &table, 2_000_000, &mut bufs)
                .unwrap();
            prop_assert!(d.is_none(), "seed {} under {:?}: {}", seed, policy, d.unwrap());
        }
    }

    /// Watchdog exhaustion mid-block: whatever the step budget — zero,
    /// one, mid-block, past the end — the threaded tier stops at
    /// exactly the same entry as the interpreter, with identical
    /// partial state and statistics.
    #[test]
    fn threaded_watchdog_budgets_are_bit_identical(
        seed in 0u64..5000,
        limit in 0u64..400,
    ) {
        let image = GenProgram::generate(seed, 8).image().unwrap();
        let table = TranslatedImage::shared(&image, SimConfig::default().fold_policy).unwrap();
        let mut bufs = LockstepBuffers::default();
        let d = crisp::sim::verify_threaded_pooled(&image, &table, limit, &mut bufs).unwrap();
        prop_assert!(d.is_none(), "seed {} limit {}: {}", seed, limit, d.unwrap());
    }

    /// Handing `fault_reference` a translated table changes no verdict:
    /// the outcome bucket of every (program, fault plan) case is the
    /// same with the table as without it, as `crisp-fault` runs. The
    /// bench harness's replay passes one and relies on this.
    #[test]
    fn fault_classification_agrees_across_tiers(seed in 0u64..5000, plan in arb_plan()) {
        let image = GenProgram::generate(seed, 8).image().unwrap();
        let policy = SimConfig::default().fold_policy;
        let pre = PredecodedImage::shared(&image, policy).unwrap();
        let table = Arc::new(TranslatedImage::from_predecoded(Arc::clone(&pre)));
        let mut pool = MachinePool::default();
        for parity in [ParityMode::DetectInvalidate, ParityMode::Off] {
            let cfg = SimConfig {
                parity,
                fault_plan: Some(plan),
                max_cycles: 200_000,
                ..SimConfig::default()
            };
            let interp = classify(&image, cfg, &pre, None, &mut pool);
            let threaded = classify(&image, cfg, &pre, Some(&table), &mut pool);
            match (interp, threaded) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a, b,
                    "outcome differs under {:?} for seed {} plan {:?}", parity, seed, plan
                ),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(
                    false,
                    "one tier errored: interp {:?}, threaded {:?} (seed {}, plan {:?})",
                    a, b, seed, plan
                ),
            }
        }
    }
}
