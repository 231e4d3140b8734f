//! The predict-at-fetch / train-at-retire seam of the dynamic
//! predictors.
//!
//! The cycle engine consults its hardware table (`HwPredictorState`)
//! at fetch and trains it at retire. The trace-driven study drives the
//! same table types with a fused predict-then-train per branch, so the
//! two agree only if the pipeline keeps the seam's contract: a guess
//! never mutates the table, and every retired conditional branch trains
//! it exactly once, in retirement order, at its branch address. This
//! harness checks that contract *bit for bit*: run the pipeline with an
//! event ring, then replay its `Predict`/`BranchRetire` stream through
//! a fresh table of the same configuration. Every replayed guess must
//! reproduce the pipeline's, and every retirement becomes a `train`.
//!
//! The replay honours the pipeline's exact interleaving: wrong-path
//! fetches are predicted but never retire (so never train), tight
//! loops predict several times between updates, and a retirement in
//! cycle N trains the table before that cycle's fetch consults it
//! (retire precedes fetch within `cycle_once`, and the ring preserves
//! insertion order). A pipeline that trained at fetch, trained a
//! wrong-path branch or let a guess move LRU state would diverge here.
//!
//! A second property pins the counter table against the idealised
//! infinite-table `CounterPredictor`: when no two branches alias, the
//! finite hardware table and Table 1's infinite one are
//! indistinguishable over arbitrary predict/update streams.

use crisp::asm::rand_prog::GenProgram;
use crisp::predict::{CounterPredictor, Predictor};
use crisp::sim::{
    CounterTable, CycleSim, EventRing, HwPredictor, HwPredictorState, Machine, PipeEvent,
    PipelineGeometry, SimConfig,
};
use proptest::prelude::*;

/// The dynamic predictor configurations under test, with deliberately
/// tiny geometries so aliasing and eviction paths get exercised.
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

/// Run the pipeline under `cfg`, replay its event stream through a
/// fresh table of the same configuration, and return how many
/// predictions were checked. Panics (via assert) on the first
/// divergent prediction.
fn xval_run(image: &crisp::asm::Image, cfg: SimConfig) -> u64 {
    let sim = CycleSim::with_observer(Machine::load(image).unwrap(), cfg, EventRing::new(1 << 20));
    let (run, ring) = sim.run_observed().unwrap();
    assert!(run.halted);
    assert_eq!(
        run.stats.dropped_events, 0,
        "ring too small: replay needs the complete stream"
    );
    let mut replay =
        HwPredictorState::from_config(cfg.predictor).expect("a dynamic predictor has a table");
    let mut checked = 0u64;
    for ev in ring.events() {
        match *ev {
            PipeEvent::Predict {
                cycle,
                branch_pc,
                guess,
                miss,
            } => {
                assert_eq!(
                    replay.guess(branch_pc),
                    (guess, miss),
                    "replayed `{}` diverged from the pipeline at cycle {cycle}, \
                     branch {branch_pc:#x} (prediction #{checked})",
                    replay.name(),
                );
                checked += 1;
            }
            PipeEvent::BranchRetire {
                branch_pc, taken, ..
            } => replay.train(branch_pc, taken),
            _ => {}
        }
    }
    checked
}

#[test]
fn pipeline_predictions_match_trace_models_on_fixed_corpus() {
    // A loop whose branch flips direction on a modulus, plus an inner
    // skip, so counters move both ways and the BTB sees reallocation.
    let src = "
        mov 0(sp),$0
        mov 4(sp),$0
    top:
        add 0(sp),$1
        cmp.s< 4(sp),$3
        ifjmpy.t skip
        mov 4(sp),$-1
    skip:
        add 4(sp),$1
        cmp.s< 0(sp),$200
        ifjmpy.nt top
        halt
    ";
    let image = crisp::asm::assemble_text(src).unwrap();
    let mut total = 0u64;
    for predictor in predictors() {
        for depth in [2, 5] {
            total += xval_run(
                &image,
                SimConfig {
                    predictor,
                    geometry: PipelineGeometry::new(depth),
                    ..SimConfig::default()
                },
            );
        }
    }
    assert!(
        total > 1000,
        "corpus must exercise the predictors ({total} predictions checked)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Check the seam over the differential campaign's own program
    /// generator: whatever control flow it emits, the pipeline's
    /// prediction stream must replay exactly on a fresh table.
    #[test]
    fn pipeline_predictions_match_trace_models_on_generated_programs(
        seed in 0u64..1 << 32,
        max_blocks in 2usize..10,
    ) {
        let prog = GenProgram::generate(seed, max_blocks);
        let image = prog.image().unwrap();
        for predictor in predictors() {
            xval_run(&image, SimConfig { predictor, ..SimConfig::default() });
        }
    }

    /// With addresses confined to distinct slots, the finite
    /// `CounterTable` matches the infinite-table `CounterPredictor` on
    /// every prediction over an arbitrary interleaving of predicts and
    /// updates.
    #[test]
    fn counter_table_matches_finite_and_infinite_models(
        bits in 1u8..=3,
        ops in prop::collection::vec((0u32..64, any::<bool>(), any::<bool>()), 1..200),
    ) {
        let mut table = CounterTable::new(bits, 64);
        let mut infinite = CounterPredictor::new(bits);
        for (slot, taken, is_update) in ops {
            // Parcel addresses land each slot in its own counter of a
            // 64-entry table, so the finite table never aliases.
            let pc = slot << 1;
            if is_update {
                table.train(pc, taken);
                infinite.update(pc, taken);
            } else {
                prop_assert_eq!(table.guess(pc), infinite.predict(pc));
            }
        }
    }
}
