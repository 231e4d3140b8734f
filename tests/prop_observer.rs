//! Property tests for the observability layer: on randomized programs,
//! the typed event stream must reconcile *exactly* with the cycle
//! engine's counters, and the branch-site profiler must agree with
//! both.
//!
//! Programs are a bounded counted loop over a random mix of ALU
//! operations and forward conditional skips with random prediction
//! bits — the same shape `prop_equivalence` uses, exercising folds,
//! mispredicts at every resolution stage, cache misses and stalls.

use crisp::asm::{assemble, Item, Module};
use crisp::isa::{BinOp, Cond, FoldPolicy, Instr, Operand};
use crisp::sim::{
    BranchProfiler, CycleSim, EventRing, HwPredictor, Machine, PipeEvent, PipelineGeometry,
    SimConfig, StageHistogram, StallKind,
};
use proptest::prelude::*;

/// One random loop-body element: an ALU op, or a compare-and-skip
/// around one (so the flag and both branch directions get exercised).
#[derive(Debug, Clone)]
enum BodyOp {
    Alu(BinOp, u8, u8),
    Acc(BinOp, u8, u8),
    Skip {
        cond: Cond,
        a: u8,
        b: u8,
        on_true: bool,
        predict: bool,
        then: BinOp,
        slot: u8,
    },
}

fn arb_alu_op() -> impl Strategy<Value = BodyOp> {
    (
        prop::sample::select(vec![
            BinOp::Add,
            BinOp::Sub,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
        ]),
        1u8..8,
        0u8..32,
    )
        .prop_map(|(op, s, i)| BodyOp::Alu(op, s, i))
}

fn arb_body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        3 => arb_alu_op(),
        1 => (
            prop::sample::select(vec![BinOp::Add, BinOp::Xor]),
            1u8..8,
            0u8..32,
        )
            .prop_map(|(op, s, i)| BodyOp::Acc(op, s, i)),
        2 => (
            prop::sample::select(Cond::ALL.to_vec()),
            1u8..8,
            1u8..8,
            any::<bool>(),
            any::<bool>(),
            prop::sample::select(vec![BinOp::Add, BinOp::Sub]),
            1u8..8,
        )
            .prop_map(|(cond, a, b, on_true, predict, then, slot)| BodyOp::Skip {
                cond,
                a,
                b,
                on_true,
                predict,
                then,
                slot,
            }),
    ]
}

fn slot(s: u8) -> Operand {
    Operand::SpOff(4 * s as i32)
}

fn build_program(body: &[BodyOp], iters: u8) -> Module {
    let mut m = Module::new();
    let mut label = 0usize;
    m.push(Item::Instr(Instr::Op2 {
        op: BinOp::Mov,
        dst: slot(0),
        src: Operand::Imm(0),
    }));
    m.push(Item::Label("top".into()));
    for op in body {
        match op {
            BodyOp::Alu(op, s, imm) => {
                m.push(Item::Instr(Instr::Op2 {
                    op: *op,
                    dst: slot(*s),
                    src: Operand::Imm(*imm as i32),
                }));
            }
            BodyOp::Acc(op, s, imm) => {
                m.push(Item::Instr(Instr::Op3 {
                    op: *op,
                    a: slot(*s),
                    b: Operand::Imm(*imm as i32),
                }));
            }
            BodyOp::Skip {
                cond,
                a,
                b,
                on_true,
                predict,
                then,
                slot: s,
            } => {
                label += 1;
                let l = format!("skip{label}");
                m.push(Item::Instr(Instr::Cmp {
                    cond: *cond,
                    a: slot(*a),
                    b: slot(*b),
                }));
                m.push(Item::IfJmpTo {
                    on_true: *on_true,
                    predict_taken: *predict,
                    label: l.clone(),
                });
                m.push(Item::Instr(Instr::Op2 {
                    op: *then,
                    dst: slot(*s),
                    src: Operand::Imm(1),
                }));
                m.push(Item::Label(l));
            }
        }
    }
    m.push(Item::Instr(Instr::Op2 {
        op: BinOp::Add,
        dst: slot(0),
        src: Operand::Imm(1),
    }));
    m.push(Item::Instr(Instr::Cmp {
        cond: Cond::LtS,
        a: slot(0),
        b: Operand::Imm(iters as i32),
    }));
    m.push(Item::IfJmpTo {
        on_true: true,
        predict_taken: true,
        label: "top".into(),
    });
    m.push(Item::Instr(Instr::Halt));
    m
}

/// Event-stream tallies that mirror [`crisp::sim::CycleStats`].
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    issues: u64,
    folded_issues: u64,
    branch_retires: u64,
    resolves_by_stage: StageHistogram,
    mispredicts_by_stage: StageHistogram,
    squashes: u64,
    fetch_hits: u64,
    fetch_misses: u64,
    decodes: u64,
    folds: u64,
    fold_fails: u64,
    miss_stall: u64,
    indirect_stall: u64,
    halts: u64,
    commits: u64,
    cache_fills: u64,
    cache_fills_evicting: u64,
    fault_injects: u64,
    parity_errors: u64,
}

fn tally(events: &[PipeEvent], geo: PipelineGeometry) -> Result<Tally, TestCaseError> {
    let mut t = Tally {
        resolves_by_stage: StageHistogram::for_geometry(geo),
        mispredicts_by_stage: StageHistogram::for_geometry(geo),
        ..Tally::default()
    };
    let mut open: Option<(StallKind, u64)> = None;
    for ev in events {
        match *ev {
            PipeEvent::Issue { folded, .. } => {
                t.issues += 1;
                t.folded_issues += u64::from(folded);
            }
            PipeEvent::BranchRetire { .. } => t.branch_retires += 1,
            PipeEvent::BranchResolve {
                stage,
                mispredicted,
                ..
            } => {
                let s = stage as usize;
                prop_assert!(s <= geo.retire_stage(), "stage out of range: {stage}");
                t.resolves_by_stage.bump(s);
                if mispredicted {
                    t.mispredicts_by_stage.bump(s);
                }
            }
            PipeEvent::Squash { stage, .. } => {
                // Only in-flight EU stages short of retire can be
                // squashed: 1..=depth-1 (IR/OR on the paper's machine).
                let s = stage as usize;
                prop_assert!(s >= 1 && s < geo.depth(), "squash stage {stage}");
                t.squashes += 1;
            }
            PipeEvent::FetchHit { .. } => t.fetch_hits += 1,
            PipeEvent::FetchMiss { .. } => t.fetch_misses += 1,
            PipeEvent::Decode { .. } => t.decodes += 1,
            PipeEvent::Fold { .. } => t.folds += 1,
            PipeEvent::FoldFail { .. } => t.fold_fails += 1,
            PipeEvent::CacheFill { evicted, .. } => {
                t.cache_fills += 1;
                t.cache_fills_evicting += u64::from(evicted.is_some());
            }
            PipeEvent::Commit { .. } => t.commits += 1,
            PipeEvent::StallBegin { cycle, kind } => {
                prop_assert!(open.is_none(), "nested StallBegin at cycle {cycle}");
                open = Some((kind, cycle));
            }
            PipeEvent::StallEnd { cycle, kind } => {
                let (open_kind, begin) = open.take().expect("StallEnd without begin");
                prop_assert_eq!(open_kind, kind, "stall kind mismatch");
                prop_assert!(cycle >= begin);
                match kind {
                    StallKind::Miss => t.miss_stall += cycle - begin,
                    StallKind::Indirect => t.indirect_stall += cycle - begin,
                }
            }
            PipeEvent::FaultInject { .. } => t.fault_injects += 1,
            PipeEvent::ParityError { .. } => t.parity_errors += 1,
            PipeEvent::Halt { .. } => t.halts += 1,
            // Live-predictor lookups; their trace-model equivalence has
            // its own harness (tests/prop_predictor_xval.rs).
            PipeEvent::Predict { .. } => {}
        }
    }
    prop_assert!(open.is_none(), "unterminated stall at end of run");
    Ok(t)
}

fn configs() -> Vec<SimConfig> {
    vec![
        SimConfig::default(),
        SimConfig {
            fold_policy: FoldPolicy::None,
            ..SimConfig::default()
        },
        SimConfig {
            icache_entries: 4,
            mem_latency: 5,
            ..SimConfig::default()
        },
        SimConfig {
            predictor: HwPredictor::Dynamic {
                bits: 2,
                entries: 64,
            },
            fold_policy: FoldPolicy::All,
            ..SimConfig::default()
        },
        // Non-default geometries: the shallowest supported pipe and a
        // deep one, so the reconciliation holds away from D=3 too.
        SimConfig {
            geometry: PipelineGeometry::new(2),
            ..SimConfig::default()
        },
        SimConfig {
            geometry: PipelineGeometry::new(5),
            icache_entries: 8,
            mem_latency: 3,
            ..SimConfig::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn event_stream_reconciles_with_cycle_stats(
        body in prop::collection::vec(arb_body_op(), 1..10),
        iters in 1u8..24,
    ) {
        let image = assemble(&build_program(&body, iters)).unwrap();
        for cfg in configs() {
            let sim = CycleSim::with_observer(
                Machine::load(&image).unwrap(),
                cfg,
                (
                    EventRing::new(1 << 20),
                    BranchProfiler::with_geometry(cfg.geometry),
                ),
            );
            let (run, (ring, prof)) = sim.run_observed().unwrap();
            prop_assert_eq!(ring.dropped, 0, "ring sized for the whole run");
            let events = ring.into_vec();
            let t = tally(&events, cfg.geometry)?;

            // Every counter in CycleStats is derivable from the stream.
            prop_assert_eq!(t.issues, run.stats.issued);
            prop_assert_eq!(t.issues + t.folded_issues, run.stats.program_instrs);
            prop_assert_eq!(t.branch_retires, run.stats.cond_branches);
            prop_assert_eq!(t.mispredicts_by_stage, run.stats.mispredicts_by_stage);
            prop_assert_eq!(t.resolves_by_stage.get(0), run.stats.resolved_at_fetch);
            prop_assert_eq!(t.squashes, run.stats.flushed_slots);
            prop_assert_eq!(t.fetch_hits, run.stats.icache_hits);
            prop_assert_eq!(t.fetch_misses, run.stats.icache_misses);
            prop_assert_eq!(t.decodes, run.stats.pdu_decodes);
            prop_assert_eq!(t.miss_stall, run.stats.miss_stall_cycles);
            prop_assert_eq!(t.indirect_stall, run.stats.indirect_stall_cycles);
            prop_assert_eq!(t.halts, 1);
            // One architectural commit per issued entry, no more (a
            // squashed wrong-path slot must never reach the commit
            // point).
            prop_assert_eq!(t.commits, run.stats.issued);
            // Cache fills split into first-time inserts vs same-PC
            // refills; every eviction is a fill that displaced a
            // different tag.
            prop_assert_eq!(
                t.cache_fills,
                run.stats.cache_inserts + run.stats.cache_refills
            );
            prop_assert_eq!(t.cache_fills_evicting, run.stats.cache_evictions);
            prop_assert_eq!(t.fault_injects, run.stats.faults_injected);
            prop_assert_eq!(t.parity_errors, run.stats.parity_invalidates);
            // Every retired conditional branch resolved exactly once.
            prop_assert_eq!(t.resolves_by_stage.total(), run.stats.cond_branches);

            // The profiler is an aggregation of the same stream, so its
            // totals must match both.
            prop_assert_eq!(prof.issues, run.stats.issued);
            prop_assert_eq!(prof.branch_retires(), run.stats.cond_branches);
            prop_assert_eq!(prof.mispredicts_by_stage(), run.stats.mispredicts_by_stage);
            prop_assert_eq!(prof.mispredicts(), run.stats.mispredicts());
            prop_assert_eq!(prof.resolved_at_fetch(), run.stats.resolved_at_fetch);
            prop_assert_eq!(prof.folds, t.folds);
            prop_assert_eq!(
                prof.fold_failures.iter().sum::<u64>(),
                t.fold_fails
            );
        }
    }
}
