//! Property tests for top-down cycle accounting: on randomized
//! programs, across every fold policy and pipeline depth, the
//! per-cause cycle buckets must conserve cycles *exactly* — every
//! simulated cycle is attributed to exactly one bucket — and the
//! branch-penalty bucket must reconcile with the mispredict penalty
//! schedule.
//!
//! Two program shapes feed the invariants: the seeded `rand_prog`
//! generator (the differential campaign's workload, rich in loops and
//! nested control flow) and a counted loop over random ALU/skip mixes
//! (the `prop_observer` shape, exercising both branch directions and
//! cache pressure with tiny caches).

use crisp::asm::rand_prog::GenProgram;
use crisp::asm::{assemble, Item, Module};
use crisp::cc::{compile_crisp, CompileOptions};
use crisp::isa::{BinOp, Cond, FoldPolicy, Instr, Operand};
use crisp::sim::{CycleRun, CycleSim, HwPredictor, Machine, PipelineGeometry, SimConfig};
use crisp::workloads::figure3_large;
use proptest::prelude::*;

/// The accounting invariants every run must satisfy, independent of
/// program, policy, or geometry.
fn assert_accounts(run: &CycleRun, cfg: &SimConfig) -> Result<(), TestCaseError> {
    let acc = &run.stats.accounts;
    // Conservation: every cycle lands in exactly one bucket.
    prop_assert_eq!(
        acc.total(),
        run.stats.cycles,
        "accounting must conserve cycles (cfg {:?})",
        cfg
    );
    // Useful-issue cycles are exactly the issued instructions: the
    // retire latch holds a valid entry iff an instruction issues.
    prop_assert_eq!(acc.useful, run.stats.issued);
    // Startup is the pipe-fill transient and nothing else.
    prop_assert_eq!(acc.startup, cfg.geometry.depth() as u64);
    // One-sided reconciliation with the penalty schedule: each
    // mispredict resolved at stage s injects at most s bubbles, but
    // bubbles overlapping an earlier stall keep their original cause
    // and in-flight bubbles may not drain before halt. Recovery
    // bubbles whose wrong guess was a table-miss default land in the
    // btb_miss bucket instead of branch_penalty, so the schedule
    // bounds their sum.
    prop_assert!(
        acc.branch_penalty.total() + acc.btb_miss
            <= run.stats.mispredicts_by_stage.penalty_cycles(),
        "branch bubbles {} + btb-miss bubbles {} exceed the penalty schedule {} (cfg {:?})",
        acc.branch_penalty.total(),
        acc.btb_miss,
        run.stats.mispredicts_by_stage.penalty_cycles(),
        cfg
    );
    // Only tables with a miss default (BTB, jump trace) can charge the
    // btb_miss bucket; the static bit and infinite counter tables
    // always "hit".
    match cfg.predictor {
        HwPredictor::Btb { .. } | HwPredictor::JumpTrace { .. } => {}
        _ => prop_assert_eq!(acc.btb_miss, 0, "cfg {:?}", cfg),
    }
    // The shadow static-bit score counts retired conditional branches
    // whose static bit was wrong; under the static bit itself every
    // such branch also bumped a live resolution counter.
    if matches!(cfg.predictor, HwPredictor::StaticBit) {
        prop_assert!(run.stats.static_bit_mispredicts <= run.stats.mispredicts());
    }
    // No branch bubble can claim a resolve stage past retire.
    for s in cfg.geometry.retire_stage() + 1..acc.branch_penalty.len() {
        prop_assert_eq!(acc.branch_penalty.get(s), 0);
    }
    Ok(())
}

/// Every fold policy at every supported EU depth from the shallowest
/// pipe to one past the deepest the satellite sweep uses.
fn configs() -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for depth in 2..=6 {
        for fold_policy in [
            FoldPolicy::None,
            FoldPolicy::Host1,
            FoldPolicy::Host13,
            FoldPolicy::All,
        ] {
            cfgs.push(SimConfig {
                fold_policy,
                geometry: PipelineGeometry::new(depth),
                ..SimConfig::default()
            });
        }
    }
    // Cache pressure: tiny cache + slow memory so refill bubbles and
    // overlapping stalls actually occur.
    cfgs.push(SimConfig {
        icache_entries: 4,
        mem_latency: 5,
        ..SimConfig::default()
    });
    // Every live predictor at two depths: deliberately tiny tables so
    // aliasing, eviction and miss-default recovery all fire.
    for depth in [2, 4] {
        for predictor in [
            HwPredictor::Dynamic {
                bits: 2,
                entries: 8,
            },
            HwPredictor::Btb {
                entries: 4,
                ways: 2,
            },
            HwPredictor::JumpTrace { entries: 4 },
        ] {
            cfgs.push(SimConfig {
                predictor,
                geometry: PipelineGeometry::new(depth),
                ..SimConfig::default()
            });
        }
    }
    cfgs
}

/// A random loop-body element (subset of the `prop_observer` shape).
#[derive(Debug, Clone)]
enum BodyOp {
    Alu(BinOp, u8, u8),
    Skip {
        cond: Cond,
        a: u8,
        b: u8,
        on_true: bool,
        predict: bool,
        slot: u8,
    },
}

fn arb_body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        2 => (
            prop::sample::select(vec![BinOp::Add, BinOp::Sub, BinOp::Xor]),
            1u8..8,
            0u8..32,
        )
            .prop_map(|(op, s, i)| BodyOp::Alu(op, s, i)),
        2 => (
            prop::sample::select(Cond::ALL.to_vec()),
            1u8..8,
            1u8..8,
            any::<bool>(),
            any::<bool>(),
            1u8..8,
        )
            .prop_map(|(cond, a, b, on_true, predict, slot)| BodyOp::Skip {
                cond,
                a,
                b,
                on_true,
                predict,
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
            BodyOp::Skip {
                cond,
                a,
                b,
                on_true,
                predict,
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
                    op: BinOp::Add,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn accounting_conserves_on_generated_campaign_programs(
        seed in 0u64..1 << 32,
        max_blocks in 2usize..10,
    ) {
        let prog = GenProgram::generate(seed, max_blocks);
        let image = prog.image().unwrap();
        for cfg in configs() {
            let run = CycleSim::new(Machine::load(&image).unwrap(), cfg)
                .run()
                .unwrap();
            assert_accounts(&run, &cfg)?;
        }
    }

    #[test]
    fn accounting_conserves_on_counted_loops(
        body in prop::collection::vec(arb_body_op(), 1..8),
        iters in 1u8..16,
    ) {
        let image = assemble(&build_program(&body, iters)).unwrap();
        for cfg in configs() {
            let run = CycleSim::new(Machine::load(&image).unwrap(), cfg)
                .run()
                .unwrap();
            assert_accounts(&run, &cfg)?;
        }
    }
}

/// One deterministic run pinned exactly: the large Figure 3 workload
/// under the default configuration. The throughput benchmarks time
/// this run, so a change that moves where its simulated cycles go
/// shows here rather than as an unexplained timing shift.
#[test]
fn figure3_large_default_accounts_are_pinned() {
    let image =
        compile_crisp(&figure3_large(), &CompileOptions::default()).expect("figure 3 compiles");
    let run = CycleSim::new(Machine::load(&image).unwrap(), SimConfig::default())
        .run()
        .expect("figure 3 runs");
    assert_eq!(run.stats.cycles, 28701);
    assert_eq!(run.stats.program_instrs, 38921);
    assert_eq!(
        run.stats.accounts.json(),
        r#"{"useful":28681,"branch_penalty":[0,0,0,3],"miss_refill":12,"parity_recovery":0,"indirect_stall":2,"btb_miss":0,"startup":3}"#
    );
    assert_eq!(run.stats.accounts.total(), run.stats.cycles);
}
