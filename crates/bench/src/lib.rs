//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each function returns structured results; the `src/bin/*` binaries
//! print them in the paper's layout. The per-experiment index lives in
//! `DESIGN.md`; measured-vs-paper numbers are recorded in
//! `EXPERIMENTS.md`.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crisp_asm::{listing_of, Image};
use crisp_cc::{
    apply_profile, compile_crisp, compile_crisp_module, compile_vax, CompileOptions, PredictionMode,
};
use crisp_isa::FoldPolicy;
use crisp_predict::{
    evaluate_dynamic, evaluate_predictor, evaluate_static_optimal, Btb, BtbConfig, FinitePredictor,
    JumpTrace,
};
use crisp_sim::{
    CommitLog, CycleSim, FaultOutcome, FunctionalSim, HaltReason, HwPredictor, Machine,
    MachinePool, PipelineGeometry, PredecodedImage, RunEnd, SimConfig, SimError, Trace,
};
use crisp_workloads::{figure3_with_count, prediction_workloads, FIGURE3_SOURCE};

// ---------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------

/// Compile a source and collect its branch trace with the functional
/// engine.
///
/// # Panics
///
/// Panics on compile or simulation failure (experiment inputs are
/// static).
pub fn trace_of(source: &str) -> Trace {
    let image = compile_crisp(source, &CompileOptions::default()).expect("workload compiles");
    FunctionalSim::new(Machine::load(&image).expect("image loads"))
        .record_trace(true)
        .run()
        .expect("workload halts")
        .trace
}

/// Run an image through the cycle simulator.
///
/// # Panics
///
/// Panics on simulation failure.
pub fn cycles_of(image: &Image, cfg: SimConfig) -> crisp_sim::CycleRun {
    CycleSim::new(Machine::load(image).expect("image loads"), cfg)
        .run()
        .expect("cycle run halts")
}

// ---------------------------------------------------------------------
// Table 1 — prediction accuracy
// ---------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Program name.
    pub program: String,
    /// Optimal static prediction accuracy.
    pub static_acc: f64,
    /// 1/2/3-bit dynamic accuracies (infinite table).
    pub dynamic: [f64; 3],
    /// Conditional branches executed.
    pub branches: u64,
}

/// Regenerate Table 1: prediction accuracy per workload.
pub fn table1() -> Vec<Table1Row> {
    prediction_workloads()
        .into_iter()
        .map(|w| {
            let trace = trace_of(w.source);
            let st = evaluate_static_optimal(&trace);
            let dynamic = [1u8, 2, 3].map(|bits| evaluate_dynamic(&trace, bits).ratio());
            Table1Row {
                program: w.name.to_owned(),
                static_acc: st.accuracy.ratio(),
                dynamic,
                branches: st.accuracy.total,
            }
        })
        .collect()
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>12}",
            self.program,
            self.static_acc,
            self.dynamic[0],
            self.dynamic[1],
            self.dynamic[2],
            self.branches
        )
    }
}

// ---------------------------------------------------------------------
// Table 2 — CRISP vs VAX dynamic instruction counts
// ---------------------------------------------------------------------

/// Results for Table 2.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// CRISP per-opcode dynamic counts.
    pub crisp: crisp_sim::OpcodeCounts,
    /// CRISP total.
    pub crisp_total: u64,
    /// VAX-lite per-opcode dynamic counts.
    pub vax: vax_lite::Counts,
    /// VAX total.
    pub vax_total: u64,
}

/// Regenerate Table 2: dynamic instruction distributions of the Figure 3
/// program on CRISP and VAX.
///
/// # Panics
///
/// Panics on compile or run failure.
pub fn table2() -> Table2 {
    let image = compile_crisp(
        FIGURE3_SOURCE,
        &CompileOptions {
            spread: false,
            prediction: PredictionMode::Taken,
        },
    )
    .expect("figure3 compiles");
    let run = FunctionalSim::new(Machine::load(&image).expect("loads"))
        .run()
        .expect("halts");
    let vax = compile_vax(FIGURE3_SOURCE)
        .expect("figure3 compiles for VAX")
        .run(100_000_000)
        .expect("VAX run halts");
    Table2 {
        crisp_total: run.stats.opcodes.total(),
        crisp: run.stats.opcodes,
        vax_total: vax.counts.total(),
        vax: vax.counts,
    }
}

// ---------------------------------------------------------------------
// Table 3 — loop code before/after Branch Spreading
// ---------------------------------------------------------------------

/// Regenerate Table 3: the CRISP code for the Figure 3 loop without and
/// with Branch Spreading, as annotated listings (fold pairs marked).
///
/// # Panics
///
/// Panics on compile failure.
pub fn table3() -> (String, String) {
    let render = |spread: bool| {
        let module = compile_crisp_module(
            FIGURE3_SOURCE,
            &CompileOptions {
                spread,
                prediction: PredictionMode::Taken,
            },
        )
        .expect("figure3 compiles");
        let image = crisp_asm::assemble(&module).expect("assembles");
        listing_of(&image, FoldPolicy::Host13).expect("listing renders")
    };
    (render(false), render(true))
}

// ---------------------------------------------------------------------
// Table 4 — execution statistics, cases A–E
// ---------------------------------------------------------------------

/// One row of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Case letter (A–E).
    pub case: char,
    /// Branch folding enabled.
    pub folding: bool,
    /// "Branch prediction yes/no" in the paper's sense (the end-of-loop
    /// branch's bit; the `if` branch is always predicted taken).
    pub prediction: bool,
    /// Branch spreading applied.
    pub spreading: bool,
    /// Cycles to execute.
    pub cycles: u64,
    /// Instructions issued by the pipeline.
    pub issued: u64,
    /// Program instructions (issued + folded branches).
    pub program_instrs: u64,
    /// Performance relative to case A.
    pub relative_perf: f64,
    /// Issued cycles per instruction.
    pub issued_cpi: f64,
    /// Apparent (black-box) cycles per instruction.
    pub apparent_cpi: f64,
}

impl fmt::Display for Table4Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let yn = |b: bool| if b { "yes" } else { "no " };
        write!(
            f,
            "{}     {}      {}      {}    {:>9} {:>9}  {:>5.2} {:>7.2} {:>9.2}",
            self.case,
            yn(self.folding),
            yn(self.prediction),
            yn(self.spreading),
            self.cycles,
            self.issued,
            self.relative_perf,
            self.issued_cpi,
            self.apparent_cpi
        )
    }
}

/// Regenerate Table 4 with a configurable loop count (the paper uses
/// 1024 and notes the results are insensitive to it).
pub fn table4_with_count(count: u32) -> Vec<Table4Row> {
    let src = figure3_with_count(count);
    // (case, folding, prediction-yes, spreading)
    let cases = [
        ('A', false, false, false),
        ('B', false, true, false),
        ('C', true, true, false),
        ('D', true, true, true),
        ('E', false, true, true),
    ];
    let mut rows = Vec::new();
    let mut base_cycles = None;
    for (case, folding, prediction, spreading) in cases {
        // "Prediction yes" = the backward loop branch predicted taken;
        // the forward if branch is predicted taken in ALL cases (the
        // paper: "the particular setting is irrelevant"). Taken covers
        // both; case A inverts only the backward branch via Ftbnt.
        let mode = if prediction {
            PredictionMode::Taken
        } else {
            PredictionMode::Ftbnt
        };
        let image = compile_crisp(
            &src,
            &CompileOptions {
                spread: spreading,
                prediction: mode,
            },
        )
        .expect("figure3 compiles");
        let cfg = SimConfig {
            fold_policy: if folding {
                FoldPolicy::Host13
            } else {
                FoldPolicy::None
            },
            ..SimConfig::default()
        };
        let run = cycles_of(&image, cfg);
        let base = *base_cycles.get_or_insert(run.stats.cycles);
        rows.push(Table4Row {
            case,
            folding,
            prediction,
            spreading,
            cycles: run.stats.cycles,
            issued: run.stats.issued,
            program_instrs: run.stats.program_instrs,
            relative_perf: base as f64 / run.stats.cycles as f64,
            issued_cpi: run.stats.cycles_per_issued(),
            apparent_cpi: run.stats.apparent_cpi(),
        });
    }
    rows
}

/// Regenerate Table 4 at the paper's loop count of 1024.
pub fn table4() -> Vec<Table4Row> {
    table4_with_count(1024)
}

// ---------------------------------------------------------------------
// Comparison section — BTB and MU5 jump trace
// ---------------------------------------------------------------------

/// One row of the BTB / jump-trace comparison.
#[derive(Debug, Clone)]
pub struct BtbRow {
    /// Program name.
    pub program: String,
    /// CRISP's optimal static bit (for reference).
    pub static_acc: f64,
    /// Lee-Smith BTB (128 sets × 4 ways) effectiveness.
    pub btb: f64,
    /// MU5 8-entry jump trace correct rate.
    pub jump_trace: f64,
    /// Transfers evaluated.
    pub transfers: u64,
    /// Live in-pipeline correct rate with the same BTB geometry
    /// (`1 - mispredicts / retired conditional branches` from a cycle
    /// run under [`HwPredictor::Btb`]).
    pub btb_live: f64,
    /// Live in-pipeline correct rate under [`HwPredictor::JumpTrace`].
    pub jump_trace_live: f64,
    /// Cycle counts under the static bit, the live BTB and the live
    /// jump trace — what each scheme actually costs end to end.
    pub live_cycles: [u64; 3],
}

/// Correct-prediction rate of a live cycle run: retired conditional
/// branches that were not charged a mispredict. Wrong-path branches can
/// resolve (and mispredict) without retiring, so this is a floor.
fn live_correct_rate(run: &crisp_sim::CycleRun) -> f64 {
    let branches = run.stats.cond_branches;
    if branches == 0 {
        return 1.0;
    }
    branches.saturating_sub(run.stats.mispredicts()) as f64 / branches as f64
}

/// Evaluate the BTB and jump-trace schemes the paper compares against —
/// trace-driven (the paper's methodology) and live in the pipeline,
/// side by side.
pub fn btb_compare() -> Vec<BtbRow> {
    prediction_workloads()
        .into_iter()
        .map(|w| {
            let trace = trace_of(w.source);
            let st = evaluate_static_optimal(&trace);
            let btb = Btb::new(BtbConfig::default()).evaluate(&trace);
            let jt = JumpTrace::new(JumpTrace::MU5_ENTRIES).evaluate(&trace);
            let image = compile_crisp(w.source, &CompileOptions::default()).expect("compiles");
            let live = |predictor| {
                cycles_of(
                    &image,
                    SimConfig {
                        predictor,
                        ..SimConfig::default()
                    },
                )
            };
            let st_run = live(HwPredictor::StaticBit);
            let btb_run = live(HwPredictor::Btb {
                entries: 128,
                ways: 4,
            });
            let jt_run = live(HwPredictor::JumpTrace {
                entries: JumpTrace::MU5_ENTRIES,
            });
            BtbRow {
                program: w.name.to_owned(),
                static_acc: st.accuracy.ratio(),
                btb: btb.effectiveness(),
                jump_trace: jt.ratio(),
                transfers: btb.total,
                btb_live: live_correct_rate(&btb_run),
                jump_trace_live: live_correct_rate(&jt_run),
                live_cycles: [
                    st_run.stats.cycles,
                    btb_run.stats.cycles,
                    jt_run.stats.cycles,
                ],
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Profile-guided (optimal) static bits end-to-end
// ---------------------------------------------------------------------

/// Compile a source, profile it, patch optimal static bits, and return
/// `(default-bit mispredicts, optimal-bit mispredicts)` from functional
/// runs — the end-to-end path behind Table 1's static column.
pub fn profile_guided_mispredicts(source: &str) -> (u64, u64) {
    let opts = CompileOptions::default();
    let mut image = compile_crisp(source, &opts).expect("compiles");
    let before = FunctionalSim::new(Machine::load(&image).expect("loads"))
        .record_trace(true)
        .run()
        .expect("halts");
    let majority: HashMap<u32, bool> = evaluate_static_optimal(&before.trace)
        .majority
        .into_iter()
        .collect();
    apply_profile(&mut image, &majority);
    let after = FunctionalSim::new(Machine::load(&image).expect("loads"))
        .run()
        .expect("halts");
    (
        before.stats.static_mispredicts,
        after.stats.static_mispredicts,
    )
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Decoded-cache size sweep on the Figure 3 loop (the paper: "true zero
/// delay for branches can only occur if the instruction cache has a
/// hit"). Returns `(entries, cycles)` pairs.
pub fn ablation_icache(sizes: &[usize], count: u32) -> Vec<(usize, u64)> {
    let src = figure3_with_count(count);
    let image = compile_crisp(&src, &CompileOptions::default()).expect("compiles");
    sizes
        .iter()
        .map(|&entries| {
            let cfg = SimConfig {
                icache_entries: entries,
                ..SimConfig::default()
            };
            (entries, cycles_of(&image, cfg).stats.cycles)
        })
        .collect()
}

/// Fold-policy sweep (None / 1-parcel hosts / CRISP's 1&3 / everything),
/// quantifying "doing the remaining cases significantly increases the
/// amount of hardware required, with only a marginal increase in
/// performance". Returns `(policy, cycles, issued)` rows.
pub fn ablation_fold_policy(count: u32) -> Vec<(FoldPolicy, u64, u64)> {
    let src = figure3_with_count(count);
    let image = compile_crisp(&src, &CompileOptions::default()).expect("compiles");
    [
        FoldPolicy::None,
        FoldPolicy::Host1,
        FoldPolicy::Host13,
        FoldPolicy::All,
    ]
    .into_iter()
    .map(|policy| {
        let cfg = SimConfig {
            fold_policy: policy,
            ..SimConfig::default()
        };
        let run = cycles_of(&image, cfg);
        (policy, run.stats.cycles, run.stats.issued)
    })
    .collect()
}

/// Memory-latency sweep showing the decoupling value of the decoded
/// instruction cache. Returns `(latency, cycles)` pairs.
pub fn ablation_mem_latency(latencies: &[u32], count: u32) -> Vec<(u32, u64)> {
    let src = figure3_with_count(count);
    let image = compile_crisp(&src, &CompileOptions::default()).expect("compiles");
    latencies
        .iter()
        .map(|&lat| {
            let cfg = SimConfig {
                mem_latency: lat,
                ..SimConfig::default()
            };
            (lat, cycles_of(&image, cfg).stats.cycles)
        })
        .collect()
}

/// Hardware-predictor comparison: the static bit (shipped) vs finite
/// dynamic counter tables, measured in cycles over the Table 1
/// workloads — the road CRISP did not take, quantified. Returns rows of
/// `(program, static cycles, 1-bit cycles, 2-bit cycles)`.
pub fn ablation_predictor() -> Vec<(String, u64, u64, u64)> {
    prediction_workloads()
        .into_iter()
        .map(|w| {
            let image = compile_crisp(w.source, &CompileOptions::default()).expect("compiles");
            let run = |predictor| {
                cycles_of(
                    &image,
                    SimConfig {
                        predictor,
                        ..SimConfig::default()
                    },
                )
                .stats
                .cycles
            };
            (
                w.name.to_owned(),
                run(HwPredictor::StaticBit),
                run(HwPredictor::Dynamic {
                    bits: 1,
                    entries: 512,
                }),
                run(HwPredictor::Dynamic {
                    bits: 2,
                    entries: 512,
                }),
            )
        })
        .collect()
}

/// How optimistic was Table 1's infinite dynamic table? ("In practice
/// only a small number of recent predictions would be cached.")
/// Evaluates a 2-bit finite table at several sizes against the infinite
/// table, per workload. Returns `(program, infinite, by_size)` where
/// `by_size[i]` corresponds to `sizes[i]`.
pub fn ablation_finite_dynamic(sizes: &[usize]) -> Vec<(String, f64, Vec<f64>)> {
    prediction_workloads()
        .into_iter()
        .map(|w| {
            let trace = trace_of(w.source);
            let infinite = evaluate_dynamic(&trace, 2).ratio();
            let by_size = sizes
                .iter()
                .map(|&n| evaluate_predictor(&trace, &mut FinitePredictor::new(2, n)).ratio())
                .collect();
            (w.name.to_owned(), infinite, by_size)
        })
        .collect()
}

/// Basic-block-size sensitivity: the paper chose prediction over delayed
/// branch "because basic block sizes in CRISP are typically short, on
/// the order of 3 instructions". This sweep builds loops with bodies of
/// `n` independent statements split by an alternating `if`, and compares
/// prediction-only against prediction+spreading. Returns rows of
/// `(block_size, cycles_prediction_only, cycles_with_spreading)`.
pub fn ablation_bbsize(sizes: &[usize]) -> Vec<(usize, u64, u64)> {
    sizes
        .iter()
        .map(|&n| {
            // n filler statements after the if, all candidates for fill.
            // Locals (one-parcel instructions) keep every fill statement
            // a legal fold host, so the sweep isolates the
            // penalty-vs-distance effect.
            let mut body = String::new();
            for i in 0..n {
                let inc = i + 1;
                body.push_str(&format!("t{i} += {inc}; "));
            }
            let decls: String = if n == 0 {
                String::new()
            } else {
                let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
                format!("int {};", names.join(", "))
            };
            let src = format!(
                "
                int odd; int even;
                void main() {{
                    int i; {decls}
                    for (i = 0; i < 512; i++) {{
                        if (i & 1) odd++;
                        else even++;
                        {body}
                    }}
                }}
                "
            );
            let run = |spread: bool| {
                let image = compile_crisp(
                    &src,
                    &CompileOptions {
                        spread,
                        prediction: PredictionMode::Btfnt,
                    },
                )
                .expect("compiles");
                // A large decoded cache isolates the branch effects: big
                // bodies would otherwise overflow the 32-entry cache and
                // conflict noise would swamp the measurement.
                let cfg = SimConfig {
                    icache_entries: 512,
                    ..SimConfig::default()
                };
                cycles_of(&image, cfg).stats.cycles
            };
            (n, run(false), run(true))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Pipeline-depth sweep
// ---------------------------------------------------------------------

/// Penalty-vs-spreading-distance curve measured at one EU depth — the
/// Figure 3 penalty schedule, generalized beyond the paper's 3-stage
/// machine.
#[derive(Debug, Clone)]
pub struct DepthSweepRow {
    /// EU depth of this row (3 = the paper's IR/OR/RR).
    pub depth: usize,
    /// `(spreading distance, expected resolve stage, measured penalty)`
    /// triples; distance 0 is the folded compare, which resolves at
    /// retire. The resolve-stage index *is* the penalty, so columns two
    /// and three must agree.
    pub penalties: Vec<(usize, usize, usize)>,
    /// Figure 3 workload cycles at this depth (default configuration).
    pub figure3_cycles: u64,
    /// Figure 3 apparent CPI at this depth.
    pub figure3_cpi: f64,
    /// Figure 3 `(predictor label, cycles, apparent CPI)` per hardware
    /// predictor at this depth — deeper pipes pay more per mispredict,
    /// so the static-vs-dynamic gap widens with depth.
    pub figure3_by_predictor: Vec<(String, u64, f64)>,
}

/// The predictor lineup every live sweep measures: the shipped static
/// bit against the hardware schemes the paper compared on traces.
pub fn sweep_predictors() -> [HwPredictor; 4] {
    [
        HwPredictor::StaticBit,
        HwPredictor::Dynamic {
            bits: 2,
            entries: 64,
        },
        HwPredictor::Btb {
            entries: 128,
            ways: 4,
        },
        HwPredictor::JumpTrace {
            entries: JumpTrace::MU5_ENTRIES,
        },
    ]
}

/// Measure the per-mispredict penalty of a branch whose compare sits
/// `distance` instructions ahead (0 = folded) at EU depth `depth`.
///
/// Steady-state measurement: a 24-iteration loop whose back branch is
/// statically predicted right (one exit mispredict) vs wrong (23). The
/// cycle delta is 22 penalties plus a ±few-cycle cold-start difference,
/// so rounding to the nearest multiple of 22 recovers the penalty. The
/// counter lives in the accumulator because only `cmp.cond Accum,imm5`
/// is one parcel — the folded case needs a one-parcel host.
fn measured_penalty(depth: usize, distance: usize) -> usize {
    use crisp_asm::assemble_text;
    let filler: String = (0..distance.saturating_sub(1))
        .map(|i| format!("add {}(sp),$1\n", 8 + 4 * i))
        .collect();
    let src_with = |bit: &str| {
        format!(
            "
            mov Accum,$0
        top:
            add Accum,$1
            cmp.s< Accum,$24
            {filler}
            ifjmpy.{bit} top
            halt
        "
        )
    };
    let cfg = SimConfig {
        geometry: PipelineGeometry::new(depth),
        fold_policy: if distance == 0 {
            FoldPolicy::Host13
        } else {
            FoldPolicy::None
        },
        ..SimConfig::default()
    };
    let run = |bit: &str| {
        let image = assemble_text(&src_with(bit)).expect("assembles");
        cycles_of(&image, cfg)
    };
    let wrong = run("nt");
    let right = run("t");
    assert!(wrong.stats.mispredicts() >= 23);
    let delta = wrong.stats.cycles as i64 - right.stats.cycles as i64;
    usize::try_from(((delta + 11).div_euclid(22)).max(0)).expect("non-negative penalty")
}

/// Sweep EU depth: for each depth, the measured penalty at every
/// spreading distance (the Figure 3 curve at that depth) plus the
/// Figure 3 workload's cycles and apparent CPI. Deeper pipes pay more
/// for late resolution and need proportionally more spreading to reach
/// the free fetch-time resolution.
pub fn depth_sweep(depths: &[usize], count: u32) -> Vec<DepthSweepRow> {
    let src = figure3_with_count(count);
    let image = compile_crisp(&src, &CompileOptions::default()).expect("compiles");
    depths
        .iter()
        .map(|&depth| {
            let geo = PipelineGeometry::new(depth);
            let mut penalties = vec![(0, geo.retire_stage(), measured_penalty(depth, 0))];
            for d in 1..=depth {
                penalties.push((
                    d,
                    geo.resolve_stage_for_distance(d),
                    measured_penalty(depth, d),
                ));
            }
            let cfg = SimConfig {
                geometry: geo,
                ..SimConfig::default()
            };
            let run = cycles_of(&image, cfg);
            let figure3_by_predictor = sweep_predictors()
                .into_iter()
                .map(|predictor| {
                    let r = cycles_of(&image, SimConfig { predictor, ..cfg });
                    (predictor.label(), r.stats.cycles, r.stats.apparent_cpi())
                })
                .collect();
            DepthSweepRow {
                depth,
                penalties,
                figure3_cycles: run.stats.cycles,
                figure3_cpi: run.stats.apparent_cpi(),
                figure3_by_predictor,
            }
        })
        .collect()
}

/// Classify one fault case the slow, obvious way: a full functional
/// reference run and a full faulted cycle-engine run (no shared
/// reference, no early stop), their commit streams and final states
/// compared after the fact in the verdict order `classify_batch`
/// documents. `bench_sim`'s per-case arm times this shape, and
/// `tests/prop_eject.rs` holds `classify_batch` to it.
///
/// # Panics
///
/// If the image does not load or the fault-free reference does not
/// halt within `cfg.max_cycles` steps.
pub fn classify_full_run(
    image: &Image,
    cfg: SimConfig,
    table: Option<&Arc<PredecodedImage>>,
    pool: &mut MachinePool,
) -> FaultOutcome {
    let machine = pool.take(image).expect("image loads");
    let mut ref_log = CommitLog::default();
    let reference = match table {
        Some(t) => FunctionalSim::with_predecoded(machine, Arc::clone(t)),
        None => FunctionalSim::with_policy(machine, cfg.fold_policy),
    }
    .max_steps(cfg.max_cycles)
    .run_observed(&mut ref_log)
    .expect("fault-free reference runs");
    assert_eq!(reference.halt_reason, HaltReason::Halted, "reference halts");
    let mut sim = CycleSim::with_observer(
        pool.take(image).expect("image loads"),
        cfg,
        CommitLog::default(),
    );
    if let Some(t) = table {
        sim.set_predecoded(Arc::clone(t));
    }
    let end = sim.run_until(|_| false);
    let log = sim.observer();
    let (fm, cm) = (&reference.machine, sim.machine());
    let outcome = match ref_log
        .records
        .iter()
        .zip(&log.records)
        .find(|(r, f)| r != f)
    {
        Some((r, f))
            if r.pc != f.pc
                || r.next_pc != f.next_pc
                || r.branch_pc != f.branch_pc
                || r.folded != f.folded
                || r.taken != f.taken
                || r.halted != f.halted =>
        {
            FaultOutcome::ControlDivergence
        }
        Some(_) => FaultOutcome::Sdc,
        None => match end {
            Err(SimError::Decode { .. }) => FaultOutcome::ControlDivergence,
            Err(_) => FaultOutcome::Sdc,
            Ok(RunEnd::Watchdog) => FaultOutcome::Hang,
            Ok(RunEnd::Stopped) => unreachable!("the run has no stop predicate"),
            Ok(RunEnd::Halted) if ref_log.records.len() != log.records.len() => {
                FaultOutcome::ControlDivergence
            }
            Ok(RunEnd::Halted)
                if fm.accum != cm.accum
                    || fm.sp != cm.sp
                    || fm.psw.flag != cm.psw.flag
                    || fm.mem != cm.mem =>
            {
                FaultOutcome::Sdc
            }
            Ok(RunEnd::Halted) => FaultOutcome::Masked,
        },
    };
    pool.put(reference.machine);
    pool.put(sim.into_machine());
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_shape_matches_paper() {
        // Smaller loop count for test speed; the paper notes the results
        // are insensitive to it.
        let rows = table4_with_count(256);
        let by = |c: char| rows.iter().find(|r| r.case == c).expect("case exists");
        let (a, b, c, d, e) = (by('A'), by('B'), by('C'), by('D'), by('E'));

        // Ordering: A slowest; D fastest; E between B and C.
        assert!(
            b.cycles < a.cycles,
            "prediction helps: {} vs {}",
            b.cycles,
            a.cycles
        );
        assert!(
            c.cycles < b.cycles,
            "folding helps: {} vs {}",
            c.cycles,
            b.cycles
        );
        assert!(
            d.cycles < c.cycles,
            "spreading helps: {} vs {}",
            d.cycles,
            c.cycles
        );
        assert!(e.cycles < b.cycles && e.cycles > d.cycles, "E sits between");

        // Folding removes the branches from the issue stream.
        assert!(c.issued < a.issued);
        assert_eq!(a.issued, b.issued);
        assert_eq!(a.program_instrs, c.program_instrs);

        // Case C/D apparent CPI drops below 1 (the headline result).
        assert!(c.apparent_cpi < 1.0, "C apparent CPI = {}", c.apparent_cpi);
        assert!(d.apparent_cpi < c.apparent_cpi);

        // Case D roughly doubles case A's performance (paper: 2.0).
        assert!(
            d.relative_perf > 1.6 && d.relative_perf < 2.6,
            "D relative = {}",
            d.relative_perf
        );

        // Case D issues ~1 instruction per cycle in steady state.
        assert!(d.issued_cpi < 1.1, "D issued CPI = {}", d.issued_cpi);
    }

    #[test]
    fn depth_sweep_penalty_equals_resolve_stage() {
        // Small depth set and loop count for test speed; the full 2..=6
        // sweep is the depth_sweep binary's job.
        for row in depth_sweep(&[2, 4], 64) {
            for &(distance, expected, measured) in &row.penalties {
                assert_eq!(
                    measured, expected,
                    "depth {} distance {distance}: measured {measured}, expected {expected}",
                    row.depth
                );
            }
            assert!(row.figure3_cycles > 0);
            // The predictor dimension: four labelled entries, the
            // static-bit one identical to the default-config run.
            assert_eq!(row.figure3_by_predictor.len(), 4);
            let (label, cycles, cpi) = &row.figure3_by_predictor[0];
            assert_eq!(label, "static");
            assert_eq!(*cycles, row.figure3_cycles);
            assert!((cpi - row.figure3_cpi).abs() < 1e-12);
            for (label, cycles, _) in &row.figure3_by_predictor {
                assert!(*cycles > 0, "{label}");
            }
        }
    }

    #[test]
    fn table2_totals_agree() {
        let t = table2();
        // The paper: "essentially identical" totals (9734 vs 9736).
        let diff = t.crisp_total.abs_diff(t.vax_total);
        assert!(
            diff * 100 < t.crisp_total,
            "CRISP {} vs VAX {}",
            t.crisp_total,
            t.vax_total
        );
        assert_eq!(t.crisp.get("and"), 1024);
        assert_eq!(t.vax.get("bitl"), 1024);
    }

    #[test]
    fn table3_listings_differ_and_fold() {
        let (before, after) = table3();
        assert_ne!(before, after);
        assert!(after.contains("folds with next"));
        // Spreading moves the accumulator test to the loop top: in the
        // spread listing the and3 appears before the first add.
        let and_pos = after.find("and3").expect("and3 present");
        assert!(after[..and_pos].matches("add").count() <= 2, "{after}");
    }

    #[test]
    fn table1_shape() {
        let rows = table1();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.static_acc > 0.5, "{}: static {}", r.program, r.static_acc);
            assert!(r.branches > 200, "{}: {} branches", r.program, r.branches);
        }
        // The benchmark rows (dhry, cwhet) must show static beating
        // 1-bit dynamic — the paper's headline Table 1 observation.
        for name in ["dhry", "cwhet"] {
            let r = rows.iter().find(|r| r.program == name).expect("row");
            assert!(
                r.static_acc > r.dynamic[0],
                "{name}: static {} vs 1-bit {}",
                r.static_acc,
                r.dynamic[0]
            );
        }
    }

    #[test]
    fn btb_rows_have_sane_ranges() {
        for r in btb_compare() {
            assert!(r.btb > 0.3 && r.btb <= 1.0, "{}: btb {}", r.program, r.btb);
            assert!(
                r.jump_trace <= r.btb + 0.2,
                "{}: jt {}",
                r.program,
                r.jump_trace
            );
            assert!(r.transfers > 0);
            // Live in-pipeline rates are real probabilities and the live
            // BTB should predict most retired branches on these loops.
            assert!(
                (0.0..=1.0).contains(&r.btb_live) && r.btb_live > 0.5,
                "{}: live btb {}",
                r.program,
                r.btb_live
            );
            assert!(
                (0.0..=1.0).contains(&r.jump_trace_live),
                "{}: live jt {}",
                r.program,
                r.jump_trace_live
            );
            for cycles in r.live_cycles {
                assert!(cycles > 0, "{}: {:?}", r.program, r.live_cycles);
            }
        }
    }

    #[test]
    fn profile_guidance_never_hurts() {
        for w in prediction_workloads() {
            let (before, after) = profile_guided_mispredicts(w.source);
            assert!(after <= before, "{}: {} -> {}", w.name, before, after);
        }
    }

    #[test]
    fn icache_ablation_monotone_at_extremes() {
        let rows = ablation_icache(&[4, 32, 256], 128);
        assert!(rows[0].1 > rows[1].1, "tiny cache slower: {rows:?}");
        assert!(rows[1].1 >= rows[2].1, "bigger never slower: {rows:?}");
    }

    #[test]
    fn fold_policy_ablation() {
        let rows = ablation_fold_policy(128);
        let cycles: Vec<u64> = rows.iter().map(|r| r.1).collect();
        // None is slowest; CRISP's Host13 close to All (the paper's
        // "marginal increase in performance" claim).
        assert!(cycles[0] > cycles[2], "{rows:?}");
        let host13 = cycles[2] as f64;
        let all = cycles[3] as f64;
        assert!((host13 - all) / host13 < 0.10, "{rows:?}");
    }

    #[test]
    fn predictor_ablation_runs_everywhere() {
        for (name, st, d1, d2) in ablation_predictor() {
            assert!(st > 0 && d1 > 0 && d2 > 0, "{name}");
            // Finite 2-bit hardware should be within 25% of the static
            // bit either way on these workloads.
            let ratio = d2 as f64 / st as f64;
            assert!((0.75..1.25).contains(&ratio), "{name}: ratio {ratio}");
        }
    }

    #[test]
    fn finite_tables_approach_the_infinite_one() {
        for (name, infinite, by_size) in ablation_finite_dynamic(&[16, 1024]) {
            let small = by_size[0];
            let large = by_size[1];
            assert!(
                large >= small - 0.01,
                "{name}: {small} -> {large} should not degrade"
            );
            assert!(
                (large - infinite).abs() < 0.03,
                "{name}: 1024-entry {large} vs infinite {infinite}"
            );
        }
    }

    #[test]
    fn bbsize_ablation_spreading_gain_grows_with_block() {
        let rows = ablation_bbsize(&[0, 1, 3]);
        // Spreading never hurts on these loops...
        for r in &rows {
            assert!(r.2 <= r.1, "{rows:?}");
        }
        // ... and the absolute gain grows with the number of fillable
        // statements: with 0 the step alone moves (penalty 3 -> 2), with
        // 3 the branch resolves at fetch (penalty 3 -> 0).
        let gain = |r: &(usize, u64, u64)| r.1 - r.2;
        assert!(gain(&rows[2]) > gain(&rows[0]), "{rows:?}");
    }

    #[test]
    fn mem_latency_ablation_bounded_by_cache() {
        let rows = ablation_mem_latency(&[1, 4, 16], 256);
        assert!(rows[2].1 > rows[0].1);
        // The decoded cache decouples the EU: even 16-cycle memory
        // costs far less than 16x.
        assert!((rows[2].1 as f64) < (rows[0].1 as f64) * 2.0, "{rows:?}");
    }
}
