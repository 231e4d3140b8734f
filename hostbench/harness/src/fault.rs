//! The `fault_campaign` workload's in-process halves: the profile of
//! its inputs, the traced replay of `crisp-fault`'s work,
//! and the lane-width arm.
//!
//! The replay mirrors `crisp-fault --target all` exactly (program
//! generation, per-program predecode and translation, one shared
//! fault reference per program, 8-case blocks classified
//! protected and unprotected through `classify_batch` under the shared
//! `run_campaign` supervisor), so its tallies must equal the shipped
//! driver's report for the same flags.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crisp_asm::rand_prog::{GenProgram, Rng};
use crisp_asm::Image;
use crisp_cli::campaign::{run_campaign, CampaignSpec, CaseResult};
use crisp_cli::Checkpoint;
use crisp_sim::{
    classify_batch, fault_reference, nth_field, nth_pdu_field, nth_predictor_field,
    predictor_fault_space, CycleSim, FaultOutcome, FaultPlan, FaultReference, FaultTarget,
    HaltReason, HwPredictor, Machine, MachinePool, ParityMode, PredecodedImage, SimConfig,
    ThreadedSim, TranslatedImage, FAULT_SPACE, PDU_FAULT_SPACE,
};

use crate::flag;
use crate::json::J;
use crate::trace::{self, Analysis};

/// `crisp-fault`'s defaults for the flags the benchmark leaves unset.
const BATCH: usize = 8;
const MAX_BLOCKS: usize = 10;
const MAX_CYCLES: u64 = 200_000;
/// `--predictor btb`.
const PREDICTOR: HwPredictor = HwPredictor::Btb { entries: 128, ways: 4 };
/// `--target all` under a stateful predictor.
const TARGETS: [FaultTarget; 3] = [FaultTarget::Cache, FaultTarget::Predictor, FaultTarget::Pdu];

/// The campaign's flags, as passed to `crisp-fault`.
pub struct Params {
    pub seed: u64,
    pub programs: u64,
    pub faults: u64,
    pub jobs: usize,
}

impl Params {
    pub fn parse(args: &mut Vec<String>) -> Result<Params, String> {
        Ok(Params {
            seed: flag(args, "--seed")?,
            programs: flag(args, "--programs")?,
            faults: flag(args, "--faults")?,
            jobs: flag(args, "--jobs")?,
        })
    }
}

/// The fault-free configuration every case perturbs.
fn cfg() -> SimConfig {
    SimConfig {
        max_cycles: MAX_CYCLES,
        predictor: PREDICTOR,
        ..SimConfig::default()
    }
}

/// One generated program with its shared decode tables.
struct Prog {
    seed: u64,
    image: Image,
    table: Arc<PredecodedImage>,
    translated: Arc<TranslatedImage>,
}

fn build(p: &Params) -> Result<Vec<Prog>, String> {
    let policy = SimConfig::default().fold_policy;
    (0..p.programs)
        .map(|i| {
            let seed = p.seed.wrapping_add(i);
            let image = trace::span("asm.rand_prog", || {
                GenProgram::generate(seed, MAX_BLOCKS).image()
            })
            .map_err(|e| format!("assembling program seed {seed}: {e}"))?;
            let table = trace::span("sim.predecode", || PredecodedImage::shared(&image, policy))
                .map_err(|e| format!("predecoding program seed {seed}: {e}"))?;
            let translated = trace::span("sim.threaded.translate", || {
                Arc::new(TranslatedImage::from_predecoded(Arc::clone(&table)))
            });
            Ok(Prog {
                seed,
                image,
                table,
                translated,
            })
        })
        .collect()
}

/// `crisp-fault`'s deterministic fault plan for campaign case `case`.
fn plan_for(p: &Params, case: u64) -> FaultPlan {
    let icache_entries = SimConfig::default().icache_entries as u64;
    let mut rng = Rng::new(p.seed.wrapping_mul(0x9E37_79B9).wrapping_add(case));
    let target = TARGETS[rng.below(TARGETS.len() as u64) as usize];
    let cycle = rng.below(400);
    match target {
        FaultTarget::Cache => FaultPlan {
            cycle,
            slot: rng.below(icache_entries) as u32,
            field: nth_field(rng.below(FAULT_SPACE)),
            target,
        },
        FaultTarget::Predictor => {
            let field = nth_predictor_field(PREDICTOR, rng.below(predictor_fault_space(PREDICTOR)))
                .expect("the BTB has a nonzero fault space");
            FaultPlan {
                cycle,
                slot: rng.below(1 << 10) as u32,
                field,
                target,
            }
        }
        FaultTarget::Pdu => FaultPlan {
            cycle,
            slot: rng.below(8) as u32,
            field: nth_pdu_field(rng.below(PDU_FAULT_SPACE)),
            target,
        },
    }
}

/// The protected and unprotected configurations of each case, in
/// `crisp-fault`'s order.
fn case_cfgs(p: &Params, cases: &[u64]) -> (Vec<SimConfig>, Vec<FaultPlan>) {
    let mut cfgs = Vec::with_capacity(cases.len() * 2);
    let mut plans = Vec::with_capacity(cases.len());
    for &i in cases {
        let plan = plan_for(p, i);
        let protected = SimConfig {
            parity: ParityMode::DetectInvalidate,
            fault_plan: Some(plan),
            ..cfg()
        };
        cfgs.push(protected);
        cfgs.push(SimConfig {
            parity: ParityMode::Off,
            ..protected
        });
        plans.push(plan);
    }
    (cfgs, plans)
}

/// `crisp-fault`'s verdict on one case: the tally key, or why the case
/// fails the campaign.
fn verdict(plan: FaultPlan, protected: FaultOutcome, unprotected: FaultOutcome) -> Result<String, String> {
    if protected != FaultOutcome::Masked {
        return Err(format!(
            "DetectInvalidate failed to mask a {} fault ({})",
            plan.target.name(),
            protected.name()
        ));
    }
    if plan.target == FaultTarget::Predictor && unprotected != FaultOutcome::Masked {
        return Err(format!(
            "predictor fault changed architectural state ({})",
            unprotected.name()
        ));
    }
    Ok(format!("{}.{}", plan.field.name(), unprotected.name()))
}

/// Deterministic counts behind the output checks, and the host time
/// of the campaign programs' fault-free runs: per program, the
/// threaded reference and the cycle run under the campaign
/// configuration.
pub fn profile(p: &Params) -> Result<J, String> {
    let progs = build(p)?;
    let (mut ok_programs, mut func_instrs, mut cycles, mut cycle_instrs) = (0u64, 0u64, 0u64, 0u64);
    let (mut func_s, mut cycle_s) = (0f64, 0f64);
    for prog in &progs {
        let machine = Machine::load(&prog.image).map_err(|e| e.to_string())?;
        let sim = ThreadedSim::with_translated(machine, Arc::clone(&prog.translated)).max_steps(MAX_CYCLES);
        let start = Instant::now();
        let reference = sim
            .run()
            .map_err(|e| format!("reference of program seed {}: {e}", prog.seed))?;
        func_s += start.elapsed().as_secs_f64();
        func_instrs += reference.stats.program_instrs;
        if reference.halt_reason != HaltReason::Halted {
            continue;
        }
        ok_programs += 1;
        let machine = Machine::load(&prog.image).map_err(|e| e.to_string())?;
        let mut sim = CycleSim::new(machine, cfg());
        sim.set_predecoded(Arc::clone(&prog.table));
        let start = Instant::now();
        let run = sim
            .run()
            .map_err(|e| format!("cycle run of program seed {}: {e}", prog.seed))?;
        cycle_s += start.elapsed().as_secs_f64();
        if run.machine != reference.machine {
            return Err(format!(
                "program seed {}: cycle and threaded engines disagree on the final state",
                prog.seed
            ));
        }
        cycles += run.stats.cycles;
        cycle_instrs += run.stats.program_instrs;
    }
    Ok(J::obj([
        ("cases", J::Int(p.programs * p.faults)),
        ("verified", J::Int(ok_programs * p.faults)),
        ("skipped", J::Int((p.programs - ok_programs) * p.faults)),
        ("func_instrs", J::Int(func_instrs)),
        ("sim_cycles", J::Int(cycles)),
        ("sim_instrs", J::Int(cycle_instrs)),
        ("func_s", J::Num(func_s)),
        ("cycle_s", J::Num(cycle_s)),
    ]))
}

/// Visit every case block in program order, single-threaded, with its
/// program, fault reference and configurations. Programs whose
/// reference does not halt are skipped, as the driver skips their
/// cases.
fn each_block(
    p: &Params,
    progs: &[Prog],
    mut f: impl FnMut(&Prog, &FaultReference, &[SimConfig], &mut MachinePool) -> Result<(), String>,
) -> Result<(), String> {
    let mut pool = MachinePool::default();
    for (n, prog) in progs.iter().enumerate() {
        let Ok(reference) = fault_reference(&prog.image, cfg(), Some(&prog.table), Some(&prog.translated), &mut pool) else {
            continue;
        };
        let first = n as u64 * p.faults;
        let cases: Vec<u64> = (first..first + p.faults).collect();
        for block in cases.chunks(BATCH) {
            f(prog, &reference, &case_cfgs(p, block).0, &mut pool)?;
        }
    }
    Ok(())
}

/// Share `reference` lookups across a block's cases exactly as the
/// driver does, recording the reference and classification calls.
struct Replay<'a> {
    p: &'a Params,
    progs: Vec<Prog>,
    references: Vec<OnceLock<Option<Arc<FaultReference>>>>,
    n_references: AtomicU64,
    commits: AtomicU64,
}

impl Replay<'_> {
    fn run_block(&self, cases: &[u64], pool: &mut MachinePool) -> Vec<(u64, CaseResult<Option<String>, String>)> {
        let faults = self.p.faults;
        let mut out = Vec::with_capacity(cases.len());
        for group in cases.chunk_by(|a, b| a / faults == b / faults) {
            let prog = &self.progs[(group[0] / faults) as usize];
            let reference = self.references[(group[0] / faults) as usize].get_or_init(|| {
                self.n_references.fetch_add(1, Ordering::Relaxed);
                let r = trace::span("sim.soft_error.reference", || {
                    fault_reference(&prog.image, cfg(), Some(&prog.table), Some(&prog.translated), pool)
                });
                r.ok().map(|r| {
                    self.commits
                        .fetch_add(r.log().records.len() as u64, Ordering::Relaxed);
                    Arc::new(r)
                })
            });
            let Some(reference) = reference else {
                out.extend(group.iter().map(|&i| (i, CaseResult::Done(None))));
                continue;
            };
            let (cfgs, plans) = case_cfgs(self.p, group);
            let outcomes = trace::span("sim.soft_error.classify", || {
                classify_batch(&prog.image, &cfgs, Some(&prog.table), reference, BATCH, pool)
            });
            match outcomes {
                Err(_) => out.extend(group.iter().map(|&i| (i, CaseResult::Done(None)))),
                Ok(outcomes) => {
                    for (j, &i) in group.iter().enumerate() {
                        let v = match verdict(plans[j], outcomes[2 * j], outcomes[2 * j + 1]) {
                            Ok(key) => CaseResult::Done(Some(key)),
                            Err(e) => CaseResult::Fail(format!("case {i}: {e}")),
                        };
                        out.push((i, v));
                    }
                }
            }
        }
        out
    }
}

/// The traced replay of `crisp-fault --target all`.
pub fn replay(p: &Params) -> Result<J, String> {
    trace::enable();
    let start = Instant::now();
    let total = p.programs * p.faults;
    let mut campaign_s = 0.0;
    let report = trace::span("bench.replay", || -> Result<_, String> {
        let replay = Replay {
            p,
            progs: build(p)?,
            references: (0..p.programs).map(|_| OnceLock::new()).collect(),
            n_references: AtomicU64::new(0),
            commits: AtomicU64::new(0),
        };
        let report = trace::span_fanout("cli.campaign.run_campaign", p.jobs as u64, |id| {
            let start = Instant::now();
            let report = run_campaign(
                CampaignSpec {
                    total,
                    jobs: p.jobs,
                    block: BATCH as u64,
                    save_every: u64::MAX,
                    resume_path: None,
                    heartbeat_secs: None,
                    checkpoint: Checkpoint::default(),
                },
                || {
                    trace::adopt(id);
                    MachinePool::default()
                },
                |cases, pool| trace::span("cli.campaign.block", || replay.run_block(cases, pool)),
                |cp, key: Option<String>| match key {
                    Some(key) => {
                        cp.tally("verified", 1);
                        cp.tally(&key, 1);
                    }
                    None => cp.tally("skipped", 1),
                },
                |i, detail| format!("case {i}: {detail}"),
            );
            campaign_s = start.elapsed().as_secs_f64();
            report
        })?;
        Ok((report, replay.n_references.into_inner(), replay.commits.into_inner()))
    });
    let replay_s = start.elapsed().as_secs_f64();
    let (report, references, commits) = report?;
    if let Some(f) = report.failure {
        return Err(format!("replay failed: {f}"));
    }
    if let Some(q) = report.quarantined.first() {
        return Err(format!("replay quarantined {q}"));
    }
    let a = Analysis::of(&trace::take());
    a.check_nesting()?;
    let clock_ns = (replay_s + (p.jobs - 1) as f64 * campaign_s) * 1e9;
    let cases = total as f64;
    let campaign_ns = a.total_ns("cli.campaign.run_campaign");
    Ok(J::obj([
        ("tallies", J::Raw(report.checkpoint.to_json())),
        ("replay_s", J::Num(replay_s)),
        (
            "metrics",
            J::obj([
                ("sim.soft_error.classify.us_per_case", J::Num(a.self_ns("sim.soft_error.classify") / cases / 1e3)),
                ("sim.soft_error.reference.ms", J::Num(a.self_ns("sim.soft_error.reference") / 1e6)),
                ("sim.threaded.translate.ms", J::Num(a.self_ns("sim.threaded.translate") / 1e6)),
                ("sim.predecode.ms", J::Num(a.self_ns("sim.predecode") / 1e6)),
                ("asm.rand_prog.ms", J::Num(a.self_ns("asm.rand_prog") / 1e6)),
                ("cli.campaign.worker_util", J::Num(a.total_ns("cli.campaign.block") / (campaign_ns * p.jobs as f64))),
                ("cli.campaign.self_ms", J::Num(a.self_ns("cli.campaign.run_campaign") / 1e6)),
                ("cli.campaign.block_self_ms", J::Num(a.self_ns("cli.campaign.block") / 1e6)),
                ("count.cases", J::Int(total)),
                ("count.references", J::Int(references)),
                ("count.lockstep_runs", J::Int(2 * total)),
                ("count.commits", J::Int(commits)),
                ("trace.coverage", J::Num(a.coverage("bench.replay", clock_ns))),
                ("trace.reconcile_err", J::Num(a.reconcile_err(clock_ns))),
            ]),
        ),
    ]))
}

/// The lane-width arm: every `BATCH`-sized case block classified at 1
/// lane and at 8 lanes on one thread, alternating which width runs
/// first, with the two outcome lists required to match.
pub fn lanes(p: &Params) -> Result<J, String> {
    let progs = build(p)?;
    let (mut t1, mut t8) = (0f64, 0f64);
    let mut blocks = 0u64;
    each_block(p, &progs, |prog, reference, cfgs, pool| {
        let mut time = |lanes: usize| {
            let t = Instant::now();
            let out = classify_batch(&prog.image, cfgs, Some(&prog.table), reference, lanes, pool)
                .map_err(|e| e.to_string());
            out.map(|o| (t.elapsed().as_secs_f64(), o))
        };
        let ((a, oa), (b, ob)) = if blocks.is_multiple_of(2) {
            let one = time(1)?;
            (one, time(8)?)
        } else {
            let eight = time(8)?;
            (time(1)?, eight)
        };
        if oa != ob {
            return Err(format!("program seed {}: 1-lane and 8-lane outcomes differ", prog.seed));
        }
        t1 += a;
        t8 += b;
        blocks += 1;
        Ok(())
    })?;
    Ok(J::obj([
        ("blocks", J::Int(blocks)),
        ("lane1_s", J::Num(t1)),
        ("lane8_s", J::Num(t8)),
        ("metrics", J::obj([("sim.batch.lane8_speedup", J::Num(t1 / t8))])),
    ]))
}
