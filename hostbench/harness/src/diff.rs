//! The `diff_campaign` workload's in-process halves: the profile of
//! its inputs, the traced replay of `crisp-diff`'s work,
//! and the lane-width arm.
//!
//! The replay mirrors `crisp-diff` with its default threaded engine
//! and the full sweep: per program and fold policy one predecode
//! table, one interpreter reference, the policy's configurations as
//! lockstep batch lanes, and one threaded-vs-interpreter verification.
//! Its compared-commit total must equal the one the shipped driver
//! prints for the same flags.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crisp_asm::rand_prog::GenProgram;
use crisp_asm::Image;
use crisp_cc::{compile_crisp, generate_c, CompileOptions, PredictionMode};
use crisp_cli::campaign::{run_campaign, CampaignSpec, CaseResult};
use crisp_cli::Checkpoint;
use crisp_isa::FoldPolicy;
use crisp_sim::{
    diff_reference, run_lockstep_batched, sweep_configs, verify_threaded_pooled, CycleSim,
    FunctionalSim, LockstepBuffers, LockstepOutcome, Machine, MachinePool, PredecodedImage,
    SimConfig, ThreadedSim, TranslatedImage,
};

use crate::flag;
use crate::json::J;
use crate::trace::{self, Analysis};

/// `crisp-diff`'s defaults for the flags the benchmark leaves unset.
const BATCH: usize = 8;
const MAX_BLOCKS: usize = 10;

/// The campaign's flags, as passed to `crisp-diff`.
pub struct Params {
    pub seed: u64,
    pub programs: u64,
    pub c_programs: u64,
    pub jobs: usize,
}

impl Params {
    pub fn parse(args: &mut Vec<String>) -> Result<Params, String> {
        Ok(Params {
            seed: flag(args, "--seed")?,
            programs: flag(args, "--programs")?,
            c_programs: flag(args, "--c-programs")?,
            jobs: flag(args, "--jobs")?,
        })
    }
}

/// A campaign work item, in `crisp-diff`'s order.
enum Program {
    Asm(GenProgram),
    C { source: String, opts: CompileOptions },
}

impl Program {
    fn image(&self) -> Result<Image, String> {
        match self {
            Program::Asm(p) => trace::span("asm.rand_prog", || p.image()).map_err(|e| format!("assembling: {e}")),
            Program::C { source, opts } => {
                trace::span("cc.compile", || compile_crisp(source, opts)).map_err(|e| format!("compiling: {e}"))
            }
        }
    }
}

fn work_list(p: &Params) -> Vec<Program> {
    let mut work: Vec<Program> = (0..p.programs)
        .map(|i| {
            Program::Asm(trace::span("asm.rand_prog", || {
                GenProgram::generate(p.seed.wrapping_add(i), MAX_BLOCKS)
            }))
        })
        .collect();
    for i in 0..p.c_programs {
        let c = trace::span("cc.rand_c", || generate_c(p.seed.wrapping_add(i)));
        for opts in [
            CompileOptions::default(),
            CompileOptions {
                spread: false,
                prediction: PredictionMode::NotTaken,
            },
        ] {
            work.push(Program::C {
                source: c.source.clone(),
                opts,
            });
        }
    }
    work
}

/// The sweep's configurations grouped by fold policy (the sweep is
/// policy-major).
fn policy_groups(configs: &[SimConfig]) -> Vec<&[SimConfig]> {
    configs.chunk_by(|a, b| a.fold_policy == b.fold_policy).collect()
}

/// Deterministic counts behind the output checks, and the host time
/// of the work items' runs on the default configuration: per program
/// and fold policy, one functional run (the lockstep reference
/// length), then one `CycleSim` and one `ThreadedSim` run.
pub fn profile(p: &Params) -> Result<J, String> {
    let work = work_list(p);
    let configs = sweep_configs();
    let cfg = SimConfig::default();
    let (mut commits, mut cycles, mut cycle_instrs, mut func_instrs) = (0u64, 0u64, 0u64, 0u64);
    let (mut cycle_s, mut func_s) = (0f64, 0f64);
    for (n, program) in work.iter().enumerate() {
        let image = program.image().map_err(|e| format!("work item {n}: {e}"))?;
        let load = || Machine::load(&image).map_err(|e| e.to_string());
        for group in policy_groups(&configs) {
            let run = FunctionalSim::with_policy(load()?, group[0].fold_policy)
                .max_steps(cfg.max_cycles)
                .run()
                .map_err(|e| format!("work item {n}: {e}"))?;
            commits += group.len() as u64 * run.stats.entries;
        }
        let sim = CycleSim::new(load()?, cfg);
        let start = Instant::now();
        let cyc = sim.run().map_err(|e| format!("work item {n}: {e}"))?;
        cycle_s += start.elapsed().as_secs_f64();
        let table = PredecodedImage::shared(&image, cfg.fold_policy).map_err(|e| e.to_string())?;
        let sim = ThreadedSim::with_translated(load()?, Arc::new(TranslatedImage::from_predecoded(table)))
            .max_steps(cfg.max_cycles);
        let start = Instant::now();
        let thr = sim.run().map_err(|e| format!("work item {n}: {e}"))?;
        func_s += start.elapsed().as_secs_f64();
        if cyc.machine != thr.machine {
            return Err(format!("work item {n}: cycle and threaded engines disagree on the final state"));
        }
        cycles += cyc.stats.cycles;
        cycle_instrs += cyc.stats.program_instrs;
        func_instrs += thr.stats.program_instrs;
    }
    Ok(J::obj([
        ("cases", J::Int(work.len() as u64)),
        ("commits", J::Int(commits)),
        ("func_instrs", J::Int(func_instrs)),
        ("sim_cycles", J::Int(cycles)),
        ("sim_instrs", J::Int(cycle_instrs)),
        ("func_s", J::Num(func_s)),
        ("cycle_s", J::Num(cycle_s)),
    ]))
}

/// Counts recorded at the layer boundaries during a replay.
#[derive(Default)]
struct Counts {
    references: AtomicU64,
    reference_instrs: AtomicU64,
    commits: AtomicU64,
    cycles: AtomicU64,
}

/// One work item's sweep, as `crisp-diff`'s `check_program` runs it.
fn check_program(
    program: &Program,
    configs: &[SimConfig],
    lanes: usize,
    bufs: &mut LockstepBuffers,
    pool: &mut MachinePool,
    counts: &Counts,
) -> Result<u64, String> {
    let image = program.image()?;
    let mut commits = 0u64;
    let mut verified: Vec<FoldPolicy> = Vec::with_capacity(4);
    for group in policy_groups(configs) {
        let policy = group[0].fold_policy;
        let table = trace::span("sim.predecode", || PredecodedImage::shared(&image, policy))
            .map_err(|e| format!("predecode: {e}"))?;
        let reference = trace::span("sim.diff.reference", || {
            diff_reference(&image, policy, group[0].max_cycles, Some(&table), pool)
        })
        .map_err(|e| format!("reference: {e}"))?;
        counts.references.fetch_add(1, Ordering::Relaxed);
        counts
            .reference_instrs
            .fetch_add(reference.log().records.len() as u64, Ordering::Relaxed);
        let outcomes = trace::span("sim.diff.lockstep", || {
            run_lockstep_batched(&image, group, Some(&table), &reference, lanes, pool, bufs)
        })
        .map_err(|e| format!("lockstep: {e}"))?;
        for (cfg, out) in group.iter().zip(outcomes) {
            match out {
                LockstepOutcome::Agree { commits: c, cycles } => {
                    commits += c;
                    counts.cycles.fetch_add(cycles, Ordering::Relaxed);
                }
                LockstepOutcome::Diverge(d) => return Err(format!("diverged under {cfg:?}: {d}")),
            }
        }
        if !verified.contains(&policy) {
            verified.push(policy);
            let t = trace::span("sim.threaded.translate", || Arc::new(TranslatedImage::from_predecoded(table)));
            match trace::span("sim.threaded.verify", || verify_threaded_pooled(&image, &t, group[0].max_cycles, bufs)) {
                Ok(None) => {}
                Ok(Some(detail)) => return Err(format!("threaded tier diverged: {detail}")),
                Err(e) => return Err(format!("threaded verify: {e}")),
            }
        }
    }
    counts.commits.fetch_add(commits, Ordering::Relaxed);
    Ok(commits)
}

/// The traced replay of `crisp-diff` (default engine, full sweep).
pub fn replay(p: &Params) -> Result<J, String> {
    trace::enable();
    let start = Instant::now();
    let counts = Counts::default();
    let configs = sweep_configs();
    let mut campaign_s = 0.0;
    let report = trace::span("bench.replay", || -> Result<_, String> {
        let work = work_list(p);
        let total = work.len() as u64;
        let report = trace::span_fanout("cli.campaign.run_campaign", p.jobs as u64, |id| {
            let start = Instant::now();
            let report = run_campaign(
                CampaignSpec {
                    total,
                    jobs: p.jobs,
                    block: 1,
                    save_every: u64::MAX,
                    resume_path: None,
                    heartbeat_secs: None,
                    checkpoint: Checkpoint::default(),
                },
                || {
                    trace::adopt(id);
                    (LockstepBuffers::default(), MachinePool::default())
                },
                |cases, (bufs, pool)| {
                    trace::span("cli.campaign.block", || {
                        cases
                            .iter()
                            .map(|&i| {
                                let r = check_program(&work[i as usize], &configs, BATCH, bufs, pool, &counts);
                                (i, r.map_or_else(|e| CaseResult::Fail(format!("work item {i}: {e}")), CaseResult::Done))
                            })
                            .collect()
                    })
                },
                |cp, commits| cp.tally("commits", commits),
                |i, what| format!("work item {i}: {what}"),
            );
            campaign_s = start.elapsed().as_secs_f64();
            report
        })?;
        Ok((report, total))
    });
    let replay_s = start.elapsed().as_secs_f64();
    let (report, total) = report?;
    if let Some(f) = report.failure {
        return Err(format!("replay failed: {f}"));
    }
    if let Some(q) = report.quarantined.first() {
        return Err(format!("replay quarantined {q}"));
    }
    let a = Analysis::of(&trace::take());
    a.check_nesting()?;
    let clock_ns = (replay_s + (p.jobs - 1) as f64 * campaign_s) * 1e9;
    let runs = total * configs.len() as u64;
    let cycles = counts.cycles.into_inner();
    let reference_instrs = counts.reference_instrs.into_inner();
    let campaign_ns = a.total_ns("cli.campaign.run_campaign");
    Ok(J::obj([
        ("tallies", J::Raw(report.checkpoint.to_json())),
        ("replay_s", J::Num(replay_s)),
        (
            "metrics",
            J::obj([
                ("sim.diff.lockstep.us_per_run", J::Num(a.self_ns("sim.diff.lockstep") / runs as f64 / 1e3)),
                ("sim.diff.reference.ns_per_instr", J::Num(a.self_ns("sim.diff.reference") / reference_instrs as f64)),
                ("sim.threaded.verify.ms", J::Num(a.self_ns("sim.threaded.verify") / 1e6)),
                ("sim.threaded.translate.ms", J::Num(a.self_ns("sim.threaded.translate") / 1e6)),
                ("sim.pipeline.ns_per_cycle", J::Num(a.self_ns("sim.diff.lockstep") / cycles as f64)),
                ("sim.predecode.ms", J::Num(a.self_ns("sim.predecode") / 1e6)),
                ("asm.rand_prog.ms", J::Num(a.self_ns("asm.rand_prog") / 1e6)),
                ("cc.compile.ms", J::Num(a.self_ns("cc.compile") / 1e6)),
                ("cc.rand_c.ms", J::Num(a.self_ns("cc.rand_c") / 1e6)),
                ("cli.campaign.worker_util", J::Num(a.total_ns("cli.campaign.block") / (campaign_ns * p.jobs as f64))),
                ("cli.campaign.self_ms", J::Num(a.self_ns("cli.campaign.run_campaign") / 1e6)),
                ("cli.campaign.block_self_ms", J::Num(a.self_ns("cli.campaign.block") / 1e6)),
                ("count.cases", J::Int(total)),
                ("count.references", J::Int(counts.references.into_inner())),
                ("count.lockstep_runs", J::Int(runs)),
                ("count.sim_cycles", J::Int(cycles)),
                ("count.sim_instrs", J::Int(reference_instrs)),
                ("count.commits", J::Int(counts.commits.into_inner())),
                ("trace.coverage", J::Num(a.coverage("bench.replay", clock_ns))),
                ("trace.reconcile_err", J::Num(a.reconcile_err(clock_ns))),
            ]),
        ),
    ]))
}

/// The lane-width arm: every work item's per-policy lockstep group run
/// at 1 lane and at 8 lanes on one thread, alternating which width runs
/// first, with the outcomes required to match.
pub fn lanes(p: &Params) -> Result<J, String> {
    let work = work_list(p);
    let configs = sweep_configs();
    let mut pool = MachinePool::default();
    let mut bufs = LockstepBuffers::default();
    let (mut t1, mut t8) = (0f64, 0f64);
    let mut groups = 0u64;
    // Per configuration: (commits, cycles) when it agreed.
    type Summary = Vec<Option<(u64, u64)>>;
    let summary = |outs: Vec<LockstepOutcome>| -> Summary {
        outs.into_iter()
            .map(|o| match o {
                LockstepOutcome::Agree { commits, cycles } => Some((commits, cycles)),
                LockstepOutcome::Diverge(_) => None,
            })
            .collect()
    };
    for program in &work {
        let image = program.image()?;
        for group in policy_groups(&configs) {
            let policy = group[0].fold_policy;
            let table = PredecodedImage::shared(&image, policy).map_err(|e| e.to_string())?;
            let reference = diff_reference(&image, policy, group[0].max_cycles, Some(&table), &mut pool)
                .map_err(|e| e.to_string())?;
            let mut time = |lanes: usize| -> Result<(f64, Summary), String> {
                let t = Instant::now();
                let out = run_lockstep_batched(&image, group, Some(&table), &reference, lanes, &mut pool, &mut bufs)
                    .map_err(|e| e.to_string())?;
                Ok((t.elapsed().as_secs_f64(), summary(out)))
            };
            let ((a, oa), (b, ob)) = if groups.is_multiple_of(2) {
                let one = time(1)?;
                (one, time(8)?)
            } else {
                let eight = time(8)?;
                (time(1)?, eight)
            };
            if oa != ob || oa.contains(&None) {
                return Err("1-lane and 8-lane lockstep outcomes differ or diverge".into());
            }
            t1 += a;
            t8 += b;
            groups += 1;
        }
    }
    Ok(J::obj([
        ("blocks", J::Int(groups)),
        ("lane1_s", J::Num(t1)),
        ("lane8_s", J::Num(t8)),
        ("metrics", J::obj([("sim.batch.lane8_speedup", J::Num(t1 / t8))])),
    ]))
}
