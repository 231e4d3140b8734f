//! `crisp-diff` — differential co-simulation campaign driver.
//!
//! Generates seeded random programs (assembly-level hard cases plus
//! compiled mini-C), then runs every one in lockstep on the functional
//! and cycle engines across the full fold-policy × cache-size ×
//! predictor sweep. The first divergence is shrunk to a minimal
//! reproducer and printed with a pipeline-timeline excerpt.
//!
//! ```text
//! crisp-diff [OPTIONS]
//!
//!   --seed N          base seed for the campaign (default 0)
//!   --programs N      generated assembly programs (default 1000)
//!   --c-programs N    generated mini-C programs (default 50)
//!   --max-blocks N    block budget per generated program (default 10)
//!   --jobs N          worker threads (default: available cores)
//!   --max-cycles N    watchdog budget per lockstep run (overrides
//!                     every sweep configuration)
//!   --eu-depth N      execution-unit depth for every sweep
//!                     configuration (2..=8; default 3, the paper's
//!                     IR/OR/RR)
//!   --predictor HW    pin every sweep configuration to one live
//!                     hardware predictor (static | counterN[xM] |
//!                     btb[SxW] | jumptrace[N]) instead of sweeping
//!                     all four
//!   --smoke           bounded CI run (64 asm + 8 C programs)
//!   --resume FILE     checkpoint campaign progress in FILE
//!   --heartbeat SECS  emit a campaign-telemetry JSONL snapshot to
//!                     stderr every SECS seconds (throughput, worker
//!                     utilization, queue depth, p50/p99 case latency,
//!                     ETA) plus a final campaign report
//!   --inject          demonstrate the oracle: run with the
//!                     skip-OR-squash fault injected, expect it to be
//!                     caught and shrunk (takes --seed, --max-blocks
//!                     and --eu-depth; the campaign flags are usage
//!                     errors)
//! ```
//!
//! Worker panics are caught per program, retried once on fresh machine
//! buffers, and quarantined (recorded with the offending seed, skipped,
//! campaign continues) if the retry dies too. Exit status is 0 when
//! every program agrees on every configuration and nothing was
//! quarantined (or when `--inject` catches the planted bug),
//! 1 otherwise.

use std::process::ExitCode;

use crisp_asm::rand_prog::{shrink, GenProgram};
use crisp_cc::{compile_crisp, generate_c, CompileOptions, PredictionMode};
use crisp_cli::campaign::{run_campaign, CampaignSpec, CaseResult};
use crisp_cli::{
    extract_flag, parse_count, parse_eu_depth, parse_heartbeat, parse_max_cycles, parse_num,
    parse_predictor, parse_switch, resume_checkpoint, MAX_PROGRAMS,
};
use crisp_sim::{
    diff_reference, run_lockstep, run_lockstep_batched, sweep_configs, Divergence, FaultInjection,
    LockstepBuffers, LockstepOutcome, MachinePool, PipelineGeometry, PredecodedImage, SimConfig,
};

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("crisp-diff: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One failing (program, configuration) pair from the campaign: the
/// functional and cycle engines diverged in lockstep.
struct Failure {
    program: Program,
    cfg: SimConfig,
    divergence: Divergence,
}

/// A campaign work item: either a generated assembly program or a
/// compiled mini-C program (under one compiler-option set).
enum Program {
    Asm(GenProgram),
    C {
        seed: u64,
        source: String,
        opts: CompileOptions,
    },
}

impl Program {
    fn image(&self) -> Result<crisp_asm::Image, String> {
        match self {
            Program::Asm(p) => p.image().map_err(|e| format!("assembling: {e}")),
            Program::C { source, opts, .. } => {
                compile_crisp(source, opts).map_err(|e| format!("compiling: {e}"))
            }
        }
    }

    fn describe(&self) -> String {
        match self {
            Program::Asm(p) => {
                let kinds: Vec<&str> = p
                    .blocks
                    .iter()
                    .zip(&p.enabled)
                    .filter(|(_, e)| **e)
                    .map(|(b, _)| b.kind.name())
                    .collect();
                format!(
                    "asm seed {} ({} iterations; blocks: {})",
                    p.seed,
                    p.iters,
                    kinds.join(", ")
                )
            }
            Program::C { seed, opts, .. } => format!("mini-C seed {seed} under {opts:?}"),
        }
    }

    fn listing(&self) -> String {
        match self {
            Program::Asm(p) => match p.image() {
                Ok(image) => crisp_asm::listing_of(&image, crisp_isa::FoldPolicy::None)
                    .unwrap_or_else(|(pc, e)| format!("<listing stops at {pc:#x}: {e}>")),
                Err(e) => format!("<listing unavailable: {e}>"),
            },
            Program::C { source, .. } => source.clone(),
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: crisp-diff [--seed N] [--programs N] [--c-programs N] \
             [--max-blocks N] [--jobs N] [--max-cycles N] [--eu-depth N] \
             [--predictor HW] [--smoke] \
             [--resume FILE] [--heartbeat SECS] [--inject]"
        );
        return Ok(ExitCode::SUCCESS);
    }
    let inject = parse_switch(&mut raw, "--inject")?;
    if inject {
        // The demonstration runs one fixed configuration on generated
        // programs until the planted bug shows: campaign flags would be
        // silently ignored.
        let campaign = [
            "--smoke",
            "--programs",
            "--c-programs",
            "--jobs",
            "--predictor",
            "--max-cycles",
            "--resume",
            "--heartbeat",
        ];
        if let Some(flag) = campaign.iter().find(|f| raw.iter().any(|a| a == *f)) {
            return Err(format!("{flag} does not apply to --inject"));
        }
    }
    let smoke = parse_switch(&mut raw, "--smoke")?;
    let seed: u64 = parse_num(&mut raw, "--seed", 0)?;
    let default_programs: u64 = if smoke { 64 } else { 1000 };
    let default_c: u64 = if smoke { 8 } else { 50 };
    let programs = parse_count(&mut raw, "--programs", default_programs, MAX_PROGRAMS)?;
    let c_programs = parse_count(&mut raw, "--c-programs", default_c, MAX_PROGRAMS)?;
    let max_blocks: usize = parse_num(&mut raw, "--max-blocks", 10)?;
    let jobs: usize = parse_num(
        &mut raw,
        "--jobs",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )?;
    let max_cycles = parse_max_cycles(&mut raw)?;
    let geometry = parse_eu_depth(&mut raw)?;
    let predictor = parse_predictor(&mut raw)?;
    let resume_path = extract_flag(&mut raw, "--resume").map_err(|e| e.to_string())?;
    let heartbeat_secs = parse_heartbeat(&mut raw)?;
    if let Some(flag) = raw.first() {
        return Err(format!("unknown flag `{flag}`"));
    }
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }

    if inject {
        return demonstrate_injection(seed, max_blocks, geometry);
    }
    if programs == 0 && c_programs == 0 {
        return Err("--programs and --c-programs are both 0: the campaign has no programs".into());
    }

    // Build the work list up front: sharing `GenProgram`s across
    // threads is cheap and keeps the sweep loop allocation-free.
    let mut work: Vec<Program> = (0..programs)
        .map(|i| Program::Asm(GenProgram::generate(seed.wrapping_add(i), max_blocks)))
        .collect();
    for i in 0..c_programs {
        let c = generate_c(seed.wrapping_add(i));
        for opts in [
            CompileOptions::default(),
            CompileOptions {
                spread: false,
                prediction: PredictionMode::NotTaken,
            },
        ] {
            work.push(Program::C {
                seed: c.seed,
                source: c.source.clone(),
                opts,
            });
        }
    }

    let mut configs = sweep_configs();
    if let Some(mc) = max_cycles {
        for cfg in &mut configs {
            cfg.max_cycles = mc;
        }
    }
    if let Some(geo) = geometry {
        for cfg in &mut configs {
            cfg.geometry = geo;
        }
    }
    if let Some(p) = predictor {
        // Pinning collapses the sweep's predictor dimension; drop the
        // duplicates it leaves behind.
        for cfg in &mut configs {
            cfg.predictor = p;
        }
        configs.dedup();
    }
    let total = work.len() as u64;
    let cp = resume_checkpoint("crisp-diff", resume_path.as_ref(), total, "programs")?;

    println!(
        "crisp-diff: {total} programs x {} configurations on {jobs} threads \
         (base seed {seed})",
        configs.len()
    );

    // One claimed block is one program; check_program runs its whole
    // configuration sweep.
    let run_block = |cases: &[u64], pool: &mut MachinePool| {
        cases
            .iter()
            .map(|&i| {
                let program = &work[i as usize];
                let result = match check_program(program, &configs, pool) {
                    Ok(commits) => CaseResult::Done(commits),
                    Err(CheckFail::Load(msg)) => {
                        CaseResult::Abort(format!("campaign aborted: {msg}"))
                    }
                    Err(CheckFail::Diverge(cfg, d)) => {
                        CaseResult::Fail(shrink_failure(program, cfg, *d))
                    }
                };
                (i, result)
            })
            .collect()
    };
    let report = run_campaign(
        CampaignSpec {
            total,
            jobs,
            block: 1,
            save_every: (jobs as u64 * 8).max(32),
            resume_path: resume_path.as_ref(),
            heartbeat_secs,
            checkpoint: cp,
        },
        MachinePool::default,
        run_block,
        |cp, commits| cp.tally("commits", commits),
        |i, what| format!("{}: {what}", work[i as usize].describe()),
    )?;

    let cp = report.checkpoint;
    let quarantined = report.quarantined;
    match report.failure {
        None => {
            if let Some(path) = &resume_path {
                cp.save(path).map_err(|e| e.to_string())?;
            }
            println!(
                "crisp-diff: all agree ({} commits compared)",
                cp.get("commits")
            );
            let retries = cp.get("retries");
            if retries > 0 || !quarantined.is_empty() {
                println!(
                    "crisp-diff: supervisor retried {retries} program(s), quarantined {}",
                    cp.get("quarantined")
                );
            }
            if quarantined.is_empty() {
                Ok(ExitCode::SUCCESS)
            } else {
                for q in &quarantined {
                    println!("  quarantined : {q}");
                }
                Ok(ExitCode::FAILURE)
            }
        }
        Some(f) => {
            print_failure(&f);
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Why one program's configuration sweep stopped.
enum CheckFail {
    /// The program would not assemble/compile or load — a harness bug.
    Load(String),
    /// The engines disagreed under this configuration. Boxed: the
    /// divergence record is large and the happy path returns `Ok(())`.
    Diverge(SimConfig, Box<Divergence>),
}

/// Run one program across every sweep configuration, returning the
/// number of compared commits. The sweep is grouped by fold policy:
/// each policy's image is decoded once into a shared
/// [`PredecodedImage`], its functional reference commit log is
/// computed once by [`diff_reference`], and all of the policy's
/// configurations then run against that log via
/// [`run_lockstep_batched`] (whose divergence reports are identical
/// to [`run_lockstep`]'s).
fn check_program(
    program: &Program,
    configs: &[SimConfig],
    pool: &mut MachinePool,
) -> Result<u64, CheckFail> {
    let image = program
        .image()
        .map_err(|e| CheckFail::Load(format!("{}: {e}", program.describe())))?;
    let mut commits = 0u64;
    // The sweep orders configurations policy-major; one contiguous
    // group shares a predecode table and a functional reference.
    for group in configs.chunk_by(|a, b| a.fold_policy == b.fold_policy) {
        let policy = group[0].fold_policy;
        let table = PredecodedImage::shared(&image, policy).map_err(|e| {
            CheckFail::Load(format!(
                "{}: predecode failed under {:?}: {e}",
                program.describe(),
                group[0]
            ))
        })?;
        let load_failed = |e| {
            CheckFail::Load(format!(
                "{}: load failed under {:?}: {e}",
                program.describe(),
                group[0]
            ))
        };
        let reference = diff_reference(&image, policy, group[0].max_cycles, Some(&table), pool)
            .map_err(load_failed)?;
        let outcomes = run_lockstep_batched(
            &image,
            group,
            Some(&table),
            &reference,
            1,
            pool,
            &mut LockstepBuffers::default(),
        )
        .map_err(load_failed)?;
        for (cfg, out) in group.iter().zip(outcomes) {
            match out {
                LockstepOutcome::Agree { commits: c, .. } => commits += c,
                LockstepOutcome::Diverge(d) => return Err(CheckFail::Diverge(*cfg, d)),
            }
        }
    }
    Ok(commits)
}

/// Shrink a failing assembly program (mini-C failures are reported
/// whole — the compiler path has no block structure to bisect).
fn shrink_failure(program: &Program, cfg: SimConfig, divergence: Divergence) -> Failure {
    let fails = |p: &GenProgram| {
        p.image()
            .ok()
            .and_then(|image| run_lockstep(&image, cfg).ok())
            .is_some_and(|out| !out.is_agree())
    };
    match program {
        Program::Asm(p) => {
            let min = shrink(p.clone(), fails);
            let divergence = min
                .image()
                .ok()
                .and_then(|image| run_lockstep(&image, cfg).ok())
                .and_then(|out| match out {
                    LockstepOutcome::Diverge(d) => Some(*d),
                    LockstepOutcome::Agree { .. } => None,
                })
                .unwrap_or(divergence);
            Failure {
                program: Program::Asm(min),
                cfg,
                divergence,
            }
        }
        Program::C { seed, source, opts } => Failure {
            program: Program::C {
                seed: *seed,
                source: source.clone(),
                opts: *opts,
            },
            cfg,
            divergence,
        },
    }
}

fn print_failure(f: &Failure) {
    println!("crisp-diff: DIVERGENCE — minimal reproducer follows");
    println!("  program : {}", f.program.describe());
    println!("  config  : {:?}", f.cfg);
    println!();
    for line in f.program.listing().lines() {
        println!("    {line}");
    }
    println!();
    println!("{}", f.divergence);
}

/// `--inject`: plant the skip-OR-squash pipeline bug and prove the
/// oracle catches it with a shrunk reproducer.
fn demonstrate_injection(
    seed: u64,
    max_blocks: usize,
    geometry: Option<PipelineGeometry>,
) -> Result<ExitCode, String> {
    let cfg = SimConfig {
        fault: Some(FaultInjection::SkipOrSquash),
        geometry: geometry.unwrap_or_default(),
        ..SimConfig::default()
    };
    let fails = |p: &GenProgram| {
        p.image()
            .ok()
            .and_then(|image| run_lockstep(&image, cfg).ok())
            .is_some_and(|out| !out.is_agree())
    };
    for i in 0..10_000 {
        let prog = GenProgram::generate(seed.wrapping_add(i), max_blocks);
        if !fails(&prog) {
            continue;
        }
        let min = shrink(prog, fails);
        let image = min.image().map_err(|e| e.to_string())?;
        let divergence = match run_lockstep(&image, cfg).map_err(|e| e.to_string())? {
            LockstepOutcome::Diverge(d) => *d,
            LockstepOutcome::Agree { .. } => return Err("shrunk program stopped failing".into()),
        };
        println!("crisp-diff: injected fault caught (skip-OR-squash)");
        print_failure(&Failure {
            program: Program::Asm(min),
            cfg,
            divergence,
        });
        return Ok(ExitCode::SUCCESS);
    }
    Err("injected fault was never exposed — oracle is blind".into())
}
