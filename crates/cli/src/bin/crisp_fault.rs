//! `crisp-fault` — whole-front-end fault-injection campaign driver.
//!
//! Generates seeded random programs, injects single-bit transient
//! faults into live front-end state — decoded-cache entries, dynamic
//! predictor tables (BTB tags/counters/valid bits, saturating
//! counters, jump-trace entries) or PDU fold slots — at chosen cycles,
//! and measures the outcome twice per fault:
//!
//! * Under `ParityMode::DetectInvalidate` every injected fault must be
//!   masked — the parity check detects the flip at issue (cache) or at
//!   the fill port (PDU), the entry is invalidated and redecoded, and
//!   the commit stream matches the fault-free reference. Anything else
//!   is a bug in the recovery path and fails the campaign.
//! * Under `ParityMode::Off` each cache/PDU fault is classified as
//!   masked, SDC (silent data corruption), control-flow divergence or
//!   hang, accumulating AVF-style per-field vulnerability statistics.
//!   Predictor-state faults are held to a stricter bar: they may only
//!   ever cost cycles, so a non-masked outcome in *either* phase is an
//!   architectural-safety violation and fails the campaign.
//!
//! A strike that may only cost cycles can still end in a `hang`: the
//! cycles it cost pushed a clean run past `--max-cycles`. The safety
//! check re-judges such a case (any protected case, and an unprotected
//! predictor case) on twice `--max-cycles` and fails it only if it is
//! then not masked. The AVF row keeps the `hang`.
//!
//! ```text
//! crisp-fault [OPTIONS]
//!
//!   --seed N          base seed for the campaign (default 0)
//!   --programs N      generated programs (default 8)
//!   --faults N        faults injected per program (default 64)
//!   --max-blocks N    block budget per generated program (default 10)
//!   --jobs N          worker threads (default: available cores)
//!   --max-cycles N    watchdog budget per run (default 200000)
//!   --eu-depth N      execution-unit depth for every run (2..=8;
//!                     default 3, the paper's IR/OR/RR)
//!   --predictor HW    live hardware predictor for every run (static |
//!                     counterN[xM] | btb[SxW] | jumptrace[N]) —
//!                     recovery must mask faults under any predictor
//!   --target T        front-end structure to strike: cache | btb |
//!                     pdu | all (default cache; btb needs a dynamic
//!                     --predictor)
//!   --smoke           bounded CI run (2 programs x 32 faults)
//!   --resume FILE     checkpoint campaign progress in FILE
//!   --report FILE     write the JSON AVF report to FILE
//!   --heartbeat SECS  emit JSONL campaign snapshots to stderr every
//!                     SECS seconds, plus a final campaign report
//! ```
//!
//! One program is the unit of work: a worker claims all `--faults`
//! cases of one program as one block, computes the program's
//! fault-free reference commit log, and classifies both phases of
//! every case in one [`classify_batch`] call, which forks each faulted
//! run off one fault-free cycle run per phase as its strike lands and
//! stops it as soon as its verdict is fixed. The ejects, first match
//! wins: a cache strike on an empty slot, or a strike at or past the
//! fault-free halt (or still armed there), takes the fault-free verdict
//! without forking; a fork stops at its first divergent commit, or once
//! parity has caught its fault; and a fork whose state rejoins the
//! fault-free run's, Δ cycles late, takes the fault-free verdict too,
//! except that it is a hang when the fault-free halt cycle + Δ exceeds
//! `--max-cycles`. No eject changes a verdict. Parallelism is therefore
//! across programs: a campaign with fewer programs than `--jobs`
//! leaves workers idle. Worker panics are contained per block: the
//! block is re-run case by case on fresh machine buffers and only a
//! case that panics solo is quarantined (recorded, skipped, campaign
//! continues) — a single pathological case can no longer abort a
//! multi-hour campaign. Exit status is 0 when every fault is recovered
//! under parity protection and nothing was quarantined, 1 otherwise.

use std::process::ExitCode;

use crisp_asm::rand_prog::{GenProgram, Rng};
use crisp_cli::campaign::{run_campaign, CampaignSpec, CaseResult};
use crisp_cli::{
    extract_flag, parse_count, parse_eu_depth, parse_heartbeat, parse_max_cycles, parse_num,
    parse_predictor, parse_switch, resume_checkpoint, target_space, Checkpoint, MAX_PROGRAMS,
};
use crisp_sim::{
    classify_batch, fault_reference, report_rows, FaultOutcome, FaultPlan, FaultSpace, FaultTarget,
    HwPredictor, MachinePool, ParityMode, PipelineGeometry, PredecodedImage, SimConfig,
};

/// Largest `--faults`: one program's cases are one block, and a block
/// holds two configs and two outcomes per case, so the bound keeps a
/// typo from asking for an unallocatable block. 2^16 is a thousand
/// times the default 64 faults per program.
const MAX_FAULTS: u64 = 1 << 16;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("crisp-fault: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One failed campaign case: the parity recovery missed an injected
/// fault, or a predictor-state fault leaked into architectural state.
struct Failure {
    program_seed: u64,
    plan: FaultPlan,
    detail: String,
}

/// One quarantined case: the worker died twice on it (panic in a
/// block, panic again solo), so the supervisor set it aside and kept
/// the campaign going.
struct Quarantine {
    case: u64,
    program_seed: u64,
    plan: FaultPlan,
    detail: String,
}

/// Derive the deterministic fault plan for campaign case `case`. The
/// strike target rotates through `targets` per-case via the same
/// seeded stream that picks the cycle, slot and field, so a resumed
/// campaign replays exactly the plans it would have run uninterrupted.
fn plan_for(
    seed: u64,
    case: u64,
    icache_entries: u64,
    targets: &[FaultTarget],
    predictor: HwPredictor,
) -> FaultPlan {
    let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(case));
    let target = targets[rng.below(targets.len() as u64) as usize];
    // Bias strike cycles toward the start of the run so most faults
    // land before the program halts.
    let cycle = rng.below(400);
    // `targets` only holds targets with state under `predictor`.
    let space = FaultSpace::of(target, predictor).expect("parse_targets keeps stateful targets");
    let slots = match target {
        FaultTarget::Cache => icache_entries,
        // The corrupter indexes resident entries modulo occupancy; any
        // slot number is a valid strike point.
        FaultTarget::Predictor => 1 << 10,
        // Taken modulo the in-flight queue length at fire time; 8
        // covers the deepest PIR pipeline.
        FaultTarget::Pdu => 8,
    };
    // The predictor target draws its site before its slot. The draw
    // order is part of the campaign definition: keep it per target.
    let (slot, site) = if target == FaultTarget::Predictor {
        let site = rng.below(space.size());
        (rng.below(slots), site)
    } else {
        let slot = rng.below(slots);
        (slot, rng.below(space.size()))
    };
    FaultPlan {
        cycle,
        slot: slot as u32,
        field: space.nth(site),
        target,
    }
}

/// Judge one finished case from its two [`classify_batch`] outcomes.
///
/// `Fail` means the parity-protected run did NOT reconverge to the
/// fault-free commit stream — a recovery bug — or, for predictor-state
/// faults, that the *unprotected* run diverged architecturally, which
/// the predictor contract forbids outright (a wrong prediction may
/// cost cycles, never correctness). A `Hang` in a phase held to that
/// bar is only a budget verdict: `rejudge` classifies the phase again
/// on twice the budget, and its outcome decides.
fn case_verdict(
    program_seed: u64,
    plan: FaultPlan,
    protected: FaultOutcome,
    unprotected: FaultOutcome,
    mut rejudge: impl FnMut(ParityMode) -> FaultOutcome,
) -> CaseResult<Option<String>, Failure> {
    let mut judge = |outcome, parity| match outcome {
        FaultOutcome::Hang => rejudge(parity),
        _ => outcome,
    };
    let detail = match judge(protected, ParityMode::DetectInvalidate) {
        FaultOutcome::Masked if plan.target != FaultTarget::Predictor => None,
        FaultOutcome::Masked => match judge(unprotected, ParityMode::Off) {
            FaultOutcome::Masked => None,
            o => Some(format!(
                "predictor-state fault changed architectural state with parity off \
                 (outcome: {})",
                o.name()
            )),
        },
        o => Some(format!(
            "DetectInvalidate failed to mask the {} fault (outcome: {})",
            plan.target.name(),
            o.name()
        )),
    };
    match detail {
        Some(detail) => CaseResult::Fail(Failure {
            program_seed,
            plan,
            detail,
        }),
        None => CaseResult::Done(Some(format!(
            "{}.{}",
            plan.field.name(),
            unprotected.name()
        ))),
    }
}

/// Parse `--target` into the set of structures this campaign strikes:
/// one target, or `all` targets with state under `predictor`.
fn parse_targets(spec: &str, predictor: HwPredictor) -> Result<Vec<FaultTarget>, String> {
    if spec == "all" {
        return Ok(FaultTarget::ALL
            .into_iter()
            .filter(|&t| FaultSpace::of(t, predictor).is_some())
            .collect());
    }
    let target = FaultTarget::parse(spec)
        .ok_or_else(|| format!("--target: bad value `{spec}` (want cache | btb | pdu | all)"))?;
    target_space("--target", target, predictor)?;
    Ok(vec![target])
}

/// The flags that define a campaign's work list or its verdicts:
/// equal `Campaign`s run the same cases and judge them the same way.
/// Worker count, checkpoint, report and heartbeat flags change
/// neither.
#[derive(Debug, Clone, PartialEq)]
struct Campaign {
    seed: u64,
    programs: u64,
    faults: u64,
    max_blocks: usize,
    max_cycles: u64,
    geometry: PipelineGeometry,
    predictor: HwPredictor,
    target_spec: String,
}

impl Campaign {
    /// Take the campaign-defining flags (and `--smoke`, which only
    /// changes the `--programs` / `--faults` defaults) out of `raw`.
    fn parse(raw: &mut Vec<String>) -> Result<Campaign, String> {
        let smoke = parse_switch(raw, "--smoke")?;
        let (default_programs, default_faults) = if smoke { (2, 32) } else { (8, 64) };
        Ok(Campaign {
            seed: parse_num(raw, "--seed", 0)?,
            programs: parse_count(raw, "--programs", default_programs, MAX_PROGRAMS)?,
            faults: parse_count(raw, "--faults", default_faults, MAX_FAULTS)?,
            max_blocks: parse_num(raw, "--max-blocks", 10)?,
            max_cycles: parse_max_cycles(raw)?.unwrap_or(200_000),
            geometry: parse_eu_depth(raw)?.unwrap_or_default(),
            predictor: parse_predictor(raw)?.unwrap_or(SimConfig::default().predictor),
            target_spec: extract_flag(raw, "--target")?.unwrap_or_else(|| "cache".into()),
        })
    }

    /// The command line that re-runs exactly this campaign.
    fn reproduce(&self) -> String {
        format!(
            "crisp-fault --seed {} --programs {} --faults {} --max-blocks {} \
             --max-cycles {} --eu-depth {} --predictor {} --target {}",
            self.seed,
            self.programs,
            self.faults,
            self.max_blocks,
            self.max_cycles,
            self.geometry.depth(),
            self.predictor.label(),
            self.target_spec
        )
    }
}

fn run() -> Result<ExitCode, String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: crisp-fault [--seed N] [--programs N] [--faults N] [--max-blocks N] \
             [--jobs N] [--max-cycles N] [--eu-depth N] [--predictor HW] \
             [--target cache|btb|pdu|all] [--smoke] \
             [--resume FILE] [--report FILE] [--heartbeat SECS]"
        );
        return Ok(ExitCode::SUCCESS);
    }
    let campaign = Campaign::parse(&mut raw)?;
    let Campaign {
        seed,
        programs,
        faults,
        max_blocks,
        max_cycles,
        geometry,
        predictor,
        ..
    } = campaign;
    let target_spec = &campaign.target_spec;
    let jobs: usize = parse_num(
        &mut raw,
        "--jobs",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )?;
    let targets = parse_targets(target_spec, predictor)?;
    let resume_path = extract_flag(&mut raw, "--resume")?;
    let report_path = extract_flag(&mut raw, "--report")?;
    let heartbeat_secs = parse_heartbeat(&mut raw)?;
    if let Some(flag) = raw.first() {
        return Err(format!("unknown flag `{flag}`"));
    }
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    if programs == 0 || faults == 0 {
        return Err("--programs and --faults must be at least 1".into());
    }
    // The bounds keep this far inside 64 bits.
    let total = programs * faults;

    // The work list is deterministic in (seed, programs, faults,
    // max_blocks, targets), which is what makes --resume sound: case i
    // always means the same (program, fault plan) pair. Each image is
    // decoded once here; every fault case (and both phases within a
    // case) shares the predecoded table.
    let fold_policy = SimConfig::default().fold_policy;
    let mut images = Vec::with_capacity(programs as usize);
    for p in 0..programs {
        let pseed = seed.wrapping_add(p);
        let prog = GenProgram::generate(pseed, max_blocks);
        let image = prog
            .image()
            .map_err(|e| format!("assembling program seed {pseed}: {e}"))?;
        let table = PredecodedImage::shared(&image, fold_policy)
            .map_err(|e| format!("predecoding program seed {pseed}: {e}"))?;
        images.push((pseed, image, table));
    }
    let icache_entries = SimConfig::default().icache_entries as u64;
    let cp = resume_checkpoint("crisp-fault", resume_path.as_ref(), total, "cases")?;

    println!(
        "crisp-fault: {programs} programs x {faults} faults on {jobs} threads \
         (base seed {seed}, target {target_spec})"
    );

    // Run one claimed block: the cases of one program (all of them, or
    // the rest after a resume, or one on a solo retry). Compute the
    // program's fault-free reference and classify both phases of every
    // case against it. A reference that does not halt within the
    // watchdog budget, like a load failure or a fault-free cycle run
    // that overruns --max-cycles, is deterministic per program: every
    // case of the block is tallied skipped.
    let run_block = |cases: &[u64], pool: &mut MachinePool| {
        let (pseed, image, table) = &images[(cases[0] / faults) as usize];
        let skipped = || cases.iter().map(|&i| (i, CaseResult::Done(None))).collect();
        let cfg = SimConfig {
            max_cycles,
            geometry,
            predictor,
            ..SimConfig::default()
        };
        let Ok(reference) = fault_reference(image, cfg, Some(table), None, pool) else {
            return skipped();
        };
        let plans: Vec<FaultPlan> = cases
            .iter()
            .map(|&i| plan_for(seed, i, icache_entries, &targets, predictor))
            .collect();
        let cfgs: Vec<SimConfig> = plans
            .iter()
            .flat_map(|&plan| {
                let protected = SimConfig {
                    parity: ParityMode::DetectInvalidate,
                    fault_plan: Some(plan),
                    ..cfg
                };
                [
                    protected,
                    SimConfig {
                        parity: ParityMode::Off,
                        ..protected
                    },
                ]
            })
            .collect();
        let Ok(outcomes) = classify_batch(image, &cfgs, Some(table), &reference, 1, pool) else {
            pool.put(reference.into_machine());
            return skipped();
        };
        // A re-judged case runs against the same, halted, reference.
        // The block's fault-free cycle run fit --max-cycles, so twice
        // the budget leaves at least one whole fault-free run of slack
        // for the cycles a strike cost; a livelock still hangs.
        let results = cases
            .iter()
            .zip(plans)
            .zip(outcomes.chunks_exact(2))
            .map(|((&i, plan), o)| {
                let rejudge = |parity| {
                    let cfg = SimConfig {
                        parity,
                        fault_plan: Some(plan),
                        max_cycles: max_cycles.saturating_mul(2),
                        ..cfg
                    };
                    classify_batch(image, &[cfg], Some(table), &reference, 1, pool)
                        .map_or(FaultOutcome::Hang, |o| o[0])
                };
                (i, case_verdict(*pseed, plan, o[0], o[1], rejudge))
            })
            .collect();
        pool.put(reference.into_machine());
        results
    };
    let report = run_campaign(
        CampaignSpec {
            total,
            jobs,
            block: faults,
            save_every: (jobs as u64 * 32).max(64),
            resume_path: resume_path.as_ref(),
            heartbeat_secs,
            checkpoint: cp,
        },
        MachinePool::default,
        run_block,
        |cp, key: Option<String>| match key {
            Some(key) => {
                cp.tally("verified", 1);
                cp.tally(&key, 1);
            }
            None => cp.tally("skipped", 1),
        },
        |i, detail| Quarantine {
            case: i,
            program_seed: images[(i / faults) as usize].0,
            plan: plan_for(seed, i, icache_entries, &targets, predictor),
            detail,
        },
    )?;

    let cp = report.checkpoint;
    if let Some(f) = report.failure {
        println!("crisp-fault: FAILURE");
        println!("  program seed : {}", f.program_seed);
        println!(
            "  fault plan   : target {} cycle {} slot {} field {}",
            f.plan.target.name(),
            f.plan.cycle,
            f.plan.slot,
            f.plan.field
        );
        println!("  detail       : {}", f.detail);
        println!("  reproduce    : {}", campaign.reproduce());
        return Ok(ExitCode::FAILURE);
    }

    if let Some(path) = &resume_path {
        cp.save(path)?;
    }
    let quarantined = report.quarantined;
    print_report(&cp, programs, faults, &quarantined, report_path.as_deref())?;
    if !quarantined.is_empty() {
        println!(
            "crisp-fault: {} case(s) quarantined — campaign completed, but the \
             quarantined plans need investigation",
            quarantined.len()
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Per-field outcome counts pulled back out of the checkpoint tallies.
struct FieldRow {
    field: &'static str,
    counts: [u64; 4],
    total: u64,
    avf: f64,
}

fn field_rows(cp: &Checkpoint) -> Vec<FieldRow> {
    report_rows()
        .into_iter()
        .map(|field| {
            let mut counts = [0u64; 4];
            for (slot, outcome) in FaultOutcome::ALL.iter().enumerate() {
                counts[slot] = cp.get(&format!("{field}.{}", outcome.name()));
            }
            let total: u64 = counts.iter().sum();
            // Architectural Vulnerability Factor: the fraction of
            // injected faults that were NOT masked.
            let avf = if total == 0 {
                0.0
            } else {
                1.0 - counts[0] as f64 / total as f64
            };
            FieldRow {
                field,
                counts,
                total,
                avf,
            }
        })
        .collect()
}

fn print_report(
    cp: &Checkpoint,
    programs: u64,
    faults: u64,
    quarantined: &[Quarantine],
    report_path: Option<&str>,
) -> Result<(), String> {
    let rows = field_rows(cp);
    let verified = cp.get("verified");
    let skipped = cp.get("skipped");
    let retries = cp.get("retries");
    let quarantined_total = cp.get("quarantined");

    println!("crisp-fault: {verified} faults recovered under DetectInvalidate, {skipped} skipped");
    if retries > 0 || quarantined_total > 0 {
        println!("  supervisor   : {retries} case(s) retried, {quarantined_total} quarantined");
    }
    println!(
        "  {:<11} {:>6} {:>7} {:>5} {:>9} {:>5}   {:>6}",
        "field", "total", "masked", "sdc", "ctrl-div", "hang", "AVF"
    );
    for r in &rows {
        if r.total == 0 {
            continue;
        }
        println!(
            "  {:<11} {:>6} {:>7} {:>5} {:>9} {:>5}   {:>6.3}",
            r.field, r.total, r.counts[0], r.counts[1], r.counts[2], r.counts[3], r.avf
        );
    }
    for q in quarantined {
        println!(
            "  quarantined  : case {} (seed {}, target {} cycle {} slot {} field {}): {}",
            q.case,
            q.program_seed,
            q.plan.target.name(),
            q.plan.cycle,
            q.plan.slot,
            q.plan.field,
            q.detail
        );
    }

    let mut json = format!(
        "{{\"programs\":{programs},\"faults_per_program\":{faults},\"cases\":{},\
         \"verified\":{verified},\"skipped\":{skipped},\"retries\":{retries},\
         \"quarantined\":{quarantined_total},\"fields\":[",
        cp.completed
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"field\":\"{}\",\"masked\":{},\"sdc\":{},\"control-divergence\":{},\
             \"hang\":{},\"total\":{},\"avf\":{:.6}}}",
            r.field, r.counts[0], r.counts[1], r.counts[2], r.counts[3], r.total, r.avf
        ));
    }
    json.push_str("],\"quarantined_cases\":[");
    for (i, q) in quarantined.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"case\":{},\"program_seed\":{},\"target\":\"{}\",\"cycle\":{},\
             \"slot\":{},\"field\":\"{}\"}}",
            q.case,
            q.program_seed,
            q.plan.target.name(),
            q.plan.cycle,
            q.plan.slot,
            q.plan.field.name()
        ));
    }
    json.push_str("]}");

    match report_path {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            println!("crisp-fault: report written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Campaign {
        let mut raw: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let campaign = Campaign::parse(&mut raw).expect("flags parse");
        assert!(raw.is_empty(), "unconsumed flags {raw:?}");
        campaign
    }

    #[test]
    fn reproduce_line_round_trips_every_campaign_flag() {
        let flags: [&[&str]; 9] = [
            &[],
            &["--seed", "200006"],
            &["--programs", "3", "--faults", "5"],
            &["--smoke"],
            &["--max-blocks", "4"],
            &["--max-cycles", "300"],
            &["--eu-depth", "5"],
            &["--predictor", "btb16x2"],
            &["--target", "all", "--predictor", "counter3x8"],
        ];
        for given in flags {
            let campaign = parse(given);
            let line = campaign.reproduce();
            let args: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(args[0], "crisp-fault");
            assert_eq!(parse(&args[1..]), campaign, "{given:?} -> {line}");
        }
        // Every non-default value shows up in the line.
        let line = parse(&["--predictor", "btb", "--max-cycles", "300"]).reproduce();
        assert!(line.contains("--predictor btb128x4"), "{line}");
        assert!(line.contains("--max-cycles 300"), "{line}");
    }
}
