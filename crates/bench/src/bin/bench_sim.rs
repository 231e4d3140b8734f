//! Machine-readable simulator-throughput measurement, and a regression
//! gate that compares this build against another build of this binary
//! in the same host window.
//!
//! Runs the hot-path simulation kernels (fresh-load vs the
//! pooled-machine + shared-predecode variants the campaign drivers
//! use) on the Figure 3 workload, the dispatch workload and a
//! fault-campaign block, and prints the minima.
//!
//! ```text
//! bench_sim [--out FILE] [--reduced] [--against PARENT_BIN]
//! ```
//!
//! * `--out FILE`      write the JSON report there
//! * `--reduced`       fewer samples; the CI mode
//! * `--against BIN`   A/B gate: spawn `BIN` (a parent build of this
//!   binary) and this executable in [`PAIRS`] alternating pairs, keep
//!   each row's minimum over each side's spawns, and exit non-zero if
//!   any row of this build is more than [`TOLERANCE`] slower than the
//!   parent's, or the campaign kernel falls below 3x the per-case
//!   shape
//!
//! Timings are the *minimum* wall-clock time over repeated
//! whole-program runs: interference only ever adds time, so the
//! minimum is the stable estimator of the true cost on a shared
//! machine. On virtualised hosts the effective core speed also drifts
//! between whole processes, far beyond any tolerance, so no absolute
//! timing is a usable baseline; only a ratio against the parent build,
//! measured in the same window, is. A spawn that ran in a slow window
//! only raises one sample of its side, which the minimum discards.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use crisp_asm::Image;
use crisp_bench::classify_full_run;
use crisp_cc::{compile_crisp, CompileOptions};
use crisp_cli::{extract_flag, parse_switch};
use crisp_sim::{
    classify_batch, fault_reference, nth_field, CycleSim, FaultPlan, FaultTarget, FunctionalSim,
    Machine, MachinePool, ParityMode, PredecodedImage, SimConfig, ThreadedSim, TranslatedImage,
    FAULT_SPACE,
};
use crisp_workloads::{
    campaign_workloads, dispatch_workload, figure3_large, figure3_with_count, FIGURE3_LARGE_ITERS,
};

/// Parent/change spawn pairs in an A/B run. Even, so each side runs
/// first in half the pairs and an order effect cancels. On a shared
/// 2-core VM 38% of a spawn's rows read 30% or more over that row's
/// best spawn; ten pairs give each side several fast spawns to take
/// its minimum from.
const PAIRS: usize = 10;

/// Largest tolerated slowdown of a row against the parent build, as a
/// fraction of the parent's minimum. Two builds of the same source
/// from different directories differed by up to 9% on a row (code
/// layout), so the tolerance sits above that.
const TOLERANCE: f64 = 0.15;

/// The campaign kernel must run the fault block at least this many
/// times faster than the per-case shape.
const KERNEL_BAR: f64 = 3.0;

struct Measured {
    name: &'static str,
    ns_per_run: u64,
    elements: u64,
}

impl Measured {
    fn melems_per_s(&self) -> f64 {
        if self.ns_per_run == 0 {
            return 0.0;
        }
        self.elements as f64 * 1e3 / self.ns_per_run as f64
    }
}

/// Minimum wall-clock ns over `samples` single runs of `body` (which
/// returns the element count of one run), after `warmup` unmeasured
/// runs.
fn measure(
    name: &'static str,
    warmup: usize,
    samples: usize,
    mut body: impl FnMut() -> u64,
) -> Measured {
    let mut elements = 0;
    for _ in 0..warmup {
        elements = body();
    }
    let mut best = u64::MAX;
    for _ in 0..samples {
        let t0 = Instant::now();
        elements = body();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    Measured {
        name,
        ns_per_run: best,
        elements,
    }
}

fn run_suite(reduced: bool) -> Vec<Measured> {
    // Single runs cost tens of microseconds, so samples are nearly
    // free: take plenty, spanning enough wall-clock that a transient
    // slowdown (post-build thermal throttle, a noisy neighbour burst)
    // cannot inflate every sample of a benchmark.
    let (warmup, samples) = if reduced { (2, 51) } else { (3, 201) };

    let small = compile_crisp(&figure3_with_count(256), &CompileOptions::default())
        .expect("figure 3 compiles");
    let large =
        compile_crisp(&figure3_large(), &CompileOptions::default()).expect("figure 3 compiles");
    let dispatch = compile_crisp(dispatch_workload().source, &CompileOptions::default())
        .expect("dispatch compiles");
    let policy = SimConfig::default().fold_policy;
    let small_table = PredecodedImage::shared(&small, policy).expect("predecodes");
    let large_table = PredecodedImage::shared(&large, policy).expect("predecodes");
    let dispatch_table = PredecodedImage::shared(&dispatch, policy).expect("predecodes");
    // Superinstruction tables for the threaded tier, hoisted exactly as
    // the campaign drivers hoist them: translated once, shared by every
    // pooled run.
    let small_threaded = Arc::new(TranslatedImage::from_predecoded(Arc::clone(&small_table)));
    let large_threaded = Arc::new(TranslatedImage::from_predecoded(Arc::clone(&large_table)));
    let dispatch_threaded = Arc::new(TranslatedImage::from_predecoded(Arc::clone(
        &dispatch_table,
    )));

    let mut out = Vec::new();

    out.push(measure(
        "functional_figure3_256_fresh",
        warmup,
        samples,
        || {
            FunctionalSim::with_policy(Machine::load(&small).unwrap(), policy)
                .run()
                .unwrap()
                .stats
                .program_instrs
        },
    ));
    let mut pool: Option<Machine> = None;
    out.push(measure(
        "functional_figure3_256_pooled",
        warmup,
        samples,
        || {
            let mut m = pool
                .take()
                .unwrap_or_else(|| Machine::load(&small).unwrap());
            m.reset_from(&small).unwrap();
            let run = FunctionalSim::with_predecoded(m, Arc::clone(&small_table))
                .run()
                .unwrap();
            let n = run.stats.program_instrs;
            pool = Some(run.machine);
            n
        },
    ));

    let mut pool: Option<Machine> = None;
    out.push(measure(
        "functional_threaded_figure3_256_pooled",
        warmup,
        samples,
        || {
            let mut m = pool
                .take()
                .unwrap_or_else(|| Machine::load(&small).unwrap());
            m.reset_from(&small).unwrap();
            let run = ThreadedSim::with_translated(m, Arc::clone(&small_threaded))
                .run()
                .unwrap();
            let n = run.stats.program_instrs;
            pool = Some(run.machine);
            n
        },
    ));

    out.push(measure("cycle_figure3_256_fresh", warmup, samples, || {
        CycleSim::new(Machine::load(&small).unwrap(), SimConfig::default())
            .run()
            .unwrap()
            .stats
            .program_instrs
    }));
    let mut pool: Option<Machine> = None;
    out.push(measure("cycle_figure3_256_pooled", warmup, samples, || {
        let mut m = pool
            .take()
            .unwrap_or_else(|| Machine::load(&small).unwrap());
        m.reset_from(&small).unwrap();
        let mut sim = CycleSim::new(m, SimConfig::default());
        sim.set_predecoded(Arc::clone(&small_table));
        let run = sim.run().unwrap();
        let n = run.stats.program_instrs;
        pool = Some(run.machine);
        n
    }));

    // The large workload amortises per-run setup away entirely; only
    // the pooled variants run it (the fresh/pooled split is already
    // covered above, and the long runs dominate CI time).
    let (lwarm, lsamples) = if reduced { (1, 9) } else { (2, 31) };
    let mut pool: Option<Machine> = None;
    out.push(measure(
        "functional_figure3_large_pooled",
        lwarm,
        lsamples,
        || {
            let mut m = pool
                .take()
                .unwrap_or_else(|| Machine::load(&large).unwrap());
            m.reset_from(&large).unwrap();
            let run = FunctionalSim::with_predecoded(m, Arc::clone(&large_table))
                .run()
                .unwrap();
            let n = run.stats.program_instrs;
            pool = Some(run.machine);
            n
        },
    ));
    let mut pool: Option<Machine> = None;
    out.push(measure(
        "functional_threaded_figure3_large_pooled",
        lwarm,
        lsamples,
        || {
            let mut m = pool
                .take()
                .unwrap_or_else(|| Machine::load(&large).unwrap());
            m.reset_from(&large).unwrap();
            let run = ThreadedSim::with_translated(m, Arc::clone(&large_threaded))
                .run()
                .unwrap();
            let n = run.stats.program_instrs;
            pool = Some(run.machine);
            n
        },
    ));
    // The dispatch-loop workload is branchy, indirect-jump-heavy code —
    // the threaded tier's worst case (three and a half thousand deopt
    // falls to the interpreter per run). Benchmarked under both engines
    // so the gate guards the deopt/rejoin path, not just straight-line
    // superblocks.
    let mut pool: Option<Machine> = None;
    out.push(measure(
        "functional_dispatch_pooled",
        lwarm,
        lsamples,
        || {
            let mut m = pool
                .take()
                .unwrap_or_else(|| Machine::load(&dispatch).unwrap());
            m.reset_from(&dispatch).unwrap();
            let run = FunctionalSim::with_predecoded(m, Arc::clone(&dispatch_table))
                .run()
                .unwrap();
            let n = run.stats.program_instrs;
            pool = Some(run.machine);
            n
        },
    ));
    let mut pool: Option<Machine> = None;
    out.push(measure(
        "functional_threaded_dispatch_pooled",
        lwarm,
        lsamples,
        || {
            let mut m = pool
                .take()
                .unwrap_or_else(|| Machine::load(&dispatch).unwrap());
            m.reset_from(&dispatch).unwrap();
            let run = ThreadedSim::with_translated(m, Arc::clone(&dispatch_threaded))
                .run()
                .unwrap();
            let n = run.stats.program_instrs;
            pool = Some(run.machine);
            n
        },
    ));
    let mut pool: Option<Machine> = None;
    out.push(measure(
        "cycle_figure3_large_pooled",
        lwarm,
        lsamples,
        || {
            let mut m = pool
                .take()
                .unwrap_or_else(|| Machine::load(&large).unwrap());
            m.reset_from(&large).unwrap();
            let mut sim = CycleSim::new(m, SimConfig::default());
            sim.set_predecoded(Arc::clone(&large_table));
            let run = sim.run().unwrap();
            let n = run.stats.program_instrs;
            pool = Some(run.machine);
            n
        },
    ));

    // Campaign kernel: the fault-classification loop that dominates
    // `crisp-fault` wall-clock, measured in two shapes over the
    // branch-diverse campaign workloads (sort + fsm). `percase` is the
    // drivers' original loop (`classify_full_run`): every case pays a
    // full functional reference run plus a full cycle-engine faulted
    // run, compared post hoc. The second arm hoists one shared
    // reference per program and runs each faulted case through
    // `classify_batch`, which forks it off a shared fault-free run at
    // its strike cycle and stops it at its first divergent commit or
    // once parity has caught its fault, exactly as `crisp-fault` does.
    // The ratio between the two is the report's campaign speedup
    // headline, and the A/B gate holds it to `KERNEL_BAR`.
    let base = SimConfig {
        max_cycles: 400_000,
        ..SimConfig::default()
    };
    let campaign: Vec<(Image, Arc<PredecodedImage>, Vec<SimConfig>)> = campaign_workloads()
        .iter()
        .map(|w| {
            let image = compile_crisp(w.source, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{} compiles: {e:?}", w.name));
            let table = PredecodedImage::shared(&image, base.fold_policy).expect("predecodes");
            let cfgs = campaign_fault_cases(&image, base);
            (image, table, cfgs)
        })
        .collect();
    let (cwarm, csamples) = if reduced { (1, 5) } else { (1, 15) };
    let mut pool = MachinePool::default();
    out.push(measure("campaign_fault_percase", cwarm, csamples, || {
        let mut n = 0;
        for (image, table, cfgs) in &campaign {
            for cfg in cfgs {
                std::hint::black_box(classify_full_run(image, *cfg, Some(table), &mut pool));
                n += 1;
            }
        }
        n
    }));
    let mut pool = MachinePool::default();
    out.push(measure("campaign_fault_kernel", cwarm, csamples, || {
        let mut n = 0;
        for (image, table, cfgs) in &campaign {
            let reference = fault_reference(image, base, Some(table), None, &mut pool)
                .expect("campaign workloads run");
            let outcomes = classify_batch(image, cfgs, Some(table), &reference, 1, &mut pool)
                .expect("campaign workloads classify");
            n += std::hint::black_box(outcomes.len() as u64);
            pool.put(reference.into_machine());
        }
        n
    }));

    out
}

/// The fault-campaign case block the `campaign_fault_*` benchmarks
/// classify: sixteen cache-fault plans per program that actually land,
/// each classified under parity protection and again unprotected — the
/// same protected/unprotected pairing `crisp-fault` runs per case.
///
/// The plans come from a deterministic pre-pass that keeps candidates
/// whose fault is injected into live decoded state and caught by the
/// parity check under protection. A plan that misses (the slot was
/// empty at the strike cycle, or refilled before its next read) is
/// trivially masked in every kernel shape and would measure nothing but
/// the reference run, so the block samples the campaign's armed cases —
/// the ones classification actually spends its time on.
fn campaign_fault_cases(image: &Image, base: SimConfig) -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    let mut k = 0u64;
    while cfgs.len() < 32 {
        assert!(k < 256, "armed-fault search space exhausted");
        let plan = FaultPlan {
            cycle: 50 + k.wrapping_mul(0x9E37_79B9) % 2000,
            slot: (k % 8) as u32,
            field: nth_field(k.wrapping_mul(13) % FAULT_SPACE),
            target: FaultTarget::Cache,
        };
        k += 1;
        let protected = SimConfig {
            parity: ParityMode::DetectInvalidate,
            fault_plan: Some(plan),
            ..base
        };
        let probe = CycleSim::new(Machine::load(image).expect("workload loads"), protected)
            .run()
            .expect("protected campaign run completes");
        if probe.stats.faults_injected == 0 || probe.stats.parity_invalidates == 0 {
            continue;
        }
        cfgs.push(protected);
        cfgs.push(SimConfig {
            parity: ParityMode::Off,
            ..protected
        });
    }
    cfgs
}

/// `(name, ns_per_run)` rows: one report's results, or one side's
/// minima over its spawns.
type Rows = Vec<(String, u64)>;

fn ns(rows: &[(String, u64)], name: &str) -> Option<u64> {
    rows.iter().find(|(n, _)| n == name).map(|&(_, ns)| ns)
}

/// How many times faster row `fast` ran than row `slow`.
fn speedup(rows: &[(String, u64)], slow: &str, fast: &str) -> Option<f64> {
    match (ns(rows, slow), ns(rows, fast)) {
        (Some(s), Some(f)) if f > 0 => Some(s as f64 / f as f64),
        _ => None,
    }
}

fn render_report(results: &[Measured], reduced: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"crisp-bench-sim/2\",\n");
    s.push_str(&format!("  \"reduced\": {reduced},\n"));
    s.push_str(&format!(
        "  \"workloads\": {{\"small_iters\": 256, \"large_iters\": {FIGURE3_LARGE_ITERS}}},\n"
    ));
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\":\"{}\",\"ns_per_run\":{},\"elements\":{},\"melems_per_s\":{:.2}}}{sep}\n",
            m.name,
            m.ns_per_run,
            m.elements,
            m.melems_per_s()
        ));
    }
    s.push_str("  ],\n");
    let rows: Rows = results
        .iter()
        .map(|m| (m.name.to_string(), m.ns_per_run))
        .collect();
    // The in-window ratios: interpreter vs threaded tier on the same
    // workload, and the fault-campaign block in the per-case shape vs
    // the shared-reference, early-stop kernel.
    let t = speedup(
        &rows,
        "functional_figure3_large_pooled",
        "functional_threaded_figure3_large_pooled",
    );
    let k = speedup(&rows, "campaign_fault_percase", "campaign_fault_kernel");
    s.push_str(&format!(
        "  \"functional_threaded\": {{\"figure3_large_speedup_vs_interp\": {:.2}}},\n",
        t.unwrap_or(0.0)
    ));
    s.push_str(&format!(
        "  \"campaign\": {{\"fault_kernel_speedup_vs_percase\": {:.2}}}\n",
        k.unwrap_or(0.0)
    ));
    s.push_str("}\n");
    s
}

/// Pull `(name, ns_per_run)` pairs back out of a report written by
/// [`render_report`] (one result object per line, fixed key order — a
/// full JSON parser would be overkill for our own format).
fn parse_results(report: &str) -> Rows {
    let mut out = Vec::new();
    let mut rest = report;
    while let Some(i) = rest.find("{\"name\":\"") {
        rest = &rest[i + 9..];
        let Some(q) = rest.find('"') else { break };
        let name = rest[..q].to_string();
        let Some(k) = rest.find("\"ns_per_run\":") else {
            break;
        };
        let digits: String = rest[k + 13..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        match digits.parse() {
            Ok(ns) => out.push((name, ns)),
            Err(_) => break,
        }
    }
    out
}

/// Fold one spawn's rows into a side's running per-row minima.
fn fold_minima(side: &mut Rows, run: Rows) {
    for (name, ns) in run {
        match side.iter_mut().find(|(n, _)| *n == name) {
            Some(row) => row.1 = row.1.min(ns),
            None => side.push((name, ns)),
        }
    }
}

/// Run `bin --out out` once and read back its report's rows.
fn spawn(bin: &Path, reduced: bool, out: &Path) -> Result<Rows, String> {
    let mut cmd = Command::new(bin);
    if reduced {
        cmd.arg("--reduced");
    }
    let status = cmd
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", bin.display()));
    }
    let report =
        std::fs::read_to_string(out).map_err(|e| format!("cannot read {}: {e}", out.display()))?;
    let rows = parse_results(&report);
    if rows.is_empty() {
        return Err(format!("no results in {}", out.display()));
    }
    Ok(rows)
}

/// Spawn `parent` and this executable in [`PAIRS`] alternating pairs;
/// returns each side's per-row minima, parent first.
fn run_pairs(parent: &Path, reduced: bool) -> Result<(Rows, Rows), String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let (mut a, mut b) = (Rows::new(), Rows::new());
    for pair in 0..PAIRS {
        let mut sides = [(parent, &mut a, "parent"), (me.as_path(), &mut b, "change")];
        if pair % 2 == 1 {
            sides.swap(0, 1);
        }
        for (bin, side, label) in sides {
            let out = tmp.join(format!("bench_sim_{pid}_{label}.json"));
            let run = spawn(bin, reduced, &out);
            let _ = std::fs::remove_file(&out);
            fold_minima(side, run?);
        }
        println!("bench_sim: pair {}/{PAIRS} measured", pair + 1);
    }
    Ok((a, b))
}

/// The A/B verdict on both sides' minima, one line per row: every row
/// the two reports share must be within [`TOLERANCE`] of the parent,
/// and the change's campaign kernel must hold [`KERNEL_BAR`]. A row in
/// only one report (a new or renamed benchmark) is not compared.
fn verdict(parent: &[(String, u64)], change: &[(String, u64)]) -> bool {
    let mut ok = true;
    for (name, b) in change {
        let Some(a) = ns(parent, name) else {
            println!("bench_sim: --   {name}: not in the parent's report, not compared");
            continue;
        };
        let ratio = *b as f64 / a as f64;
        let pass = ratio <= 1.0 + TOLERANCE;
        ok &= pass;
        println!(
            "bench_sim: {} {name:<40} {b:>12} ns vs parent {a:>12} ns ({:+.1}%)",
            if pass { "ok  " } else { "FAIL" },
            (ratio - 1.0) * 100.0
        );
    }
    for (name, _) in parent {
        if ns(change, name).is_none() {
            println!("bench_sim: --   {name}: not in this build's report, not compared");
        }
    }
    match speedup(change, "campaign_fault_percase", "campaign_fault_kernel") {
        Some(r) if r >= KERNEL_BAR => {
            println!("bench_sim: ok   campaign kernel is {r:.2}x percase (>= {KERNEL_BAR}x)");
        }
        Some(r) => {
            println!("bench_sim: FAIL campaign kernel is {r:.2}x percase (< {KERNEL_BAR}x)");
            ok = false;
        }
        None => {
            println!("bench_sim: FAIL campaign rows missing from this build's report");
            ok = false;
        }
    }
    ok
}

const USAGE: &str = "usage: bench_sim [--out FILE] [--reduced] [--against PARENT_BIN]";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    out: Option<String>,
    reduced: bool,
    against: Option<String>,
}

fn parse_args(mut raw: Vec<String>) -> Result<Args, String> {
    let out = extract_flag(&mut raw, "--out")?;
    let against = extract_flag(&mut raw, "--against")?;
    let reduced = parse_switch(&mut raw, "--reduced")?;
    if let Some(flag) = raw.first() {
        return Err(format!("unknown flag `{flag}`"));
    }
    if out.is_some() && against.is_some() {
        return Err(
            "`--against` measures in child processes and writes no report; drop `--out`".into(),
        );
    }
    Ok(Args {
        out,
        reduced,
        against,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_sim: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(parent) = &args.against {
        return match run_pairs(Path::new(parent), args.reduced) {
            Ok((a, b)) if verdict(&a, &b) => {
                println!(
                    "bench_sim: within {:.0}% of {parent} on every shared row",
                    TOLERANCE * 100.0
                );
                ExitCode::SUCCESS
            }
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bench_sim: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let results = run_suite(args.reduced);
    for m in &results {
        println!(
            "bench_sim: {:<40} {:>12} ns/run  {:>8.2} Melem/s",
            m.name,
            m.ns_per_run,
            m.melems_per_s()
        );
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, render_report(&results, args.reduced)) {
            eprintln!("bench_sim: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("bench_sim: wrote {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(r: &[(&str, u64)]) -> Rows {
        r.iter().map(|&(n, ns)| (n.to_string(), ns)).collect()
    }

    fn args(a: &str) -> Result<Args, String> {
        parse_args(a.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn report_round_trips_through_parser() {
        let results = vec![
            Measured {
                name: "functional_figure3_256_pooled",
                ns_per_run: 61_000,
                elements: 9737,
            },
            Measured {
                name: "cycle_figure3_256_pooled",
                ns_per_run: 65_000,
                elements: 9737,
            },
        ];
        let report = render_report(&results, true);
        assert_eq!(
            parse_results(&report),
            rows(&[
                ("functional_figure3_256_pooled", 61_000),
                ("cycle_figure3_256_pooled", 65_000),
            ])
        );
    }

    #[test]
    fn flags_parse_like_the_other_tools() {
        assert_eq!(
            args("--reduced --against ../p/bench_sim"),
            Ok(Args {
                out: None,
                reduced: true,
                against: Some("../p/bench_sim".into()),
            })
        );
        assert_eq!(args("--out").unwrap_err(), "--out requires a value");
        assert_eq!(
            args("--out a.json --out b.json").unwrap_err(),
            "`--out` given more than once"
        );
        assert_eq!(
            args("--reduced --reduced").unwrap_err(),
            "`--reduced` given more than once"
        );
        assert_eq!(
            args("--check BENCH_sim.json").unwrap_err(),
            "unknown flag `--check`"
        );
        assert!(args("--out a.json --against p").is_err());
    }

    #[test]
    fn minima_fold_per_row_over_spawns() {
        let mut side = Rows::new();
        fold_minima(&mut side, rows(&[("x", 10), ("y", 5)]));
        fold_minima(&mut side, rows(&[("x", 7), ("y", 9), ("z", 1)]));
        assert_eq!(side, rows(&[("x", 7), ("y", 5), ("z", 1)]));
    }

    #[test]
    fn verdict_gates_shared_rows_and_the_kernel_bar() {
        let campaign = [
            ("campaign_fault_percase", 400),
            ("campaign_fault_kernel", 100),
        ];
        let limit = (1000.0 * (1.0 + TOLERANCE)) as u64;
        let parent = rows(&[("x", 1000), ("old_name", 1), campaign[0], campaign[1]]);
        let within = rows(&[("x", limit - 1), ("new_name", 9), campaign[0], campaign[1]]);
        assert!(verdict(&parent, &within), "renamed rows are not compared");
        let slower = rows(&[("x", limit + 2), campaign[0], campaign[1]]);
        assert!(!verdict(&parent, &slower));
        let weak_kernel = rows(&[("campaign_fault_percase", 290), campaign[1]]);
        assert!(!verdict(&parent, &weak_kernel));
        assert!(!verdict(&parent, &rows(&[("x", 1000)])));
    }
}
