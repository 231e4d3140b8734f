//! Machine-readable simulator-throughput measurement with a regression
//! gate.
//!
//! Runs the hot-path simulation kernels (fresh-load vs the
//! pooled-machine + shared-predecode variants the campaign drivers
//! use) on the Figure 3 workload, and writes the minima to a JSON
//! report — the committed copy at the repo root (`BENCH_sim.json`) is
//! the throughput baseline CI guards against.
//!
//! ```text
//! bench_sim [--out FILE] [--reduced] [--passes N] [--check BASELINE] [--tolerance PCT]
//! ```
//!
//! * `--out FILE`      write the JSON report there (default `BENCH_sim.json`)
//! * `--reduced`       fewer samples; the CI smoke mode
//! * `--passes N`      run the whole suite N times spread over time and
//!   keep per-benchmark minima — use `--passes 4` when regenerating the
//!   committed baseline so it records fast-window numbers
//! * `--check FILE`    after measuring, compare each benchmark against
//!   the named baseline report and exit non-zero if any is more than
//!   `--tolerance` percent slower (default 15)
//!
//! Timings are the *minimum* wall-clock time over repeated
//! whole-program runs: interference only ever adds time, so the
//! minimum is the stable estimator of the true cost on a shared
//! machine — medians were observed to swing by tens of percent between
//! invocations on busy hosts.
//!
//! Two further defences make `--check` reliable on virtualised hosts,
//! where the effective core speed was observed to flip between a fast
//! and a ~35%-slower state for seconds at a time (hypervisor/neighbour
//! effects invisible to the guest — thread CPU time tracked wall time
//! to 0.1%, so this is not preemption, and no in-process calibration
//! kernel tracked it):
//!
//! * a fixed calibration kernel is timed into every report, and
//!   `--check` scales the baseline by the calibration ratio — this
//!   normalises *hardware* differences (a permanently slower CI
//!   runner) where kernel and simulator scale together;
//! * a failed check re-measures with sleeps in between, folding each
//!   pass into the running minima, until it passes or the attempt
//!   budget is exhausted — this rides out *transient* slow windows.
//!   The gate can only false-fail, never false-pass: a real >tolerance
//!   code regression stays over tolerance in every window, fast or
//!   slow, so no amount of retrying launders it.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use crisp_asm::Image;
use crisp_bench::classify_full_run;
use crisp_cc::{compile_crisp, CompileOptions};
use crisp_sim::{
    classify_batch, fault_reference, nth_field, CycleSim, FaultPlan, FaultTarget, FunctionalSim,
    Machine, MachinePool, ParityMode, PredecodedImage, SimConfig, ThreadedSim, TranslatedImage,
    FAULT_SPACE,
};
use crisp_workloads::{
    campaign_workloads, dispatch_workload, figure3_large, figure3_with_count, FIGURE3_LARGE_ITERS,
};

/// Seed-commit medians (ns per run, `cargo bench` on the reference
/// host) for the benchmarks that existed before the pooled kernels.
/// `speedup_vs_seed` in the report is computed against these.
const SEED_FUNCTIONAL_256_NS: u64 = 153_135;
const SEED_CYCLE_256_NS: u64 = 91_896;

/// Attempt budget for `--check`: total measurement passes before an
/// over-tolerance result is declared a real regression. Slow host
/// windows observed on shared VMs last seconds to a few tens of
/// seconds; ten passes spaced [`RETRY_SLEEP_MS`] apart span about a
/// minute, comfortably past the windows observed in practice. The
/// typical (quiet-host) cost is one pass.
const CHECK_ATTEMPTS: u32 = 10;
const RETRY_SLEEP_MS: u64 = 4_000;

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

/// Host-speed probe: a fixed deterministic integer/memory kernel of
/// the same character as the simulator hot loops (xorshift arithmetic,
/// data-dependent branches, loads and stores over a 64 KiB working
/// set). Its minimum wall-clock time tracks how fast this host runs
/// *this kind of code* right now; `--check` uses the ratio against the
/// baseline's recorded value to compare like with like across hosts
/// and across frequency-scaling states.
fn calibrate() -> u64 {
    const WORDS: usize = 16 * 1024;
    let mut arr = vec![0u32; WORDS];
    let mut sink = 0u32;
    let mut best = u64::MAX;
    for _ in 0..9 {
        let t0 = Instant::now();
        let mut x = 0x1234_5678u32;
        for _ in 0..400_000u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let idx = (x as usize) % WORDS;
            let v = arr[idx].wrapping_add(x);
            arr[idx] = v;
            if v & 1 == 0 {
                sink = sink.wrapping_add(v);
            } else {
                sink ^= v.rotate_left(7);
            }
        }
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    std::hint::black_box(sink);
    best
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
    // headline. The second arm once stepped cases through an 8-lane
    // batch; it keeps the `campaign_fault_batched8` row name so the
    // committed `BENCH_sim.json` baseline still matches it.
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
    out.push(measure("campaign_fault_batched8", cwarm, csamples, || {
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

/// One deterministic instrumented run of the large workload: the
/// top-down cycle accounting the throughput numbers decompose into.
/// Recorded alongside the timings so a throughput regression can be
/// read against where the simulated cycles actually went. The leading
/// key is deliberately not `name` — [`parse_results`] scans for
/// `{"name":"` and must not pick this object up as a benchmark.
fn cpi_breakdown() -> String {
    let large =
        compile_crisp(&figure3_large(), &CompileOptions::default()).expect("figure 3 compiles");
    let run = CycleSim::new(Machine::load(&large).unwrap(), SimConfig::default())
        .run()
        .expect("figure 3 runs");
    format!(
        "{{\"workload\":\"cycle_figure3_large\",\"cycles\":{},\"program_instrs\":{},\"accounts\":{}}}",
        run.stats.cycles,
        run.stats.program_instrs,
        run.stats.accounts.json()
    )
}

fn ns_of<'a>(results: &'a [Measured], name: &str) -> Option<&'a Measured> {
    results.iter().find(|m| m.name == name)
}

/// Fold a fresh suite pass into running per-benchmark minima.
fn merge_minima(results: &mut [Measured], fresh: &[Measured]) {
    for m in results {
        if let Some(f) = fresh.iter().find(|f| f.name == m.name) {
            m.ns_per_run = m.ns_per_run.min(f.ns_per_run);
        }
    }
}

fn render_report(
    results: &[Measured],
    reduced: bool,
    calibration_ns: u64,
    cpi_breakdown: &str,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"crisp-bench-sim/1\",\n");
    s.push_str(&format!("  \"reduced\": {reduced},\n"));
    s.push_str(&format!("  \"calibration_ns\": {calibration_ns},\n"));
    s.push_str(&format!(
        "  \"workloads\": {{\"small_iters\": 256, \"large_iters\": {FIGURE3_LARGE_ITERS}}},\n"
    ));
    s.push_str(&format!("  \"cpi_breakdown\": {cpi_breakdown},\n"));
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
    s.push_str(&format!(
        "  \"seed_baseline_ns\": {{\"functional_figure3_256\": {SEED_FUNCTIONAL_256_NS}, \"cycle_figure3_256\": {SEED_CYCLE_256_NS}}},\n"
    ));
    let f = ns_of(results, "functional_figure3_256_pooled")
        .map(|m| SEED_FUNCTIONAL_256_NS as f64 / m.ns_per_run as f64)
        .unwrap_or(0.0);
    let c = ns_of(results, "cycle_figure3_256_pooled")
        .map(|m| SEED_CYCLE_256_NS as f64 / m.ns_per_run as f64)
        .unwrap_or(0.0);
    s.push_str(&format!(
        "  \"speedup_vs_seed\": {{\"functional\": {f:.2}, \"cycle\": {c:.2}}},\n"
    ));
    // The headline tentpole ratio: interpreter vs threaded tier on the
    // same workload, same host window, same calibration.
    let t = match (
        ns_of(results, "functional_figure3_large_pooled"),
        ns_of(results, "functional_threaded_figure3_large_pooled"),
    ) {
        (Some(interp), Some(thr)) if thr.ns_per_run > 0 => {
            interp.ns_per_run as f64 / thr.ns_per_run as f64
        }
        _ => 0.0,
    };
    s.push_str(&format!(
        "  \"functional_threaded\": {{\"figure3_large_speedup_vs_interp\": {t:.2}}},\n"
    ));
    // The campaign-kernel ratio: the fault-campaign classification
    // block in the per-case shape vs the shared-reference, early-stop
    // kernel, same cases, same host window.
    let b = match (
        ns_of(results, "campaign_fault_percase"),
        ns_of(results, "campaign_fault_batched8"),
    ) {
        (Some(percase), Some(batched)) if batched.ns_per_run > 0 => {
            percase.ns_per_run as f64 / batched.ns_per_run as f64
        }
        _ => 0.0,
    };
    s.push_str(&format!(
        "  \"campaign\": {{\"fault_batched8_speedup_vs_percase\": {b:.2}}}\n"
    ));
    s.push_str("}\n");
    s
}

/// Pull the `calibration_ns` value back out of a report written by
/// [`render_report`]. `None` for reports predating the field.
fn parse_calibration(report: &str) -> Option<u64> {
    let key = "\"calibration_ns\":";
    let i = report.find(key)?;
    let digits: String = report[i + key.len()..]
        .chars()
        .skip_while(char::is_ascii_whitespace)
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Pull `(name, ns_per_run)` pairs back out of a report written by
/// [`render_report`] (one result object per line, fixed key order — a
/// full JSON parser would be overkill for our own format).
fn parse_results(report: &str) -> Vec<(String, u64)> {
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

fn check_against(
    results: &[Measured],
    baseline_path: &str,
    tolerance_pct: f64,
    calibration_ns: u64,
) -> bool {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_sim: cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    // Normalise out host-speed differences: the baseline was taken at
    // some calibration-kernel speed; scale its numbers to the speed
    // this run observed. Reports without the field compare unscaled.
    let scale = match parse_calibration(&baseline) {
        Some(base_calib) if base_calib > 0 && calibration_ns > 0 => {
            let s = calibration_ns as f64 / base_calib as f64;
            println!(
                "bench_sim: calibration {calibration_ns} ns vs baseline {base_calib} ns \
                 (host speed scale {s:.3})"
            );
            s
        }
        _ => 1.0,
    };
    let baseline = parse_results(&baseline);
    if baseline.is_empty() {
        eprintln!("bench_sim: no results found in baseline {baseline_path}");
        return false;
    }
    let mut ok = true;
    for (name, base_ns) in &baseline {
        let Some(m) = ns_of(results, name) else {
            eprintln!("bench_sim: FAIL {name}: in baseline but not measured");
            ok = false;
            continue;
        };
        // The per-case arm replays the original classifier shape as
        // the denominator of the campaign speedup ratio. Its ~1 s
        // samples leave the minimum-of-N too noisy to gate on absolute
        // time, and that time getting slower would not be a regression
        // in anything the suite defends — it is gated below through
        // the kernel-vs-percase ratio, which is measured in the same
        // host window and so is robust where the absolute time is not.
        if name == "campaign_fault_percase" {
            println!("bench_sim: skip {name}: gated via the campaign speedup ratio");
            continue;
        }
        let scaled = *base_ns as f64 * scale;
        let limit = scaled * (1.0 + tolerance_pct / 100.0);
        let ratio = m.ns_per_run as f64 / scaled;
        if (m.ns_per_run as f64) > limit {
            eprintln!(
                "bench_sim: FAIL {name}: {} ns vs scaled baseline {scaled:.0} ns ({:+.1}% > +{tolerance_pct}%)",
                m.ns_per_run,
                (ratio - 1.0) * 100.0
            );
            ok = false;
        } else {
            println!(
                "bench_sim: ok   {name}: {} ns vs scaled baseline {scaled:.0} ns ({:+.1}%)",
                m.ns_per_run,
                (ratio - 1.0) * 100.0
            );
        }
    }
    // The campaign acceptance bar: the campaign kernel must hold >= 3x
    // over the per-case shape. Both arms run back to back in this
    // process, so the ratio self-calibrates against host speed.
    if let (Some(p), Some(b)) = (
        ns_of(results, "campaign_fault_percase"),
        ns_of(results, "campaign_fault_batched8"),
    ) {
        if b.ns_per_run > 0 {
            let ratio = p.ns_per_run as f64 / b.ns_per_run as f64;
            if ratio < 3.0 {
                eprintln!(
                    "bench_sim: FAIL campaign speedup: batched8 is {ratio:.2}x percase (< 3x)"
                );
                ok = false;
            } else {
                println!(
                    "bench_sim: ok   campaign speedup: batched8 is {ratio:.2}x percase (>= 3x)"
                );
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_sim.json");
    let mut reduced = false;
    let mut check: Option<String> = None;
    let mut tolerance = 15.0;
    let mut passes = 1u32;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out_path = args[i + 1].clone();
                i += 2;
            }
            "--check" if i + 1 < args.len() => {
                check = Some(args[i + 1].clone());
                i += 2;
            }
            "--tolerance" if i + 1 < args.len() => {
                tolerance = match args[i + 1].parse() {
                    Ok(t) => t,
                    Err(_) => {
                        eprintln!("bench_sim: bad --tolerance {}", args[i + 1]);
                        return ExitCode::FAILURE;
                    }
                };
                i += 2;
            }
            "--passes" if i + 1 < args.len() => {
                passes = match args[i + 1].parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("bench_sim: bad --passes {}", args[i + 1]);
                        return ExitCode::FAILURE;
                    }
                };
                i += 2;
            }
            "--reduced" => {
                reduced = true;
                i += 1;
            }
            other => {
                eprintln!(
                    "bench_sim: unknown argument {other}\n\
                     usage: bench_sim [--out FILE] [--reduced] [--passes N] \
                     [--check BASELINE] [--tolerance PCT]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let mut calibration_ns = calibrate();
    // Deterministic (same simulation every pass), so computed once.
    let cpi = cpi_breakdown();
    let mut results = run_suite(reduced);
    for _ in 1..passes {
        std::thread::sleep(std::time::Duration::from_millis(RETRY_SLEEP_MS));
        calibration_ns = calibration_ns.min(calibrate());
        merge_minima(&mut results, &run_suite(reduced));
    }
    for m in &results {
        println!(
            "bench_sim: {:<34} {:>12} ns/run  {:>8.2} Melem/s",
            m.name,
            m.ns_per_run,
            m.melems_per_s()
        );
    }
    let write_report = |results: &[Measured], calibration_ns: u64| -> bool {
        match std::fs::write(
            &out_path,
            render_report(results, reduced, calibration_ns, &cpi),
        ) {
            Ok(()) => {
                println!("bench_sim: wrote {out_path}");
                true
            }
            Err(e) => {
                eprintln!("bench_sim: cannot write {out_path}: {e}");
                false
            }
        }
    };
    if !write_report(&results, calibration_ns) {
        return ExitCode::FAILURE;
    }

    if let Some(path) = check {
        // Retry-until-fast-window (see the doc header): a pass that is
        // over tolerance usually just measured a slow host window, so
        // re-measure with sleeps in between, folding each pass into the
        // running minima, until the check passes or the attempt budget
        // runs out. A real code regression stays over tolerance in
        // every window, so retries can rescue noise but never a
        // regression.
        let mut attempts = 1u32;
        while !check_against(&results, &path, tolerance, calibration_ns) {
            if attempts >= CHECK_ATTEMPTS {
                write_report(&results, calibration_ns);
                eprintln!(
                    "bench_sim: still over tolerance after {attempts} attempts; \
                     treating as a real regression (if the host is known to be \
                     under sustained load, re-run; if its hardware changed, \
                     re-baseline with --passes 4)"
                );
                return ExitCode::FAILURE;
            }
            attempts += 1;
            eprintln!(
                "bench_sim: over tolerance; re-measuring (attempt {attempts}/{CHECK_ATTEMPTS}) \
                 to rule out a slow host window"
            );
            std::thread::sleep(std::time::Duration::from_millis(RETRY_SLEEP_MS));
            calibration_ns = calibration_ns.min(calibrate());
            merge_minima(&mut results, &run_suite(reduced));
        }
        write_report(&results, calibration_ns);
        println!("bench_sim: within {tolerance}% of {path} (attempt {attempts}/{CHECK_ATTEMPTS})");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cpi = "{\"workload\":\"cycle_figure3_large\",\"cycles\":10,\
                   \"program_instrs\":10,\"accounts\":{\"useful\":10}}";
        let report = render_report(&results, true, 1_234_567, cpi);
        let parsed = parse_results(&report);
        assert_eq!(
            parsed,
            vec![
                ("functional_figure3_256_pooled".to_string(), 61_000),
                ("cycle_figure3_256_pooled".to_string(), 65_000),
            ]
        );
        assert_eq!(parse_calibration(&report), Some(1_234_567));
    }

    #[test]
    fn calibration_absent_from_legacy_reports() {
        assert_eq!(
            parse_calibration("{\"results\": [{\"name\":\"x\",\"ns_per_run\":1}]}"),
            None
        );
    }
}
