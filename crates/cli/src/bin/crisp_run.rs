//! `crisp-run` — compile (or assemble) and execute a program.
//!
//! ```text
//! crisp-run [OPTIONS] [FILE]     run FILE (or stdin)
//!
//!   --asm                        input is CRISP assembly, not mini-C
//!   --cycles                     use the cycle-level pipeline (default:
//!                                functional engine)
//!   --engine ENGINE              functional engine tier: interp (the
//!                                one-entry reference interpreter,
//!                                default) or threaded (the
//!                                block-translating superinstruction
//!                                tier — same architectural results,
//!                                several times faster, unobserved
//!                                only: incompatible with --cycles,
//!                                --trace, --profile and
//!                                --branch-trace)
//!   --trace PATH                 write a JSONL pipeline event trace
//!                                (`-` = stdout); the cycle engine emits
//!                                the full fetch/decode/fold/squash
//!                                stream, the interpreter its commit
//!                                stream
//!   --chrome-trace PATH          write a Chrome trace_event JSON file
//!                                (open in chrome://tracing or Perfetto;
//!                                needs --cycles)
//!   --profile                    print the per-branch-site profile
//!   --timeline                   print an ASCII pipeline timeline
//!                                around the first mispredict (needs
//!                                --cycles)
//!   --stats-json PATH            write run statistics as JSON
//!                                (`-` = stdout)
//!   --cpi-breakdown              print the top-down cycle accounting
//!                                table: every cycle attributed to one
//!                                cause bucket (needs --cycles)
//!   --branch-trace               print the branch trace (interpreter
//!                                only)
//!   --fold POLICY --icache N --mem-latency N   machine configuration
//!   --eu-depth N                 execution-unit depth (2..=8, default 3;
//!                                cycle engine geometry)
//!   --predictor HW               live hardware predictor consulted by
//!                                the PDU: static (the compiled bit,
//!                                default), counterN[xM] saturating
//!                                counters, btb[SxW] branch target
//!                                buffer, jumptrace[N] MU5-style FIFO
//!                                (needs --cycles to matter)
//!   --max-cycles N --max-insns N               watchdog limits (a run
//!                                              that exceeds one ends
//!                                              gracefully with halt
//!                                              reason `watchdog`)
//!   --parity MODE                front-end parity: off | detect
//!                                (needs --cycles)
//!   --inject T:C:S:B             arm a single-bit fault into target T
//!                                (cache | btb | pdu) at cycle C, slot
//!                                S, bit-site B — the knob behind
//!                                crisp-fault, exposed for one-off
//!                                what-does-this-strike-cost runs
//!                                (needs --cycles)
//!   --no-spread --predict MODE                 compiler configuration
//! ```
//!
//! Examples:
//!
//! ```sh
//! crisp-run --cycles --profile program.c
//! crisp-run --cycles --trace run.jsonl --chrome-trace run.json program.c
//! crisp-run --asm --stats-json - loop.s
//! ```

use std::io::{self, Write as _};
use std::process::ExitCode;

use crisp_asm::assemble_text;
use crisp_cc::compile_crisp;
use crisp_cli::{extract_flag, parse_common, parse_engine, parse_switch, read_input};
use crisp_sim::{
    mispredict_cycles, render_timeline, write_chrome_trace, write_jsonl, write_trace_footer,
    BranchProfiler, CycleSim, Engine, EventRing, FunctionalSim, Machine, ParityMode, PipeEvent,
    PipelineGeometry, ThreadedSim, TraceFooter,
};

/// Event-ring capacity for `--trace`/`--chrome-trace`/`--timeline`:
/// large enough for any workload in this repo; overflow is reported.
const TRACE_CAPACITY: usize = 1 << 20;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("crisp-run: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Write through `emit` to the file at `path`, or to stdout for `-`.
fn write_output(
    path: &str,
    emit: impl FnOnce(&mut dyn io::Write) -> io::Result<()>,
) -> Result<(), String> {
    let result = if path == "-" {
        let stdout = io::stdout();
        let mut w = stdout.lock();
        emit(&mut w).and_then(|()| w.flush())
    } else {
        std::fs::File::create(path).and_then(|f| {
            let mut w = io::BufWriter::new(f);
            emit(&mut w).and_then(|()| w.flush())
        })
    };
    result.map_err(|e| format!("writing {path}: {e}"))
}

fn run() -> Result<(), String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: crisp-run [--asm] [--cycles] [--engine interp|threaded] [--trace PATH] \
             [--chrome-trace PATH] [--profile] [--timeline] [--stats-json PATH] \
             [--cpi-breakdown] [--branch-trace] [OPTIONS] [FILE]"
        );
        return Ok(());
    }
    let is_asm = parse_switch(&mut raw, "--asm")?;
    let cycles = parse_switch(&mut raw, "--cycles")?;
    // The reference interpreter unless --engine threaded asks for the
    // speed tier.
    let engine = parse_engine(&mut raw)?;
    let trace_path = extract_flag(&mut raw, "--trace")?;
    let chrome_path = extract_flag(&mut raw, "--chrome-trace")?;
    let stats_path = extract_flag(&mut raw, "--stats-json")?;
    let profile = parse_switch(&mut raw, "--profile")?;
    let timeline = parse_switch(&mut raw, "--timeline")?;
    let branch_trace = parse_switch(&mut raw, "--branch-trace")?;
    let cpi_breakdown = parse_switch(&mut raw, "--cpi-breakdown")?;
    let args = parse_common(raw.into_iter())?;
    if let Some(flag) = args.rest.first() {
        return Err(format!("unknown flag `{flag}`"));
    }
    // Cycle-engine features. The functional engine has no front end to
    // strike or protect.
    let cycle_only = [
        ("--chrome-trace", chrome_path.is_some()),
        ("--timeline", timeline),
        ("--cpi-breakdown", cpi_breakdown),
        ("--inject", args.sim.fault_plan.is_some()),
        ("--parity", args.sim.parity != ParityMode::Off),
    ];
    if let Some((flag, _)) = cycle_only.iter().find(|&&(_, given)| given && !cycles) {
        return Err(format!("{flag} needs --cycles"));
    }
    if cycles && engine == Engine::Threaded {
        return Err("--engine threaded applies to the functional engine (drop --cycles)".into());
    }
    // The threaded tier runs unobserved only: observing a run must not
    // move it onto another code path, so observation needs the
    // interpreter.
    let observed = [
        ("--trace", trace_path.is_some()),
        ("--profile", profile),
        ("--branch-trace", branch_trace),
    ];
    if let Some((flag, _)) = observed
        .iter()
        .find(|&&(_, given)| given && engine == Engine::Threaded)
    {
        return Err(format!("{flag} needs --engine interp"));
    }

    let source = read_input(&args.input)?;
    let image = if is_asm {
        assemble_text(&source).map_err(|e| e.to_string())?
    } else {
        compile_crisp(&source, &args.compile).map_err(|e| e.to_string())?
    };
    let machine = Machine::load(&image).map_err(|e| e.to_string())?;

    let observing = trace_path.is_some() || chrome_path.is_some() || profile || timeline;

    if cycles {
        let (mut run, events, dropped, profiler) = if observing {
            let obs = (
                EventRing::new(TRACE_CAPACITY),
                BranchProfiler::with_geometry(args.sim.geometry),
            );
            let (run, (ring, prof)) = CycleSim::with_observer(machine, args.sim, obs)
                .run_observed()
                .map_err(|e| e.to_string())?;
            if ring.dropped > 0 {
                eprintln!(
                    "crisp-run: trace ring overflowed; {} oldest events dropped",
                    ring.dropped
                );
            }
            let dropped = ring.dropped;
            (run, ring.into_vec(), dropped, Some(prof))
        } else {
            let run = CycleSim::new(machine, args.sim)
                .run()
                .map_err(|e| e.to_string())?;
            (run, Vec::new(), 0, None)
        };
        // Ring overflow is a property of this driver's capture, not of
        // the engine; fold it into the exported stats here.
        run.stats.dropped_events = dropped;

        print!("{}", run.stats);
        println!("halt reason          : {}", run.halt_reason.name());
        println!("accumulator          : {}", run.machine.accum);
        if cpi_breakdown {
            print!("{}", run.stats.cpi_breakdown());
        }
        emit_observations(
            &events,
            dropped,
            profiler.as_ref().filter(|_| profile),
            &trace_path,
            &chrome_path,
            timeline,
            args.sim.geometry,
        )?;
        if let Some(path) = &stats_path {
            write_output(path, |w| writeln!(w, "{}", run.stats.to_json()))?;
        }
    } else {
        let mut obs = (EventRing::new(TRACE_CAPACITY), BranchProfiler::new());
        // The functional engine has no cycle clock: the watchdog bounds
        // pipeline entries (steps) instead. `--max-insns` tightens the
        // same bound, since entries never exceed program instructions.
        let steps = args
            .sim
            .max_insns
            .map_or(args.sim.max_cycles, |n| n.min(args.sim.max_cycles));
        let run = match engine {
            Engine::Interp => {
                let sim = FunctionalSim::new(machine)
                    .record_trace(branch_trace)
                    .max_steps(steps);
                if observing {
                    sim.run_observed(&mut obs).map_err(|e| e.to_string())?
                } else {
                    sim.run().map_err(|e| e.to_string())?
                }
            }
            Engine::Threaded => ThreadedSim::new(machine)
                .max_steps(steps)
                .run()
                .map_err(|e| e.to_string())?,
        };
        let (ring, profiler) = obs;

        println!("program instructions : {}", run.stats.program_instrs);
        println!("pipeline entries     : {}", run.stats.entries);
        println!("folded branches      : {}", run.stats.folded);
        println!("conditional branches : {}", run.stats.cond_branches);
        println!("static mispredicts   : {}", run.stats.static_mispredicts);
        if engine == Engine::Threaded {
            println!("translated blocks    : {}", run.stats.blocks_translated);
            println!("superinstr dispatch  : {}", run.stats.superinstr_dispatches);
            println!("deopt falls          : {}", run.stats.deopt_falls);
        }
        println!("halt reason          : {}", run.halt_reason.name());
        println!("accumulator          : {}", run.machine.accum);
        println!("opcode mix:");
        print!("{}", run.stats.opcodes);
        if branch_trace {
            println!("branch trace ({} events):", run.trace.len());
            for e in &run.trace {
                println!("  {e}");
            }
        }
        let dropped = ring.dropped;
        let events = ring.into_vec();
        emit_observations(
            &events,
            dropped,
            Some(&profiler).filter(|_| profile),
            &trace_path,
            &None,
            false,
            args.sim.geometry,
        )?;
        if let Some(path) = &stats_path {
            write_output(path, |w| writeln!(w, "{}", run.stats.to_json()))?;
        }
    }
    Ok(())
}

/// Emit the trace/profile/timeline renderings common to both engines.
fn emit_observations(
    events: &[PipeEvent],
    dropped: u64,
    profiler: Option<&BranchProfiler>,
    trace_path: &Option<String>,
    chrome_path: &Option<String>,
    timeline: bool,
    geometry: PipelineGeometry,
) -> Result<(), String> {
    if let Some(path) = trace_path {
        write_output(path, |w| {
            write_jsonl(w, events)?;
            // Footer makes capture completeness auditable downstream:
            // a consumer can tell a short trace from a truncated one.
            write_trace_footer(
                w,
                TraceFooter {
                    events: events.len() as u64,
                    dropped,
                },
            )
        })?;
    }
    if let Some(path) = chrome_path {
        write_output(path, |w| write_chrome_trace(w, events, geometry))?;
    }
    if let Some(prof) = profiler {
        print!("{prof}");
    }
    if timeline {
        match mispredict_cycles(events).first() {
            Some(&center) => {
                let from = center.saturating_sub(6);
                print!("{}", render_timeline(events, from, center + 6, geometry));
            }
            None => println!("timeline: no mispredicts in this run"),
        }
    }
    Ok(())
}
