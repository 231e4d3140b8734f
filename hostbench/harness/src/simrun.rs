//! The `sim_run` workload: long in-process runs of the corpus on the
//! cycle engine and on the threaded functional tier, through the
//! public `crisp_sim` API only (no campaign supervisor, batch kernel,
//! lane eject or shared reference).
//!
//! The corpus is the paper's Figure 3 program, with its loop count
//! drawn from the seed, plus the dispatch, sort and fsm workloads.
//! Every run is checked: both engines must reach the same final
//! architectural state, the programs' known results must hold, and
//! each program's simulated cycle count must repeat exactly.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use crisp_asm::Image;
use crisp_cc::{compile_crisp, CompileOptions};
use crisp_sim::{CycleSim, Machine, PredecodedImage, SimConfig, ThreadedSim, TranslatedImage};
use crisp_workloads::{dispatch_workload, figure3_with_count, fsm_workload, sort_workload};

use crate::json::J;
use crate::trace::{self, Analysis};

/// Figure 3's loop count for `seed`: 2048 to 4096 iterations.
pub fn figure3_count(seed: u64) -> u32 {
    2048 + 256 * (seed % 9) as u32
}

/// Times every program runs on each engine per spawn.
const REPS: u64 = 10;

/// A known result: global word `index` must read `value` at halt.
type Expect = Option<(u32, i32)>;

struct Prog {
    name: &'static str,
    image: Image,
    table: Arc<PredecodedImage>,
    translated: Arc<TranslatedImage>,
    expect: Expect,
}

fn corpus(seed: u64) -> Vec<(&'static str, String, Expect)> {
    vec![
        ("figure3", figure3_with_count(figure3_count(seed)), None),
        // out_steps: every opcode of the bytecode stream retired.
        ("dispatch", dispatch_workload().source.to_string(), Some((1, 4096))),
        // out_sorted.
        ("sort", sort_workload().source.to_string(), Some((2, 1))),
        ("fsm", fsm_workload().source.to_string(), None),
    ]
}

/// Compile, load, predecode and translate the corpus.
fn setup(seed: u64) -> Result<Vec<Prog>, String> {
    let policy = SimConfig::default().fold_policy;
    corpus(seed)
        .into_iter()
        .map(|(name, source, expect)| {
            let image = trace::span("cc.compile", || compile_crisp(&source, &CompileOptions::default()))
                .map_err(|e| format!("{name}: {e}"))?;
            trace::span("sim.machine.load", || Machine::load(&image)).map_err(|e| format!("{name}: {e}"))?;
            let table = trace::span("sim.predecode", || PredecodedImage::shared(&image, policy))
                .map_err(|e| format!("{name}: {e}"))?;
            let translated = trace::span("sim.threaded.translate", || {
                Arc::new(TranslatedImage::from_predecoded(Arc::clone(&table)))
            });
            Ok(Prog {
                name,
                image,
                table,
                translated,
                expect,
            })
        })
        .collect()
}

#[derive(Default)]
struct Tally {
    runs: u64,
    cycle_instrs: u64,
    cycles: u64,
    cycle_s: f64,
    threaded_instrs: u64,
    threaded_s: f64,
    failures: Vec<String>,
}

fn global(m: &Machine, index: u32) -> Option<i32> {
    m.mem.read_word(Image::DEFAULT_DATA_BASE + 4 * index).ok()
}

/// One rep: every program once on each engine.
fn rep(progs: &[Prog], first_cycles: &mut Vec<u64>, t: &mut Tally) -> Result<(), String> {
    for (n, prog) in progs.iter().enumerate() {
        let load = || trace::span("sim.machine.load", || Machine::load(&prog.image)).map_err(|e| e.to_string());
        let mut sim = CycleSim::new(load()?, SimConfig::default());
        sim.set_predecoded(Arc::clone(&prog.table));
        let start = Instant::now();
        let cyc = trace::span("sim.pipeline", || sim.run()).map_err(|e| format!("{}: {e}", prog.name))?;
        t.cycle_s += start.elapsed().as_secs_f64();

        let sim = ThreadedSim::with_translated(load()?, Arc::clone(&prog.translated));
        let start = Instant::now();
        let thr = trace::span("sim.threaded", || sim.run()).map_err(|e| format!("{}: {e}", prog.name))?;
        t.threaded_s += start.elapsed().as_secs_f64();

        t.runs += 2;
        t.cycles += cyc.stats.cycles;
        t.cycle_instrs += cyc.stats.program_instrs;
        t.threaded_instrs += thr.stats.program_instrs;
        let mut fail = |what: String| t.failures.push(format!("{}: {what}", prog.name));
        if !cyc.halted || !thr.halted {
            fail("did not halt".into());
        }
        if cyc.machine != thr.machine {
            fail("cycle and threaded final states differ".into());
        }
        if cyc.stats.program_instrs != thr.stats.program_instrs {
            fail("engines retired different instruction counts".into());
        }
        if let Some((index, want)) = prog.expect {
            let got = global(&thr.machine, index);
            if got != Some(want) {
                fail(format!("global {index} = {got:?}, want {want}"));
            }
        }
        match first_cycles.get(n) {
            None => first_cycles.push(cyc.stats.cycles),
            Some(&c) if c != cyc.stats.cycles => {
                fail(format!("cycle count {} differs from first rep's {c}", cyc.stats.cycles))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

pub fn run(seed: u64, traced: bool) -> Result<J, String> {
    if traced {
        trace::enable();
    }
    let start = Instant::now();
    let mut t = Tally::default();
    let mut first_cycles = Vec::new();
    let (setup_s, result) = trace::span("bench.replay", || {
        let progs = match setup(seed) {
            Ok(p) => p,
            Err(e) => return (0.0, Err(e)),
        };
        let setup_s = start.elapsed().as_secs_f64();
        eprintln!("{{\"type\":\"ready\",\"setup_s\":{setup_s:?}}}");
        let _ = std::io::stderr().flush();
        let result = (0..REPS).try_for_each(|_| rep(&progs, &mut first_cycles, &mut t));
        (setup_s, result)
    });
    result?;
    let run_s = start.elapsed().as_secs_f64();
    let mut out = vec![
        ("setup_s", J::Num(setup_s)),
        ("run_s", J::Num(run_s)),
        ("figure3_iters", J::Int(u64::from(figure3_count(seed)))),
        ("runs", J::Int(t.runs)),
        ("cycle_instrs", J::Int(t.cycle_instrs)),
        ("sim_cycles", J::Int(t.cycles)),
        ("cycle_s", J::Num(t.cycle_s)),
        ("threaded_instrs", J::Int(t.threaded_instrs)),
        ("threaded_s", J::Num(t.threaded_s)),
        ("program_cycles", J::Str(format!("{first_cycles:?}"))),
        (
            "failures",
            J::obj(t.failures.iter().enumerate().map(|(i, f)| (i.to_string(), J::Str(f.clone())))),
        ),
    ];
    if traced {
        let a = Analysis::of(&trace::take());
        a.check_nesting()?;
        let clock_ns = run_s * 1e9;
        out.push((
            "metrics",
            J::obj([
                ("cc.compile.ms", J::Num(a.self_ns("cc.compile") / 1e6)),
                ("sim.predecode.ms", J::Num(a.self_ns("sim.predecode") / 1e6)),
                ("sim.threaded.translate.ms", J::Num(a.self_ns("sim.threaded.translate") / 1e6)),
                ("sim.machine.load.ms", J::Num(a.self_ns("sim.machine.load") / 1e6)),
                ("sim.pipeline.ns_per_cycle", J::Num(a.self_ns("sim.pipeline") / t.cycles as f64)),
                ("sim.threaded.ns_per_instr", J::Num(a.self_ns("sim.threaded") / t.threaded_instrs as f64)),
                ("count.cases", J::Int(t.runs)),
                ("count.sim_cycles", J::Int(t.cycles)),
                ("count.sim_instrs", J::Int(t.cycle_instrs + t.threaded_instrs)),
                ("trace.coverage", J::Num(a.coverage("bench.replay", clock_ns))),
                ("trace.reconcile_err", J::Num(a.reconcile_err(clock_ns))),
            ]),
        ));
    }
    Ok(J::obj(out))
}
