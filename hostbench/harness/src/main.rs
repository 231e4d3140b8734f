//! `hostbench` — the Rust half of the host-time benchmark (driven by
//! `hostbench/run.py`).
//!
//! ```text
//! hostbench sim     --seed N [--trace]
//! hostbench profile fault --seed N --programs N --faults N --jobs N
//! hostbench replay  fault --seed N --programs N --faults N --jobs N
//! hostbench lanes   fault --seed N --programs N --faults N --jobs N
//! hostbench profile|replay|lanes diff --seed N --programs N --c-programs N --jobs N
//! ```
//!
//! * `sim` is the `sim_run` workload: it compiles, loads, predecodes and
//!   translates the corpus, prints one `{"type":"ready"}` line on stderr
//!   (the end of set-up), runs every program on `CycleSim` and
//!   `ThreadedSim` ten times, and prints its timings, simulated counts
//!   and checks as JSON on stdout. `--trace` records spans around each
//!   layer call and adds the per-layer split.
//! * `profile` characterises a campaign's inputs deterministically
//!   (instruction and cycle counts, expected tallies) for the output
//!   checks, and times the fault-free runs of its programs on
//!   `CycleSim` and `ThreadedSim`.
//! * `replay` re-runs a campaign driver's work through the layers'
//!   public functions and the shared `run_campaign` supervisor, with a
//!   span around each layer call, and prints the tallies (which must
//!   equal the shipped driver's report) and the per-layer metrics.
//! * `lanes` classifies the same case blocks at 1 and at 8 batch lanes
//!   on one thread and reports the time ratio.
//!
//! Every other campaign flag keeps the shipped driver's default.

mod diff;
mod fault;
mod json;
mod simrun;
mod trace;

use std::process::ExitCode;
use std::str::FromStr;

use crisp_cli::{extract_flag, extract_switch};
use json::J;

/// Remove the required flag `--name value` from `args` and parse it.
pub fn flag<T: FromStr>(args: &mut Vec<String>, name: &str) -> Result<T, String> {
    let v = extract_flag(args, name)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("{name} is required"))?;
    v.parse().map_err(|_| format!("{name}: bad value `{v}`"))
}

/// Remove and return the leading positional argument ("" when none).
fn positional(args: &mut Vec<String>) -> String {
    if args.is_empty() {
        String::new()
    } else {
        args.remove(0)
    }
}

fn no_more(args: &[String]) -> Result<(), String> {
    match args.first() {
        None => Ok(()),
        Some(a) => Err(format!("unknown argument `{a}`")),
    }
}

fn run() -> Result<J, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = positional(&mut args);
    let which = if cmd == "sim" { String::new() } else { positional(&mut args) };
    match (cmd.as_str(), which.as_str()) {
        ("sim", _) => {
            let traced = extract_switch(&mut args, "--trace");
            let seed = flag(&mut args, "--seed")?;
            no_more(&args)?;
            simrun::run(seed, traced)
        }
        ("profile" | "replay" | "lanes", "fault") => {
            let p = fault::Params::parse(&mut args)?;
            no_more(&args)?;
            match cmd.as_str() {
                "profile" => fault::profile(&p),
                "replay" => fault::replay(&p),
                _ => fault::lanes(&p),
            }
        }
        ("profile" | "replay" | "lanes", "diff") => {
            let p = diff::Params::parse(&mut args)?;
            no_more(&args)?;
            match cmd.as_str() {
                "profile" => diff::profile(&p),
                "replay" => diff::replay(&p),
                _ => diff::lanes(&p),
            }
        }
        _ => Err("usage: hostbench sim|profile|replay|lanes ... (see the module docs)".into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            println!("{}", out.render());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("hostbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
