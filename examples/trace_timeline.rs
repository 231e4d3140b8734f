//! Trace a run through the observability layer: capture the typed
//! pipeline event stream in a ring buffer, aggregate a branch-site
//! profile from the same stream, then render the ASCII timeline around
//! the loop-exit mispredict, the top-down cycle accounting table, and
//! a few JSONL trace lines.
//!
//! ```sh
//! cargo run --example trace_timeline          # the paper's 3-deep EU
//! cargo run --example trace_timeline -- 5     # a deeper pipe
//! ```

use crisp::asm::assemble_text;
use crisp::sim::{
    mispredict_cycles, render_timeline, write_jsonl, BranchProfiler, CycleSim, EventRing, Machine,
    PipelineGeometry, SimConfig, MAX_DEPTH, MIN_DEPTH,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let depth: usize = match std::env::args().nth(1) {
        Some(arg) => arg
            .parse()
            .ok()
            .filter(|d| (MIN_DEPTH..=MAX_DEPTH).contains(d))
            .ok_or(format!(
                "bad depth `{arg}` (want {MIN_DEPTH}..={MAX_DEPTH})"
            ))?,
        None => SimConfig::default().geometry.depth(),
    };
    let geometry = PipelineGeometry::new(depth);

    let image = assemble_text(
        "
            mov 0(sp),$0
        top:
            add 0(sp),$1        ; i++
            add 4(sp),0(sp)     ; sum += i
            cmp.s< 0(sp),$5     ; i < 5 ?
            ifjmpy.t top        ; folded; mispredicts once, at loop exit
            halt
        ",
    )?;

    let sim = CycleSim::with_observer(
        Machine::load(&image)?,
        SimConfig {
            geometry,
            ..SimConfig::default()
        },
        (
            EventRing::new(4096),
            BranchProfiler::with_geometry(geometry),
        ),
    );
    let (run, (ring, profile)) = sim.run_observed()?;
    let events = ring.into_vec();

    println!(
        "{geometry}: {} cycles, {} events captured\n",
        run.stats.cycles,
        events.len()
    );

    // The loop-exit mispredict, with the squashed wrong-path slots.
    let center = mispredict_cycles(&events)
        .first()
        .copied()
        .expect("the loop exit mispredicts");
    print!(
        "{}",
        render_timeline(&events, center.saturating_sub(4), center + 4, geometry)
    );

    println!();
    print!("{profile}");

    // Where every cycle of the run went, by cause.
    println!();
    print!("{}", run.stats.cpi_breakdown());

    println!("\nfirst 5 trace lines (JSONL, as written by `crisp-run --trace`):");
    let mut buf = Vec::new();
    write_jsonl(&mut buf, events.iter().take(5))?;
    print!("{}", String::from_utf8(buf)?);
    Ok(())
}
