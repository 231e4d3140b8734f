//! The paper's Table 1 methodology on one workload: record a branch
//! trace, evaluate static vs dynamic predictors, then feed the optimal
//! static bits back into the binary (profile-guided prediction).
//!
//! ```sh
//! cargo run --release --example prediction_study
//! ```

use std::collections::HashMap;

use crisp::cc::{apply_profile, compile_crisp, CompileOptions};
use crisp::predict::{evaluate_dynamic, evaluate_static_optimal, Btb, JumpTrace};
use crisp::sim::{FunctionalSim, Machine};
use crisp::workloads::DHRY_SOURCE;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = CompileOptions::default();
    let mut image = compile_crisp(DHRY_SOURCE, &opts)?;

    // 1. Profile run: collect the branch trace.
    let run = FunctionalSim::new(Machine::load(&image)?)
        .record_trace(true)
        .run()?;
    println!(
        "dhry workload: {} instructions, {} conditional branches",
        run.stats.program_instrs, run.stats.cond_branches
    );

    // 2. Evaluate the paper's schemes.
    let st = evaluate_static_optimal(&run.trace);
    println!("\nprediction accuracy:");
    println!("  optimal static bit : {:.3}", st.accuracy.ratio());
    for bits in [1u8, 2, 3] {
        println!(
            "  {bits}-bit dynamic      : {:.3}",
            evaluate_dynamic(&run.trace, bits).ratio()
        );
    }
    let btb = Btb::new(128, 4).evaluate(&run.trace);
    let jt = JumpTrace::new(JumpTrace::MU5_ENTRIES).evaluate(&run.trace);
    println!("  BTB 128x4          : {:.3} (all transfers)", btb.ratio());
    println!("  MU5 jump trace (8) : {:.3} (all transfers)", jt.ratio());

    // 3. Patch the optimal bits into the image and re-measure.
    let majority: HashMap<u32, bool> = st.majority.into_iter().collect();
    let patched = apply_profile(&mut image, &majority);
    let tuned = FunctionalSim::new(Machine::load(&image)?).run()?;
    println!(
        "\nprofile-guided bits: patched {patched} branches; static mispredicts {} -> {}",
        run.stats.static_mispredicts, tuned.stats.static_mispredicts
    );
    Ok(())
}
