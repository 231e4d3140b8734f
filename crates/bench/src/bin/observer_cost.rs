//! What an observer costs the cycle engine on the differential
//! campaign's runs.
//!
//! The same seeded `crisp-diff` programs (generated assembly at the
//! campaign's default block count) run on every configuration of the
//! 32-config sweep under three observers:
//!
//! * `NullObserver` — no events at all;
//! * `PrefixCheck` — the campaign kernel's commit-stream comparator,
//!   which is sent only `Commit` events;
//! * `EventRing` — every pipeline event, recorded into the 4096-event
//!   ring the lockstep oracle keeps for its timeline excerpt.
//!
//! The arms alternate round by round, each round starting from the
//! next arm, and the program prints each arm's best pass over
//! `NullObserver`'s: on a noisy host the ratio holds where the
//! absolute times drift. Every pass also checks its runs: each halts,
//! `PrefixCheck` matches the whole reference, and every arm takes the
//! same simulated cycles.
//!
//! ```sh
//! cargo run --release -p crisp-bench --bin observer_cost
//! ```

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crisp_asm::rand_prog::GenProgram;
use crisp_asm::Image;
use crisp_sim::{
    diff_reference, sweep_configs, CommitLog, CycleSim, EventRing, MachinePool, NullObserver,
    PipeObserver, PredecodedImage, PrefixCheck, RunEnd, SimConfig,
};

/// The campaign seed of the benchmark's seed-1 `diff_campaign` spawn.
const SEED: u64 = 200_006;
/// Programs per pass.
const PROGRAMS: u64 = 24;
/// `crisp-diff`'s default `--max-blocks`.
const MAX_BLOCKS: usize = 10;
/// Rounds; each runs every arm once.
const ROUNDS: usize = 9;
/// The lockstep oracle's timeline ring.
const RING: usize = 4096;

/// One program: its image plus, per swept configuration, the shared
/// predecode table and functional reference the campaign would use.
struct Case {
    image: Image,
    runs: Vec<(SimConfig, Arc<PredecodedImage>, Arc<CommitLog>)>,
}

fn corpus() -> Vec<Case> {
    let mut pool = MachinePool::default();
    (0..PROGRAMS)
        .map(|i| {
            let image = GenProgram::generate(SEED + i, MAX_BLOCKS)
                .image()
                .expect("generated programs assemble");
            let runs = sweep_configs()
                .into_iter()
                .map(|cfg| {
                    let table = PredecodedImage::shared(&image, cfg.fold_policy)
                        .expect("generated programs predecode");
                    let reference = diff_reference(
                        &image,
                        cfg.fold_policy,
                        cfg.max_cycles,
                        Some(&table),
                        &mut pool,
                    )
                    .expect("image loads");
                    (cfg, table, Arc::clone(reference.log()))
                })
                .collect();
            Case { image, runs }
        })
        .collect()
}

/// Run every (program, configuration) pair to halt under the observer
/// `make` builds, checking each finished observer with `ok`; returns
/// the simulated cycles.
fn pass<O: PipeObserver>(
    cases: &[Case],
    pool: &mut MachinePool,
    make: impl Fn(&Arc<CommitLog>) -> O,
    ok: impl Fn(&O) -> bool,
) -> u64 {
    let mut cycles = 0;
    for case in cases {
        for (cfg, table, reference) in &case.runs {
            let machine = pool.take(&case.image).expect("image loads");
            let mut sim = CycleSim::with_observer(machine, *cfg, make(reference));
            sim.set_predecoded(Arc::clone(table));
            let end = sim.run_until(|_| false);
            assert_eq!(end, Ok(RunEnd::Halted), "{cfg:?}");
            assert!(ok(black_box(sim.observer())), "{cfg:?}");
            cycles += sim.stats.cycles;
            pool.put(sim.into_machine());
        }
    }
    cycles
}

const ARMS: [&str; 3] = ["null", "prefix_check", "event_ring"];

fn run_arm(arm: usize, cases: &[Case], pool: &mut MachinePool) -> u64 {
    match arm {
        0 => pass(cases, pool, |_| NullObserver, |_| true),
        // The campaign's check must still pass, so the arm measures a
        // working comparator.
        1 => pass(
            cases,
            pool,
            |r| PrefixCheck::new(Arc::clone(r)),
            PrefixCheck::full_match,
        ),
        _ => pass(cases, pool, |_| EventRing::new(RING), |_| true),
    }
}

fn main() {
    let cases = corpus();
    let mut pool = MachinePool::default();
    let cycles = run_arm(0, &cases, &mut pool);

    // Rotate which arm goes first each round and keep each arm's best
    // pass.
    let mut best = [Duration::MAX; 3];
    for round in 0..ROUNDS {
        for k in 0..ARMS.len() {
            let arm = (round + k) % ARMS.len();
            let start = Instant::now();
            assert_eq!(run_arm(arm, &cases, &mut pool), cycles, "{}", ARMS[arm]);
            best[arm] = best[arm].min(start.elapsed());
        }
    }
    let null = best[0].as_secs_f64();
    let runs: usize = cases.iter().map(|c| c.runs.len()).sum();
    print!("observer_cost/in_window ({runs} runs, {cycles} cycles, best of {ROUNDS}):");
    for (arm, name) in ARMS.iter().enumerate() {
        print!(
            "  {name} {:.1} ns/cycle = {:.2}x",
            best[arm].as_secs_f64() * 1e9 / cycles as f64,
            best[arm].as_secs_f64() / null
        );
    }
    println!();
}
