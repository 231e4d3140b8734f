//! Allocation guard for the hot simulation loops.
//!
//! The steady-state cycle loop under `NullObserver` must perform zero
//! heap allocations per cycle: decode windows live on the stack, the
//! predecode table is built once, and every pipeline queue reaches a
//! fixed capacity during warm-up. The same holds for the functional
//! engine's step loop once its decode sources are warm. A counting
//! `#[global_allocator]` makes the claim checkable: warm the cycle
//! engine up, then step it thousands of times and assert the allocation
//! counter never moves; and a functional run thousands of steps longer
//! than another must allocate nothing more.
//!
//! (This is an integration test so the counting allocator owns the
//! whole binary; the assertions measure deltas, so allocations made by
//! the harness itself between snapshots don't leak into the verdict.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crisp::cc::{compile_crisp, CompileOptions};
use crisp::sim::{CycleSim, FunctionalSim, Machine, NullObserver, PredecodedImage, SimConfig};
use crisp::workloads::figure3_with_count;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The test harness runs tests on parallel threads and the allocation
/// counter is process-global, so each test takes this lock for its
/// whole body — otherwise another test's setup allocations would land
/// inside this test's measured window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The Figure 3 program at 4096 iterations: tens of thousands of cycles
/// of realistic pipeline traffic (folded branches, calls, cache
/// replacement) — plenty of room for a warm-up phase followed by a long
/// measured window that cannot reach `halt`.
fn loaded_machine() -> Machine {
    let image = compile_crisp(&figure3_with_count(4096), &CompileOptions::default())
        .expect("figure 3 compiles");
    Machine::load(&image).expect("figure 3 loads")
}

const WARMUP_CYCLES: u64 = 3_000;
const MEASURED_CYCLES: u64 = 5_000;

fn assert_cycle_loop_alloc_free(mut sim: CycleSim, label: &str) {
    for _ in 0..WARMUP_CYCLES {
        let snap = sim.step().expect("cycle steps");
        assert!(!snap.halted, "{label}: program halted during warm-up");
    }
    // The counter is process-global and the libtest coordinator thread
    // occasionally allocates mid-window while reporting a previous
    // (mutex-serialized) test's result. The simulator is deterministic,
    // so a loop that genuinely allocates does it in *every* window:
    // measure up to three windows and fail only if none is clean.
    let mut leaked = 0;
    for _window in 0..3 {
        let before = allocs();
        for _ in 0..MEASURED_CYCLES {
            sim.step().expect("cycle steps");
        }
        leaked = allocs() - before;
        if leaked == 0 {
            break;
        }
    }
    assert_eq!(
        leaked, 0,
        "{label}: {leaked} heap allocations in {MEASURED_CYCLES} steady-state cycles \
         (persisted across every measured window)"
    );
    assert!(!sim.machine().halted, "{label}: measured window too long");
}

#[test]
fn cycle_loop_is_alloc_free_under_nullobserver() {
    let _guard = serial();
    assert_cycle_loop_alloc_free(
        CycleSim::new(loaded_machine(), SimConfig::default()),
        "demand-decode",
    );
}

#[test]
fn cycle_loop_is_alloc_free_with_predecoded_table() {
    let _guard = serial();
    let machine = loaded_machine();
    let table = PredecodedImage::from_machine(&machine, SimConfig::default().fold_policy);
    let mut sim = CycleSim::new(machine, SimConfig::default());
    sim.set_predecoded(table.into());
    assert_cycle_loop_alloc_free(sim, "predecoded");
}

#[test]
fn functional_steady_state_is_alloc_free_with_predecoded_table() {
    let _guard = serial();
    let machine = loaded_machine();
    let table: Arc<PredecodedImage> =
        PredecodedImage::from_machine(&machine, SimConfig::default().fold_policy).into();
    // Allocations of one whole run of `steps` steps. The run is
    // deterministic, so a longer run repeats a shorter one and then
    // goes on: the difference is what the extra steps allocated.
    let run_allocs = |steps: u64| {
        let sim =
            FunctionalSim::with_predecoded(machine.clone(), Arc::clone(&table)).max_steps(steps);
        let before = allocs();
        let run = sim.run_observed(&mut NullObserver).expect("steps");
        let n = allocs() - before;
        assert!(!run.halted, "measured window too long");
        n
    };
    // Same multi-window policy as the cycle-loop assertion above: only
    // an allocation that recurs in every window is the engine's.
    let mut leaked = 0;
    for _window in 0..3 {
        leaked = run_allocs(3_000).saturating_sub(run_allocs(1_000));
        if leaked == 0 {
            break;
        }
    }
    assert_eq!(
        leaked, 0,
        "functional: {leaked} heap allocations in 2000 steady-state steps \
         (persisted across every measured window)"
    );
}
