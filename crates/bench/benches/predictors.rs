//! Predictor-model throughput over a real workload trace.

use crisp_bench::trace_of;
use crisp_predict::{evaluate_dynamic, evaluate_static_optimal, Btb, JumpTrace};
use crisp_workloads::TROFF_PROXY_SOURCE;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_predictors(c: &mut Criterion) {
    let trace = trace_of(TROFF_PROXY_SOURCE);
    let mut g = c.benchmark_group("predict");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("static_optimal", |b| {
        b.iter(|| evaluate_static_optimal(&trace))
    });
    for bits in [1u8, 2, 3] {
        g.bench_function(format!("dynamic_{bits}bit"), |b| {
            b.iter(|| evaluate_dynamic(&trace, bits))
        });
    }
    g.bench_function("btb_128x4", |b| {
        b.iter(|| Btb::new(128, 4).evaluate(&trace))
    });
    g.bench_function("jump_trace_8", |b| {
        b.iter(|| JumpTrace::new(JumpTrace::MU5_ENTRIES).evaluate(&trace))
    });
    g.finish();
}

criterion_group!(benches, bench_predictors);
criterion_main!(benches);
