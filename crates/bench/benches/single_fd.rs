//! Scaling of `GRepCheck1FD` (Figure 2): instance-size sweep with
//! fixed conflict-group geometry. Reproduces the PTIME side of
//! Theorem 3.1 for single-FD schemas (experiment E06).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpr_bench::single_fd_workload;
use rpr_core::GRepairChecker;
use rpr_priority::PrioritizedInstance;

fn bench_single_fd(c: &mut Criterion) {
    let mut group = c.benchmark_group("grepcheck_1fd");
    for &n in &[100usize, 400, 1600, 6400] {
        let w = single_fd_workload(n, 6, 0.6, 42);
        let checker = GRepairChecker::new(w.schema.clone());
        let pi = PrioritizedInstance::conflict_restricted(
            &w.schema,
            w.instance.clone(),
            w.priority.clone(),
        )
        .unwrap();
        group.throughput(Throughput::Elements(w.instance.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| checker.check(&pi, &w.j).is_optimal())
        });
    }
    group.finish();

    // Checker construction (classification) is a one-off; measure it
    // separately so the sweep above is pure checking.
    c.bench_function("grepcheck_1fd/classify_schema", |b| {
        let w = single_fd_workload(100, 6, 0.6, 42);
        b.iter(|| GRepairChecker::new(w.schema.clone()).complexity())
    });
}

criterion_group!(benches, bench_single_fd);
criterion_main!(benches);
