//! Cost of the fault plane on the native off-load hot path.
//!
//! The same EDTLP workload — 64 sequential off-loads of a ~50 µs spin
//! loop — runs once with the default inert `FaultPlan` (the fault plane
//! reduces to two `Option` checks) and once with an armed plan
//! that can never fire (every armed code path executes: the per-off-load
//! fault-round decision, lock and all). The `unarmed` row is the quantity
//! the DESIGN budget bounds at < 1 % of run wall time relative to a build
//! without the fault plane — it is tracked across commits by the bench
//! regression gate; `tests/fault_overhead_smoke.rs` enforces a loose,
//! non-flaky bound on the armed/unarmed gap in the test suite.

use std::time::Duration;

use bench::fault_offload_wall;
use criterion::{criterion_group, criterion_main, Criterion};

const OFFLOADS: usize = 64;
const WORK: Duration = Duration::from_micros(50);

fn bench_fault_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("fault_overhead");
    g.sample_size(10);
    g.bench_function("unarmed", |b| {
        b.iter(|| fault_offload_wall(false, OFFLOADS, WORK));
    });
    g.bench_function("armed_quiet", |b| {
        b.iter(|| fault_offload_wall(true, OFFLOADS, WORK));
    });
    g.finish();
}

criterion_group!(benches, bench_fault_overhead);
criterion_main!(benches);
