//! Anchors for the job-observability hot paths.
//!
//! Two costs sit on scrape-visible paths and deserve a pinned number:
//!
//! * `quantile_from_log2_buckets` runs once per `(histogram, quantile)`
//!   pair on every `/metrics` render and every `top` frame — it must
//!   stay a sub-microsecond scan of 65 buckets;
//! * `fold_jobs` runs over the merged RunLog at serve shutdown and in
//!   the loadgen report path — linear in events, and the anchor makes a
//!   regression to quadratic (e.g. a careless per-event map rebuild)
//!   show up as an obvious cliff at 4096 jobs.
//!
//! Inputs are seeded and fixed-size so the numbers are comparable
//! across runs of `cargo bench -p bench --bench job_obs_anchors`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mgps_obs::{fold_jobs, quantile_from_log2_buckets, JOB_QUANTILES};
use mgps_runtime::event::{EventKind, EventRecord, RunLog, SchedulerTag};
use mgps_runtime::metrics::{hist_bucket, HIST_BUCKETS};

/// The repo's splitmix-flavored stream, for seeded synthetic inputs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A log2 histogram filled with `samples` log-uniform latencies — the
/// shape `/metrics` actually serves (most buckets occupied, long tail).
fn filled_histogram(samples: usize) -> Vec<u64> {
    let mut buckets = vec![0u64; HIST_BUCKETS];
    let mut lcg = Lcg(0x9a7c);
    for _ in 0..samples {
        let exp = 10 + lcg.next() % 20; // 1 µs .. ~1 s in ns
        let v = (1u64 << exp) + lcg.next() % (1u64 << exp);
        buckets[hist_bucket(v)] += 1;
    }
    buckets
}

/// A checker-shaped RunLog with `jobs` balanced lifecycles whose four
/// terms partition each admission-to-completion span exactly.
fn job_log(jobs: usize) -> RunLog {
    let mut lcg = Lcg(0x0b5);
    let mut events = Vec::with_capacity(jobs * 3);
    let mut at = 1_000u64;
    for job in 0..jobs as u64 {
        let t_queue = 500 + lcg.next() % 50_000;
        let t_dispatch = 200 + lcg.next() % 5_000;
        let t_kernel = 10_000 + lcg.next() % 500_000;
        let t_reduce = 100 + lcg.next() % 2_000;
        at += 1 + lcg.next() % 1_000;
        events.push((
            at,
            EventKind::JobSubmitted {
                job,
                tenant: (job % 4) as usize,
                taxa: 8,
                sites: 256,
                bootstraps: 1,
                deadline_ns: 0,
                queue_depth: 1,
                queue_cap: 8,
            },
        ));
        events.push((
            at + t_queue,
            EventKind::JobStarted { job, tenant: (job % 4) as usize, attempt: 0 },
        ));
        events.push((
            at + t_queue + t_dispatch + t_kernel + t_reduce,
            EventKind::JobCompleted {
                job,
                tenant: (job % 4) as usize,
                t_queue_ns: t_queue,
                t_dispatch_ns: t_dispatch,
                t_kernel_ns: t_kernel,
                t_reduce_ns: t_reduce,
            },
        ));
    }
    events.sort_by_key(|(at, _)| *at);
    RunLog {
        scheduler: SchedulerTag::Mgps,
        n_spes: 8,
        quantum_ns: 0,
        seed: 7,
        local_store_bytes: 256 * 1024,
        loop_iters: 0,
        mgps_window: Some(4),
        fault_policy: None,
        tenant_weights: None,
        events: events
            .into_iter()
            .enumerate()
            .map(|(i, (at_ns, kind))| EventRecord { seq: i as u64, at_ns, kind })
            .collect(),
    }
}

fn bench_job_obs(c: &mut Criterion) {
    let mut g = c.benchmark_group("job_obs");

    let buckets = filled_histogram(100_000);
    g.bench_function("quantile_p50_p95_p99", |b| {
        b.iter(|| {
            for q in JOB_QUANTILES {
                black_box(quantile_from_log2_buckets(black_box(&buckets), q));
            }
        });
    });

    for jobs in [256usize, 4096] {
        let log = job_log(jobs);
        g.bench_function(format!("fold_jobs_{jobs}"), |b| {
            b.iter(|| {
                let report = fold_jobs(black_box(&log)).expect("balanced synthetic log");
                black_box(report.completed.len())
            });
        });
    }

    g.finish();
}

criterion_group!(benches, bench_job_obs);
criterion_main!(benches);
