//! Job-level observability: per-job span breakdowns and latency quantiles.
//!
//! The serve plane lifts the paper's per-offload granularity terms one
//! level up: a *job* (one `POST /jobs` request) spans an admission-queue
//! wait, a dispatch (argument marshalling), one or more off-loaded kernel
//! executions, and a PPE-side reduction. [`fold_jobs`] folds a `RunLog`'s
//! `JobSubmitted`/`JobStarted`/`JobCompleted`/`JobRejected` events into
//! one [`JobBreakdown`] per completed job, enforcing the same exactness
//! contract as the critical-path blame fold: the four terms must
//! partition the job's admission-to-completion span to the nanosecond, or
//! the fold refuses the log. Jobs that end in `JobShed` or `JobPoisoned`
//! are legitimate terminals (never silently dropped, never completed);
//! `JobRetried` is bookkeeping inside one job's life — a retried job
//! keeps its admission stamp, and its eventual breakdown telescopes
//! every attempt into the same four terms.
//!
//! [`quantile_from_log2_buckets`] estimates latency percentiles from the
//! runtime's log2-bucketed histograms ([`mgps_runtime::metrics`]) by
//! linear interpolation inside the containing bucket. Buckets double in
//! width, so the estimate is off by at most the width of one bucket: for
//! any quantile `q` of any sample, `estimate / exact` lies in `[0.5, 2]`
//! (the /metrics gauges and `multigrain top` both carry this caveat).

use std::collections::BTreeMap;

use mgps_runtime::event::{EventKind, RunLog};

/// The latency quantiles exported on `/metrics` and shown by `top`.
pub const JOB_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// One completed job's span accounting. The four terms partition
/// [`JobBreakdown::total_ns`] exactly — [`fold_jobs`] verifies this
/// against the event timestamps and refuses logs where it fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobBreakdown {
    /// Seeded job id.
    pub job: u64,
    /// Submitting tenant.
    pub tenant: usize,
    /// Taxa in the phylo job spec.
    pub taxa: usize,
    /// Alignment sites in the spec.
    pub sites: usize,
    /// Bootstrap replicates in the spec.
    pub bootstraps: usize,
    /// When the job was admitted (log clock, ns).
    pub submitted_ns: u64,
    /// Executions it took to complete: 1 plus the `JobRetried` events
    /// observed before the completion.
    pub attempts: u64,
    /// Admission-queue wait, ns.
    pub t_queue_ns: u64,
    /// Dequeue-to-kernel setup, ns.
    pub t_dispatch_ns: u64,
    /// Off-loaded kernel execution, ns.
    pub t_kernel_ns: u64,
    /// PPE-side reduction, ns.
    pub t_reduce_ns: u64,
}

impl JobBreakdown {
    /// Wall time from admission to completion: the exact sum of the four
    /// terms.
    pub fn total_ns(&self) -> u64 {
        self.t_queue_ns + self.t_dispatch_ns + self.t_kernel_ns + self.t_reduce_ns
    }

    /// Service time once a worker picked the job up (everything but the
    /// queue wait).
    pub fn service_ns(&self) -> u64 {
        self.t_dispatch_ns + self.t_kernel_ns + self.t_reduce_ns
    }
}

/// The job-plane fold of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobsReport {
    /// One breakdown per completed job, in completion order.
    pub completed: Vec<JobBreakdown>,
    /// `(job, tenant)` of every rejected submission, in log order.
    pub rejected: Vec<(u64, usize)>,
    /// `(job, tenant)` of every deadline-shed admission, in log order.
    pub shed: Vec<(u64, usize)>,
    /// `(job, tenant, attempts)` of every poison-quarantined admission,
    /// in log order.
    pub poisoned: Vec<(u64, usize, u64)>,
}

impl JobsReport {
    /// Completed-job totals in completion order (input to the quantile
    /// estimator and the loadgen CDFs).
    pub fn totals_ns(&self) -> Vec<u64> {
        self.completed.iter().map(JobBreakdown::total_ns).collect()
    }
}

/// Fold a log's job lifecycle events into per-job breakdowns.
///
/// # Errors
/// A description of the first inconsistency: a started/completed job with
/// no admission record, a duplicated completion, or a completion whose
/// four terms do not sum exactly to its admission-to-completion span.
/// (The checker's `job-lifecycle` rule reports the same defects with
/// sequence numbers; this fold refuses to produce numbers from them.)
pub fn fold_jobs(log: &RunLog) -> Result<JobsReport, String> {
    struct Pending {
        tenant: usize,
        taxa: usize,
        sites: usize,
        bootstraps: usize,
        submitted_ns: u64,
        retries: u64,
        // Completed, shed, or poisoned: exactly one terminal per job.
        terminal: bool,
    }
    let mut pending: BTreeMap<u64, Pending> = BTreeMap::new();
    let mut report = JobsReport::default();
    for e in &log.events {
        match &e.kind {
            EventKind::JobSubmitted { job, tenant, taxa, sites, bootstraps, .. } => {
                let state = Pending {
                    tenant: *tenant,
                    taxa: *taxa,
                    sites: *sites,
                    bootstraps: *bootstraps,
                    submitted_ns: e.at_ns,
                    retries: 0,
                    terminal: false,
                };
                if pending.insert(*job, state).is_some() {
                    return Err(format!("job {job} admitted twice"));
                }
            }
            EventKind::JobStarted { job, .. } if !pending.contains_key(job) => {
                return Err(format!("job {job} started without an admission record"));
            }
            EventKind::JobCompleted {
                job,
                tenant,
                t_queue_ns,
                t_dispatch_ns,
                t_kernel_ns,
                t_reduce_ns,
            } => {
                let Some(state) = pending.get_mut(job) else {
                    return Err(format!("job {job} completed without an admission record"));
                };
                if state.terminal {
                    return Err(format!("job {job} completed twice"));
                }
                if state.tenant != *tenant {
                    return Err(format!(
                        "job {job} completed under tenant {tenant} but was admitted by tenant {}",
                        state.tenant
                    ));
                }
                state.terminal = true;
                let span = e.at_ns.saturating_sub(state.submitted_ns);
                let sum = t_queue_ns + t_dispatch_ns + t_kernel_ns + t_reduce_ns;
                if sum != span {
                    return Err(format!(
                        "job {job} terms sum to {sum} ns but its admission-to-completion span is {span} ns"
                    ));
                }
                report.completed.push(JobBreakdown {
                    job: *job,
                    tenant: *tenant,
                    taxa: state.taxa,
                    sites: state.sites,
                    bootstraps: state.bootstraps,
                    submitted_ns: state.submitted_ns,
                    attempts: state.retries + 1,
                    t_queue_ns: *t_queue_ns,
                    t_dispatch_ns: *t_dispatch_ns,
                    t_kernel_ns: *t_kernel_ns,
                    t_reduce_ns: *t_reduce_ns,
                });
            }
            EventKind::JobRejected { job, tenant, .. } => {
                report.rejected.push((*job, *tenant));
            }
            EventKind::JobShed { job, tenant, .. } => {
                let Some(state) = pending.get_mut(job) else {
                    return Err(format!("job {job} shed without an admission record"));
                };
                if state.terminal {
                    return Err(format!("job {job} shed after an earlier terminal event"));
                }
                state.terminal = true;
                report.shed.push((*job, *tenant));
            }
            EventKind::JobRetried { job, .. } => {
                let Some(state) = pending.get_mut(job) else {
                    return Err(format!("job {job} retried without an admission record"));
                };
                if state.terminal {
                    return Err(format!("job {job} retried after a terminal event"));
                }
                state.retries += 1;
            }
            EventKind::JobPoisoned { job, tenant, attempts } => {
                let Some(state) = pending.get_mut(job) else {
                    return Err(format!("job {job} poisoned without an admission record"));
                };
                if state.terminal {
                    return Err(format!("job {job} poisoned after an earlier terminal event"));
                }
                state.terminal = true;
                report.poisoned.push((*job, *tenant, *attempts));
            }
            _ => {}
        }
    }
    Ok(report)
}

/// Estimate the `q`-quantile (`0 <= q <= 1`) of the sample a log2
/// histogram recorded, by linear interpolation inside the containing
/// bucket. `buckets[i]` counts values of bit length `i`
/// ([`mgps_runtime::metrics::hist_bucket`]): bucket 0 holds exactly the
/// value 0, bucket `i > 0` spans `[2^(i-1), 2^i)`.
///
/// Returns `None` for an empty histogram — absent, never a NaN, the same
/// guard as atlas cells. The estimate of any quantile is within a factor
/// of 2 of the exact sample percentile (one bucket's width); the pinned
/// error-bound test below holds this on log-uniform samples.
pub fn quantile_from_log2_buckets(buckets: &[u64], q: f64) -> Option<f64> {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    // Continuous rank in [0, n-1]; the value at that rank, interpolated
    // uniformly inside its bucket.
    let rank = q * ((n - 1) as f64);
    let mut before: u64 = 0;
    for (i, &count) in buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let end = before + count;
        if rank < end as f64 || end == n {
            if i == 0 {
                return Some(0.0);
            }
            let lo = (1u128 << (i - 1)) as f64;
            let hi = (1u128 << i) as f64;
            let frac = ((rank - before as f64) / count as f64).clamp(0.0, 1.0);
            return Some(lo + (hi - lo) * frac);
        }
        before = end;
    }
    None // unreachable: n > 0 guarantees a containing bucket
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgps_runtime::event::{EventRecord, SchedulerTag};
    use mgps_runtime::metrics::{hist_bucket, HIST_BUCKETS};

    fn job_log(events: Vec<(u64, EventKind)>) -> RunLog {
        RunLog {
            scheduler: SchedulerTag::Mgps,
            n_spes: 4,
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

    fn submitted(job: u64, tenant: usize) -> EventKind {
        EventKind::JobSubmitted {
            job,
            tenant,
            taxa: 8,
            sites: 64,
            bootstraps: 1,
            deadline_ns: 0,
            queue_depth: 1,
            queue_cap: 4,
        }
    }

    #[test]
    fn fold_produces_exact_partitions() {
        let log = job_log(vec![
            (100, submitted(1, 0)),
            (130, EventKind::JobStarted { job: 1, tenant: 0, attempt: 0 }),
            (
                200,
                EventKind::JobCompleted {
                    job: 1,
                    tenant: 0,
                    t_queue_ns: 30,
                    t_dispatch_ns: 10,
                    t_kernel_ns: 50,
                    t_reduce_ns: 10,
                },
            ),
            (250, EventKind::JobRejected { job: 2, tenant: 1, queue_depth: 4, queue_cap: 4 }),
        ]);
        let report = fold_jobs(&log).unwrap();
        assert_eq!(report.completed.len(), 1);
        let b = &report.completed[0];
        assert_eq!(b.total_ns(), 100);
        assert_eq!(b.service_ns(), 70);
        assert_eq!(b.submitted_ns, 100);
        assert_eq!(b.attempts, 1);
        assert_eq!((b.taxa, b.sites, b.bootstraps), (8, 64, 1));
        assert_eq!(report.rejected, vec![(2, 1)]);
        assert_eq!(report.totals_ns(), vec![100]);
    }

    #[test]
    fn fold_accounts_retried_shed_and_poisoned_terminals() {
        let log = job_log(vec![
            (100, submitted(1, 0)),
            (110, submitted(2, 1)),
            (120, submitted(3, 2)),
            // Job 1 fails its first attempt, retries, completes on the
            // second: one breakdown, two attempts, exact telescoped span.
            (130, EventKind::JobStarted { job: 1, tenant: 0, attempt: 0 }),
            (160, EventKind::JobRetried { job: 1, tenant: 0, attempt: 1, backoff_ns: 10 }),
            (180, EventKind::JobStarted { job: 1, tenant: 0, attempt: 1 }),
            (
                300,
                EventKind::JobCompleted {
                    job: 1,
                    tenant: 0,
                    t_queue_ns: 80,
                    t_dispatch_ns: 20,
                    t_kernel_ns: 90,
                    t_reduce_ns: 10,
                },
            ),
            // Job 2 is shed in queue; job 3 is poison-quarantined.
            (310, EventKind::JobShed { job: 2, tenant: 1, deadline_ns: 50 }),
            (320, EventKind::JobStarted { job: 3, tenant: 2, attempt: 0 }),
            (330, EventKind::JobRetried { job: 3, tenant: 2, attempt: 1, backoff_ns: 10 }),
            (340, EventKind::JobStarted { job: 3, tenant: 2, attempt: 1 }),
            (350, EventKind::JobPoisoned { job: 3, tenant: 2, attempts: 2 }),
        ]);
        let report = fold_jobs(&log).unwrap();
        assert_eq!(report.completed.len(), 1);
        assert_eq!(report.completed[0].attempts, 2);
        assert_eq!(report.completed[0].total_ns(), 200);
        assert_eq!(report.shed, vec![(2, 1)]);
        assert_eq!(report.poisoned, vec![(3, 2, 2)]);

        // A completion after a shed is a double terminal, not a revival.
        let log = job_log(vec![
            (100, submitted(1, 0)),
            (200, EventKind::JobShed { job: 1, tenant: 0, deadline_ns: 50 }),
            (
                300,
                EventKind::JobCompleted {
                    job: 1,
                    tenant: 0,
                    t_queue_ns: 200,
                    t_dispatch_ns: 0,
                    t_kernel_ns: 0,
                    t_reduce_ns: 0,
                },
            ),
        ]);
        assert!(fold_jobs(&log).unwrap_err().contains("completed twice"));
        // Orphan terminals are refused like orphan starts.
        let log = job_log(vec![(10, EventKind::JobPoisoned { job: 9, tenant: 0, attempts: 1 })]);
        assert!(fold_jobs(&log).unwrap_err().contains("without an admission record"));
    }

    #[test]
    fn fold_refuses_an_inexact_partition() {
        let log = job_log(vec![
            (100, submitted(1, 0)),
            (130, EventKind::JobStarted { job: 1, tenant: 0, attempt: 0 }),
            (
                200,
                EventKind::JobCompleted {
                    job: 1,
                    tenant: 0,
                    t_queue_ns: 30,
                    t_dispatch_ns: 10,
                    t_kernel_ns: 50,
                    t_reduce_ns: 11, // sums to 101 over a 100 ns span
                },
            ),
        ]);
        let err = fold_jobs(&log).unwrap_err();
        assert!(err.contains("101 ns"), "unexpected error: {err}");
    }

    #[test]
    fn fold_refuses_orphan_lifecycle_events() {
        let log = job_log(vec![(10, EventKind::JobStarted { job: 9, tenant: 0, attempt: 0 })]);
        assert!(fold_jobs(&log).unwrap_err().contains("without an admission record"));
        let log = job_log(vec![(
            10,
            EventKind::JobCompleted {
                job: 9,
                tenant: 0,
                t_queue_ns: 0,
                t_dispatch_ns: 0,
                t_kernel_ns: 0,
                t_reduce_ns: 0,
            },
        )]);
        assert!(fold_jobs(&log).unwrap_err().contains("without an admission record"));
    }

    #[test]
    fn quantiles_of_an_empty_histogram_are_absent() {
        assert_eq!(quantile_from_log2_buckets(&[0; HIST_BUCKETS], 0.5), None);
    }

    #[test]
    fn quantile_of_a_point_mass_lands_in_its_bucket() {
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[hist_bucket(1000)] = 100; // all observations in [512, 1024)
        for q in JOB_QUANTILES {
            let est = quantile_from_log2_buckets(&buckets, q).unwrap();
            assert!((512.0..1024.0).contains(&est), "q={q} estimated {est}");
        }
        buckets = [0; HIST_BUCKETS];
        buckets[0] = 5; // the zero bucket is exact
        assert_eq!(quantile_from_log2_buckets(&buckets, 0.99), Some(0.0));
    }

    #[test]
    fn quantile_estimates_are_within_one_bucket_of_exact_percentiles() {
        // Log-uniform samples over [2^4, 2^30]: every magnitude equally
        // represented, the worst realistic case for log2 bucketing.
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let samples: Vec<u64> = (0..10_000)
            .map(|_| {
                let log = 4.0 + next() * (30.0 - 4.0);
                2f64.powf(log) as u64
            })
            .collect();
        let mut buckets = [0u64; HIST_BUCKETS];
        for &s in &samples {
            buckets[hist_bucket(s)] += 1;
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in JOB_QUANTILES {
            let exact = sorted[(q * (sorted.len() - 1) as f64) as usize] as f64;
            let est = quantile_from_log2_buckets(&buckets, q).unwrap();
            let ratio = est / exact;
            // The pinned bound: one bucket's width, i.e. a factor of 2.
            assert!(
                (0.5..=2.0).contains(&ratio),
                "q={q}: estimate {est} vs exact {exact} (ratio {ratio})"
            );
        }
    }
}
