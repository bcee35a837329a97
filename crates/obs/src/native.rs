//! Drain native span traces into a [`RunLog`].
//!
//! The native runtime records per-thread rings of
//! [`mgps_runtime::tracing::TraceEvent`]s — the same [`EventKind`] the
//! simulator logs, stamped by one shared monotonic clock.
//! [`runlog_from_trace`] merges those rings into a single [`RunLog`] and
//! stamps its header, after which the entire observability stack works on
//! native runs unchanged: the `mgps-analysis` checker (in its native mode),
//! [`crate::timeline`], [`crate::phases`], [`crate::decisions()`],
//! [`crate::chrome_trace`], and the critical-path engine.
//!
//! ## Merge order
//!
//! Within one ring, timestamps are monotone by construction. Across rings
//! they are comparable (one clock) but ties are possible, and the checker's
//! lifecycle rules care about same-instant precedence (a task must start
//! before it ends, an off-load precedes its task). The merge therefore
//! sorts *stably* by `(at_ns, kind_rank)` where the rank encodes causal
//! precedence: job admission/rejection/start < off-load < fault ladder <
//! mailbox write < mailbox read < task start < code reload / DMA / LS
//! alloc < chunk < LS free < task end < job completion < context switch <
//! degree decision < health alarm.

use mgps_runtime::event::{EventKind, EventRecord, RunLog, SchedulerTag};
use mgps_runtime::native::LOCAL_STORE_BYTES;
use mgps_runtime::tracing::TraceLog;

/// Run-level metadata the rings do not carry (the trace records *what
/// happened*; which scheduler and machine shape produced it is the
/// caller's knowledge).
#[derive(Debug, Clone)]
pub struct NativeRunMeta {
    /// Scheduling scheme of the run (drives the checker's context-switch
    /// discipline).
    pub scheduler: SchedulerTag,
    /// Virtual SPEs in the pool.
    pub n_spes: usize,
    /// Workload seed, if any (0 for unseeded native runs).
    pub seed: u64,
    /// Canonical fault spec of the armed `FaultPlan`, if any — lands in
    /// the RunLog header so the checker can audit the recovery policy.
    pub fault_policy: Option<String>,
    /// Per-tenant DRR dispatch weights, when the serve plane ran with
    /// non-default fairness — lands in the RunLog header so the checker's
    /// `tenant-fairness` rule can replay dispatch against them.
    pub tenant_weights: Option<Vec<u64>>,
}

fn kind_rank(kind: &EventKind) -> u8 {
    match kind {
        // A job is admitted (or refused) before anything it causes; a
        // same-instant start follows its submission but precedes the
        // verdicts and off-loads of the work it dispatches.
        EventKind::JobSubmitted { .. } => 0,
        EventKind::JobRejected { .. } => 1,
        EventKind::JobStarted { .. } => 2,
        // The controller rules on where a kernel runs *before* any
        // same-instant off-load request it grants.
        EventKind::GranularityVerdict { .. } => 3,
        EventKind::Offload { .. } => 4,
        // A fault precedes the quarantine it causes, which precedes the
        // retry it forces; all precede any same-instant grant.
        EventKind::FaultInjected { .. } => 5,
        EventKind::SpeQuarantined { .. } | EventKind::SpeReadmitted { .. } => 6,
        EventKind::OffloadRetry { .. } => 7,
        // The start signal (inbound mailbox post + drain) precedes the
        // task it starts; a write precedes its same-instant read.
        EventKind::MailboxWrite { .. } => 8,
        EventKind::MailboxRead { .. } => 9,
        EventKind::TaskStart { .. } => 10,
        EventKind::CodeReload { .. }
        | EventKind::Dma { .. }
        | EventKind::DmaComplete { .. }
        | EventKind::LsAlloc { .. } => 11,
        EventKind::Chunk { .. } => 12,
        // Scratch is released at task teardown: after the chunks, before
        // (or with) the task end.
        EventKind::LsFree { .. } => 13,
        EventKind::TaskEnd { .. } | EventKind::PpeFallback { .. } => 14,
        // A job resolves (completion, shed, retry re-queue, poison
        // quarantine) only after its last task event; the dispatcher's
        // strictly increasing lock stamps keep these from genuinely tying
        // with each other.
        EventKind::JobCompleted { .. }
        | EventKind::JobShed { .. }
        | EventKind::JobRetried { .. }
        | EventKind::JobPoisoned { .. } => 15,
        EventKind::CtxSwitch { .. } => 16,
        EventKind::DegreeDecision { .. } => 17,
        // An alarm reports on what already happened at its instant.
        EventKind::Health { .. } => 18,
    }
}

/// Merge a drained native trace into a [`RunLog`].
///
/// `quantum_ns` is 0 (no simulated quantum) and `loop_iters` is 0: native
/// tasks carry their own iteration counts on their chunk events, which is
/// what the checker's native mode verifies coverage against.
pub fn runlog_from_trace(trace: &TraceLog, meta: NativeRunMeta) -> RunLog {
    let mut merged: Vec<(u64, u8, EventKind)> = trace
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .map(|e| (e.at_ns, kind_rank(&e.kind), e.kind.clone()))
        .collect();
    merged.sort_by_key(|e| (e.0, e.1));
    let events = merged
        .into_iter()
        .enumerate()
        .map(|(i, (at_ns, _, kind))| EventRecord { seq: i as u64, at_ns, kind })
        .collect();
    RunLog {
        scheduler: meta.scheduler,
        n_spes: meta.n_spes,
        quantum_ns: 0,
        seed: meta.seed,
        local_store_bytes: LOCAL_STORE_BYTES,
        loop_iters: 0,
        mgps_window: match meta.scheduler {
            // MgpsConfig::for_spes(n) uses window = n.
            SchedulerTag::Mgps => Some(meta.n_spes),
            _ => None,
        },
        fault_policy: meta.fault_policy,
        tenant_weights: meta.tenant_weights,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgps_runtime::event::{MailboxKind, SwitchReason};
    use mgps_runtime::tracing::Tracer;

    #[test]
    fn drained_kinds_reach_the_log_unchanged_in_rank_order() {
        let tracer = Tracer::new(16);
        let ppe = tracer.handle();
        let spe = tracer.handle();
        let health = EventKind::Health {
            alarm: "ring_drop".to_string(),
            severity: "critical".to_string(),
            detail: "1 event dropped".to_string(),
        };
        // Recorded in "wrong" ring order; equal timestamps are impossible
        // to force through the real clock, so flatten them below.
        spe.record(health.clone());
        spe.record(EventKind::TaskEnd { proc: 0, task: 0, team: vec![2] });
        spe.record(EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![2] });
        ppe.record(EventKind::DegreeDecision {
            degree: 2,
            u: Some(3),
            waiting: 1,
            n_spes: 4,
            window: 4,
            window_fill: 4,
        });
        ppe.record(EventKind::CtxSwitch { proc: 0, reason: SwitchReason::Offload, held_ns: 7 });
        ppe.record(EventKind::MailboxWrite { spe: 2, mailbox: MailboxKind::Inbound, occupancy: 1 });
        ppe.record(EventKind::Offload { proc: 0, task: 0 });
        let mut log = tracer.drain();
        for t in &mut log.threads {
            for e in &mut t.events {
                e.at_ns = 100;
            }
        }
        let mut recorded: Vec<EventKind> =
            log.threads.iter().flat_map(|t| &t.events).map(|e| e.kind.clone()).collect();
        recorded.sort_by_key(kind_rank);
        let run = runlog_from_trace(
            &log,
            NativeRunMeta { scheduler: SchedulerTag::Mgps, n_spes: 4, seed: 0, fault_policy: None, tenant_weights: None },
        );
        // Every payload arrives as recorded; only the order changes, and
        // it is the causal rank order: offload < mailbox < start < end <
        // switch < decision < health.
        let merged: Vec<EventKind> = run.events.iter().map(|e| e.kind.clone()).collect();
        assert_eq!(merged, recorded);
        assert!(matches!(merged[0], EventKind::Offload { .. }));
        assert_eq!(merged.last(), Some(&health));
        assert_eq!(run.events.iter().map(|e| e.seq).collect::<Vec<_>>(), (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn job_lifecycle_ranks_bracket_the_task_events() {
        let tracer = Tracer::new(16);
        let worker = tracer.handle();
        let admit = tracer.handle();
        // Recorded in deliberately scrambled ring order; once every stamp
        // is flattened, the ranks alone must restore submission < start <
        // off-load < task start < task end < completion.
        worker.record(EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] });
        worker.record(EventKind::JobCompleted {
            job: 9,
            tenant: 0,
            t_queue_ns: 0,
            t_dispatch_ns: 0,
            t_kernel_ns: 0,
            t_reduce_ns: 0,
        });
        admit.record(EventKind::JobSubmitted {
            job: 9,
            tenant: 0,
            taxa: 4,
            sites: 8,
            bootstraps: 1,
            deadline_ns: 0,
            queue_depth: 1,
            queue_cap: 4,
        });
        worker.record(EventKind::JobStarted { job: 9, tenant: 0, attempt: 0 });
        worker.record(EventKind::Offload { proc: 0, task: 0 });
        worker.record(EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] });
        let mut log = tracer.drain();
        for t in &mut log.threads {
            for e in &mut t.events {
                e.at_ns = 50;
            }
        }
        let run = runlog_from_trace(
            &log,
            NativeRunMeta { scheduler: SchedulerTag::Edtlp, n_spes: 4, seed: 0, fault_policy: None, tenant_weights: None },
        );
        let kinds: Vec<&EventKind> = run.events.iter().map(|e| &e.kind).collect();
        assert!(matches!(kinds[0], EventKind::JobSubmitted { .. }));
        assert!(matches!(kinds[1], EventKind::JobStarted { .. }));
        assert!(matches!(kinds[2], EventKind::Offload { .. }));
        assert!(matches!(kinds[3], EventKind::TaskStart { .. }));
        assert!(matches!(kinds[4], EventKind::TaskEnd { .. }));
        assert!(matches!(kinds[5], EventKind::JobCompleted { .. }));
    }

    #[test]
    fn meta_fields_land_in_the_log() {
        let tracer = Tracer::new(4);
        let run = runlog_from_trace(
            &tracer.drain(),
            NativeRunMeta { scheduler: SchedulerTag::Mgps, n_spes: 8, seed: 7, fault_policy: None, tenant_weights: None },
        );
        assert_eq!(run.scheduler, SchedulerTag::Mgps);
        assert_eq!(run.n_spes, 8);
        assert_eq!(run.seed, 7);
        assert_eq!(run.quantum_ns, 0);
        assert_eq!(run.mgps_window, Some(8));
        assert_eq!(run.local_store_bytes, LOCAL_STORE_BYTES);
        assert!(run.events.is_empty());
    }
}
