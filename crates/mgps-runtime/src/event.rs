//! The event vocabulary both engines record, and its JSON form.
//!
//! The simulator (`cellsim`, when `SimConfig::record_events` is set)
//! appends one [`EventRecord`] per semantically meaningful action —
//! off-loads, context switches, task starts/ends, DMA issues, mailbox
//! operations, local-store accounting, loop chunk dispatch, and MGPS
//! degree decisions — into a [`RunLog`]. The native engine records the
//! same [`EventKind`]s into its trace rings ([`crate::tracing`]), and
//! `mgps-obs` merges those rings into a [`RunLog`] of the same shape. The
//! log is what `mgps-analysis` statically verifies; it serializes to JSON
//! (via `minijson`) so runs can be archived and diffed, and its
//! serialized form is the input to the deterministic-replay digest.

use minijson::Value;

/// Why a process lost its PPE context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchReason {
    /// Voluntary yield at an off-load point (EDTLP-family schedulers).
    Offload,
    /// Involuntary quantum-expiry rotation (Linux-like scheduler).
    Quantum,
}

impl SwitchReason {
    fn as_str(self) -> &'static str {
        match self {
            SwitchReason::Offload => "offload",
            SwitchReason::Quantum => "quantum",
        }
    }

    fn from_str(s: &str) -> Option<SwitchReason> {
        match s {
            "offload" => Some(SwitchReason::Offload),
            "quantum" => Some(SwitchReason::Quantum),
            _ => None,
        }
    }
}

/// Which of an SPU's three hardware mailboxes an operation touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MailboxKind {
    /// PPE → SPU command mailbox (4 entries).
    Inbound,
    /// SPU → PPE data mailbox (1 entry).
    Outbound,
    /// SPU → PPE interrupting mailbox (1 entry).
    OutboundInterrupt,
}

impl MailboxKind {
    /// The hardware capacity of this mailbox kind (§4).
    pub fn capacity(self) -> usize {
        match self {
            MailboxKind::Inbound => 4,
            MailboxKind::Outbound | MailboxKind::OutboundInterrupt => 1,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            MailboxKind::Inbound => "inbound",
            MailboxKind::Outbound => "outbound",
            MailboxKind::OutboundInterrupt => "outbound_interrupt",
        }
    }

    fn from_str(s: &str) -> Option<MailboxKind> {
        match s {
            "inbound" => Some(MailboxKind::Inbound),
            "outbound" => Some(MailboxKind::Outbound),
            "outbound_interrupt" => Some(MailboxKind::OutboundInterrupt),
            _ => None,
        }
    }
}

/// One recorded action of either engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Process `proc` requested an off-load of `task`.
    Offload {
        /// Requesting worker process.
        proc: usize,
        /// Task identifier (monotonic per run).
        task: u64,
    },
    /// Process `proc` lost its PPE context.
    CtxSwitch {
        /// The descheduled process.
        proc: usize,
        /// Why the context was lost.
        reason: SwitchReason,
        /// How long the context was held, ns.
        held_ns: u64,
    },
    /// `task` began executing for `proc` on `team` (work-shared when
    /// `degree > 1`).
    TaskStart {
        /// Owning worker process.
        proc: usize,
        /// Task identifier.
        task: u64,
        /// Loop-level parallelism degree in force at grant time.
        degree: usize,
        /// The SPEs granted (team\[0\] is the lead).
        team: Vec<usize>,
    },
    /// `task` finished on `team`.
    TaskEnd {
        /// Owning worker process.
        proc: usize,
        /// Task identifier.
        task: u64,
        /// The SPEs released.
        team: Vec<usize>,
    },
    /// A DMA list was issued from `spe`.
    Dma {
        /// Issuing SPE.
        spe: usize,
        /// Per-element transfer sizes, bytes.
        element_bytes: Vec<usize>,
        /// Local-store base address.
        local_addr: usize,
        /// Main-memory base address.
        main_addr: usize,
    },
    /// A message was written into a mailbox.
    MailboxWrite {
        /// The SPU whose mailbox was written.
        spe: usize,
        /// Which mailbox.
        mailbox: MailboxKind,
        /// Occupancy after the write.
        occupancy: usize,
    },
    /// A message was read from a mailbox.
    MailboxRead {
        /// The SPU whose mailbox was read.
        spe: usize,
        /// Which mailbox.
        mailbox: MailboxKind,
        /// Occupancy after the read.
        occupancy: usize,
    },
    /// Local-store buffer space reserved on `spe`.
    LsAlloc {
        /// The SPE.
        spe: usize,
        /// Bytes reserved.
        bytes: usize,
        /// Total bytes in use after the reservation.
        in_use: usize,
    },
    /// Local-store buffer space released on `spe`.
    LsFree {
        /// The SPE.
        spe: usize,
        /// Bytes released.
        bytes: usize,
        /// Total bytes in use after the release.
        in_use: usize,
    },
    /// One work-sharing chunk of `task`'s parallel loop was assigned.
    Chunk {
        /// The work-shared task.
        task: u64,
        /// Total loop iterations of the task.
        loop_iters: usize,
        /// First iteration of this chunk.
        start: usize,
        /// Iterations in this chunk.
        len: usize,
        /// The SPE executing the chunk.
        worker: usize,
    },
    /// `spe` reloaded its resident code image before starting a task (the
    /// granularity term `t_code`).
    CodeReload {
        /// The reloading SPE.
        spe: usize,
        /// Stall paid for the reload, ns.
        stall_ns: u64,
    },
    /// A DMA transfer to `spe` finished (the granularity term `t_comm`).
    DmaComplete {
        /// The receiving SPE.
        spe: usize,
        /// Bytes moved.
        bytes: usize,
        /// End-to-end transfer latency, ns.
        latency_ns: u64,
    },
    /// The MGPS policy issued a degree decision at a window boundary.
    DegreeDecision {
        /// The new loop degree (1 = LLP off).
        degree: usize,
        /// The utilization sample `U` the decision was based on (tasks
        /// off-loaded during the departing task's execution window). The
        /// native engine records it so live consumers need not replay
        /// rings; the simulator leaves it `None` (it is replayable from
        /// the off-load history), and `None` is not serialized, so
        /// simulator logs keep their byte form.
        u: Option<usize>,
        /// Tasks waiting for off-load at the decision (the paper's `T`).
        waiting: usize,
        /// SPEs on the machine.
        n_spes: usize,
        /// Configured utilization-window length.
        window: usize,
        /// Off-loads currently held in the window sample.
        window_fill: usize,
    },
    /// The online health detector (`mgps-obs`) raised an alarm while the
    /// run was live. Informational: the checker verifies its shape but it
    /// places no scheduling constraint; reports surface it prominently.
    Health {
        /// Stable alarm slug (`utilization_collapse`, `stall_spike`,
        /// `ring_drop`, `quarantine_storm`).
        alarm: String,
        /// `warning` or `critical`.
        severity: String,
        /// Human-readable explanation of what tripped.
        detail: String,
    },
    /// The fault plane sabotaged off-load attempt `attempt` of `task`,
    /// which had been assigned to lead SPE `spe`. The attempt produces no
    /// `TaskStart`; the watchdog reclaims the team and recovery decides
    /// between a retry, the PPE fallback, or (lethal plans only) a lost
    /// task the checker must flag.
    FaultInjected {
        /// Team-lead SPE of the sabotaged assignment.
        spe: usize,
        /// The faulted task.
        task: u64,
        /// Stable fault-kind slug (`spe_stall`, `spe_crash`, `dma_error`,
        /// `mailbox_drop`).
        fault: String,
        /// Off-load attempt number (0 = original off-load).
        attempt: u64,
    },
    /// Recovery re-queued faulted `task` for off-load attempt `attempt`
    /// after waiting the declared exponential backoff. Not an `Offload`:
    /// the task keeps its identity and its single completion obligation.
    OffloadRetry {
        /// The retried task.
        task: u64,
        /// The new attempt number (≥ 1, strictly increasing per task).
        attempt: u64,
        /// Backoff waited before this retry, ns (must match the policy
        /// declared in the log header).
        backoff_ns: u64,
    },
    /// `spe` exceeded the policy's consecutive-fault threshold and was
    /// removed from scheduling (no team may include it until readmitted).
    SpeQuarantined {
        /// The quarantined SPE.
        spe: usize,
        /// Consecutive faults that tripped the threshold.
        faults: u64,
    },
    /// A re-admission probe returned quarantined `spe` to scheduling.
    SpeReadmitted {
        /// The readmitted SPE.
        spe: usize,
    },
    /// Terminal degradation: `task` ran to completion on the PPE fallback
    /// copy. This is the task's completion record — a fallen-back task
    /// has no `TaskStart`/`TaskEnd`.
    PpeFallback {
        /// Owning worker process.
        proc: usize,
        /// The task completed on the PPE.
        task: u64,
        /// Off-load attempts consumed before falling back.
        attempts: u64,
    },
    /// A serve-plane job was admitted to the bounded request queue. Jobs
    /// lift the granularity decomposition one level up: one job spans one
    /// or more off-loads, and its `JobCompleted` terms partition its wall
    /// time the way `t_ppe`/`t_wait`/`t_spe`/`t_comm` partition one
    /// off-load.
    JobSubmitted {
        /// Seeded job id (unique per run).
        job: u64,
        /// Submitting tenant.
        tenant: usize,
        /// Taxa in the phylo job spec.
        taxa: usize,
        /// Alignment sites in the spec.
        sites: usize,
        /// Bootstrap replicates in the spec.
        bootstraps: usize,
        /// Relative completion deadline, ns since admission (0 = none;
        /// serialized only when set, so deadline-free logs keep their
        /// pre-deadline byte form).
        deadline_ns: u64,
        /// Queue occupancy after the admission (this job included).
        queue_depth: usize,
        /// Configured admission-queue bound.
        queue_cap: usize,
    },
    /// A worker dequeued admitted job `job` and began executing it.
    /// Within a tenant, starts must follow submission (FIFO) order.
    JobStarted {
        /// The job.
        job: u64,
        /// Its tenant.
        tenant: usize,
        /// Zero-based execution attempt (0 = first start; restarts after
        /// a `JobRetried` carry that retry's number). Serialized only when
        /// nonzero, so retry-free logs keep their pre-retry byte form.
        attempt: u64,
    },
    /// An admitted job was dropped at dispatch because its declared
    /// deadline expired while it waited in queue. Terminal: a shed job is
    /// never started, retried, or completed. Never silent — every expired
    /// job leaves exactly this record.
    JobShed {
        /// The shed job.
        job: u64,
        /// Its tenant.
        tenant: usize,
        /// The deadline it missed, ns since its admission stamp.
        deadline_ns: u64,
    },
    /// A job whose execution attempt died on an unrecoverable off-load
    /// fault was re-queued (back of its tenant's queue) for the attempt
    /// number recorded here, after the declared deterministic backoff.
    /// Not a new submission: the job keeps its identity, its admission
    /// stamp, and its single completion obligation.
    JobRetried {
        /// The retried job.
        job: u64,
        /// Its tenant.
        tenant: usize,
        /// One-based retry number (the next `JobStarted` carries it).
        attempt: u64,
        /// Backoff waited before the re-queue, ns (must match the policy
        /// declared in the log header).
        backoff_ns: u64,
    },
    /// Terminal quarantine: `job` exhausted its retry budget and was
    /// removed from the queue as poison instead of wedging it. A poisoned
    /// job has no `JobCompleted`.
    JobPoisoned {
        /// The quarantined job.
        job: u64,
        /// Its tenant.
        tenant: usize,
        /// Total execution attempts consumed before giving up.
        attempts: u64,
    },
    /// Job `job` finished. The four terms partition its wall time
    /// exactly: their sum equals this event's timestamp minus the job's
    /// `JobSubmitted` timestamp.
    JobCompleted {
        /// The job.
        job: u64,
        /// Its tenant.
        tenant: usize,
        /// Admission-queue wait, ns.
        t_queue_ns: u64,
        /// Dequeue-to-kernel setup (argument marshalling), ns.
        t_dispatch_ns: u64,
        /// Off-loaded kernel execution, ns.
        t_kernel_ns: u64,
        /// Result reduction on the PPE, ns.
        t_reduce_ns: u64,
    },
    /// A submission was refused — queue at capacity, or the serve plane
    /// was draining after a shutdown signal. A rejected job has no
    /// `JobSubmitted` record: submission means admission.
    JobRejected {
        /// The refused job's (seeded) id.
        job: u64,
        /// Its tenant.
        tenant: usize,
        /// Queue occupancy at refusal time.
        queue_depth: usize,
        /// Configured admission-queue bound.
        queue_cap: usize,
    },
    /// The granularity controller ruled on where a kernel invocation runs
    /// (the §5.2 inequality `t_spe + t_code + 2·t_comm < t_ppe`).
    /// Informational, like [`EventKind::Health`]: the checker verifies its
    /// shape but it places no scheduling constraint.
    GranularityVerdict {
        /// Kernel slug (`newview`, `makenewz`, `evaluate`).
        kernel: String,
        /// Whether the invocation was granted an SPE off-load.
        offload: bool,
        /// Whether the kernel is throttled after this verdict.
        throttled: bool,
        /// Whether the off-load was a periodic re-probe of a throttled
        /// kernel (implies `offload`).
        reprobe: bool,
    },
}

/// An [`EventKind`] stamped with its emission order and simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Emission sequence number (0-based, dense).
    pub seq: u64,
    /// Simulated time of the event, ns.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Which scheduling scheme produced a log (determines the context-switch
/// discipline the checker enforces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerTag {
    /// Event-driven task-level parallelism.
    Edtlp,
    /// Linux-like quantum rotation.
    Linux,
    /// EDTLP with a fixed loop degree.
    StaticHybrid(usize),
    /// Adaptive multigrain scheduling.
    Mgps,
}

impl std::fmt::Display for SchedulerTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.as_string())
    }
}

impl SchedulerTag {
    fn as_string(self) -> String {
        match self {
            SchedulerTag::Edtlp => "edtlp".to_string(),
            SchedulerTag::Linux => "linux".to_string(),
            SchedulerTag::StaticHybrid(k) => format!("static_hybrid:{k}"),
            SchedulerTag::Mgps => "mgps".to_string(),
        }
    }

    fn from_string(s: &str) -> Option<SchedulerTag> {
        match s {
            "edtlp" => Some(SchedulerTag::Edtlp),
            "linux" => Some(SchedulerTag::Linux),
            "mgps" => Some(SchedulerTag::Mgps),
            other => other
                .strip_prefix("static_hybrid:")
                .and_then(|k| k.parse().ok())
                .map(SchedulerTag::StaticHybrid),
        }
    }
}

/// The complete structured log of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLog {
    /// Scheduling scheme of the run.
    pub scheduler: SchedulerTag,
    /// SPEs on the simulated machine.
    pub n_spes: usize,
    /// Effective Linux quantum, ns (also recorded for non-Linux runs).
    pub quantum_ns: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Local-store capacity per SPE, bytes.
    pub local_store_bytes: usize,
    /// Parallel-loop iteration count per task.
    pub loop_iters: usize,
    /// MGPS utilization-window length, when the run used MGPS.
    pub mgps_window: Option<usize>,
    /// Canonical fault spec (`FaultPlan::to_spec`) when a fault plan was
    /// armed for the run. Its presence tells the checker to (a) enforce
    /// the fault-recovery/quarantine/backoff rules against this exact
    /// declared policy and (b) relax FIFO start order and degree pinning,
    /// which retries and healthy-SPE clamping legitimately perturb.
    pub fault_policy: Option<String>,
    /// Per-tenant deficit-round-robin dispatch weights when the serve
    /// plane ran with non-default fairness (tenant `t` gets
    /// `tenant_weights[t]`, or weight 1 beyond the list's end). `None`
    /// means every tenant weighs 1; the key is omitted from the
    /// serialized form so equal-weight logs keep their pre-fairness byte
    /// form. The checker's `tenant-fairness` rule replays dispatch
    /// against exactly these weights.
    pub tenant_weights: Option<Vec<u64>>,
    /// The events, in emission order.
    pub events: Vec<EventRecord>,
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

fn bool_field(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("missing boolean field '{key}'"))
}

fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn usize_list(v: &Value, key: &str) -> Result<Vec<usize>, String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array field '{key}'"))?
        .iter()
        .map(|x| {
            x.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| format!("non-integer element in '{key}'"))
        })
        .collect()
}

impl EventKind {
    /// This event's JSON object: a `type` tag, then its fields.
    pub fn to_value(&self) -> Value {
        match self {
            EventKind::Offload { proc, task } => Value::object(vec![
                ("type", "offload".into()),
                ("proc", (*proc).into()),
                ("task", (*task).into()),
            ]),
            EventKind::CtxSwitch {
                proc,
                reason,
                held_ns,
            } => Value::object(vec![
                ("type", "ctx_switch".into()),
                ("proc", (*proc).into()),
                ("reason", reason.as_str().into()),
                ("held_ns", (*held_ns).into()),
            ]),
            EventKind::TaskStart {
                proc,
                task,
                degree,
                team,
            } => Value::object(vec![
                ("type", "task_start".into()),
                ("proc", (*proc).into()),
                ("task", (*task).into()),
                ("degree", (*degree).into()),
                ("team", Value::array(team.clone())),
            ]),
            EventKind::TaskEnd { proc, task, team } => Value::object(vec![
                ("type", "task_end".into()),
                ("proc", (*proc).into()),
                ("task", (*task).into()),
                ("team", Value::array(team.clone())),
            ]),
            EventKind::Dma {
                spe,
                element_bytes,
                local_addr,
                main_addr,
            } => Value::object(vec![
                ("type", "dma".into()),
                ("spe", (*spe).into()),
                ("element_bytes", Value::array(element_bytes.clone())),
                ("local_addr", (*local_addr).into()),
                ("main_addr", (*main_addr).into()),
            ]),
            EventKind::MailboxWrite {
                spe,
                mailbox,
                occupancy,
            } => Value::object(vec![
                ("type", "mailbox_write".into()),
                ("spe", (*spe).into()),
                ("mailbox", mailbox.as_str().into()),
                ("occupancy", (*occupancy).into()),
            ]),
            EventKind::MailboxRead {
                spe,
                mailbox,
                occupancy,
            } => Value::object(vec![
                ("type", "mailbox_read".into()),
                ("spe", (*spe).into()),
                ("mailbox", mailbox.as_str().into()),
                ("occupancy", (*occupancy).into()),
            ]),
            EventKind::LsAlloc { spe, bytes, in_use } => Value::object(vec![
                ("type", "ls_alloc".into()),
                ("spe", (*spe).into()),
                ("bytes", (*bytes).into()),
                ("in_use", (*in_use).into()),
            ]),
            EventKind::LsFree { spe, bytes, in_use } => Value::object(vec![
                ("type", "ls_free".into()),
                ("spe", (*spe).into()),
                ("bytes", (*bytes).into()),
                ("in_use", (*in_use).into()),
            ]),
            EventKind::Chunk {
                task,
                loop_iters,
                start,
                len,
                worker,
            } => Value::object(vec![
                ("type", "chunk".into()),
                ("task", (*task).into()),
                ("loop_iters", (*loop_iters).into()),
                ("start", (*start).into()),
                ("len", (*len).into()),
                ("worker", (*worker).into()),
            ]),
            EventKind::CodeReload { spe, stall_ns } => Value::object(vec![
                ("type", "code_reload".into()),
                ("spe", (*spe).into()),
                ("stall_ns", (*stall_ns).into()),
            ]),
            EventKind::DmaComplete {
                spe,
                bytes,
                latency_ns,
            } => Value::object(vec![
                ("type", "dma_complete".into()),
                ("spe", (*spe).into()),
                ("bytes", (*bytes).into()),
                ("latency_ns", (*latency_ns).into()),
            ]),
            EventKind::DegreeDecision {
                degree,
                u,
                waiting,
                n_spes,
                window,
                window_fill,
            } => {
                let mut members: Vec<(&str, Value)> =
                    vec![("type", "degree_decision".into()), ("degree", (*degree).into())];
                if let Some(u) = u {
                    members.push(("u", (*u).into()));
                }
                members.push(("waiting", (*waiting).into()));
                members.push(("n_spes", (*n_spes).into()));
                members.push(("window", (*window).into()));
                members.push(("window_fill", (*window_fill).into()));
                Value::object(members)
            }
            EventKind::Health { alarm, severity, detail } => Value::object(vec![
                ("type", "health".into()),
                ("alarm", alarm.clone().into()),
                ("severity", severity.clone().into()),
                ("detail", detail.clone().into()),
            ]),
            EventKind::FaultInjected { spe, task, fault, attempt } => Value::object(vec![
                ("type", "fault_injected".into()),
                ("spe", (*spe).into()),
                ("task", (*task).into()),
                ("fault", fault.clone().into()),
                ("attempt", (*attempt).into()),
            ]),
            EventKind::OffloadRetry { task, attempt, backoff_ns } => Value::object(vec![
                ("type", "offload_retry".into()),
                ("task", (*task).into()),
                ("attempt", (*attempt).into()),
                ("backoff_ns", (*backoff_ns).into()),
            ]),
            EventKind::SpeQuarantined { spe, faults } => Value::object(vec![
                ("type", "spe_quarantined".into()),
                ("spe", (*spe).into()),
                ("faults", (*faults).into()),
            ]),
            EventKind::SpeReadmitted { spe } => Value::object(vec![
                ("type", "spe_readmitted".into()),
                ("spe", (*spe).into()),
            ]),
            EventKind::PpeFallback { proc, task, attempts } => Value::object(vec![
                ("type", "ppe_fallback".into()),
                ("proc", (*proc).into()),
                ("task", (*task).into()),
                ("attempts", (*attempts).into()),
            ]),
            EventKind::GranularityVerdict { kernel, offload, throttled, reprobe } => {
                Value::object(vec![
                    ("type", "granularity_verdict".into()),
                    ("kernel", kernel.clone().into()),
                    ("offload", (*offload).into()),
                    ("throttled", (*throttled).into()),
                    ("reprobe", (*reprobe).into()),
                ])
            }
            EventKind::JobSubmitted {
                job,
                tenant,
                taxa,
                sites,
                bootstraps,
                deadline_ns,
                queue_depth,
                queue_cap,
            } => {
                let mut members: Vec<(&str, Value)> = vec![
                    ("type", "job_submitted".into()),
                    ("job", (*job).into()),
                    ("tenant", (*tenant).into()),
                    ("taxa", (*taxa).into()),
                    ("sites", (*sites).into()),
                    ("bootstraps", (*bootstraps).into()),
                ];
                if *deadline_ns != 0 {
                    members.push(("deadline_ns", (*deadline_ns).into()));
                }
                members.push(("queue_depth", (*queue_depth).into()));
                members.push(("queue_cap", (*queue_cap).into()));
                Value::object(members)
            }
            EventKind::JobStarted { job, tenant, attempt } => {
                let mut members: Vec<(&str, Value)> = vec![
                    ("type", "job_started".into()),
                    ("job", (*job).into()),
                    ("tenant", (*tenant).into()),
                ];
                if *attempt != 0 {
                    members.push(("attempt", (*attempt).into()));
                }
                Value::object(members)
            }
            EventKind::JobShed { job, tenant, deadline_ns } => Value::object(vec![
                ("type", "job_shed".into()),
                ("job", (*job).into()),
                ("tenant", (*tenant).into()),
                ("deadline_ns", (*deadline_ns).into()),
            ]),
            EventKind::JobRetried { job, tenant, attempt, backoff_ns } => Value::object(vec![
                ("type", "job_retried".into()),
                ("job", (*job).into()),
                ("tenant", (*tenant).into()),
                ("attempt", (*attempt).into()),
                ("backoff_ns", (*backoff_ns).into()),
            ]),
            EventKind::JobPoisoned { job, tenant, attempts } => Value::object(vec![
                ("type", "job_poisoned".into()),
                ("job", (*job).into()),
                ("tenant", (*tenant).into()),
                ("attempts", (*attempts).into()),
            ]),
            EventKind::JobCompleted {
                job,
                tenant,
                t_queue_ns,
                t_dispatch_ns,
                t_kernel_ns,
                t_reduce_ns,
            } => Value::object(vec![
                ("type", "job_completed".into()),
                ("job", (*job).into()),
                ("tenant", (*tenant).into()),
                ("t_queue_ns", (*t_queue_ns).into()),
                ("t_dispatch_ns", (*t_dispatch_ns).into()),
                ("t_kernel_ns", (*t_kernel_ns).into()),
                ("t_reduce_ns", (*t_reduce_ns).into()),
            ]),
            EventKind::JobRejected { job, tenant, queue_depth, queue_cap } => {
                Value::object(vec![
                    ("type", "job_rejected".into()),
                    ("job", (*job).into()),
                    ("tenant", (*tenant).into()),
                    ("queue_depth", (*queue_depth).into()),
                    ("queue_cap", (*queue_cap).into()),
                ])
            }
        }
    }

    fn from_value(v: &Value) -> Result<EventKind, String> {
        let kind = match str_field(v, "type")? {
            "offload" => EventKind::Offload {
                proc: usize_field(v, "proc")?,
                task: u64_field(v, "task")?,
            },
            "ctx_switch" => EventKind::CtxSwitch {
                proc: usize_field(v, "proc")?,
                reason: SwitchReason::from_str(str_field(v, "reason")?)
                    .ok_or("bad switch reason")?,
                held_ns: u64_field(v, "held_ns")?,
            },
            "task_start" => EventKind::TaskStart {
                proc: usize_field(v, "proc")?,
                task: u64_field(v, "task")?,
                degree: usize_field(v, "degree")?,
                team: usize_list(v, "team")?,
            },
            "task_end" => EventKind::TaskEnd {
                proc: usize_field(v, "proc")?,
                task: u64_field(v, "task")?,
                team: usize_list(v, "team")?,
            },
            "dma" => EventKind::Dma {
                spe: usize_field(v, "spe")?,
                element_bytes: usize_list(v, "element_bytes")?,
                local_addr: usize_field(v, "local_addr")?,
                main_addr: usize_field(v, "main_addr")?,
            },
            "mailbox_write" => EventKind::MailboxWrite {
                spe: usize_field(v, "spe")?,
                mailbox: MailboxKind::from_str(str_field(v, "mailbox")?)
                    .ok_or("bad mailbox kind")?,
                occupancy: usize_field(v, "occupancy")?,
            },
            "mailbox_read" => EventKind::MailboxRead {
                spe: usize_field(v, "spe")?,
                mailbox: MailboxKind::from_str(str_field(v, "mailbox")?)
                    .ok_or("bad mailbox kind")?,
                occupancy: usize_field(v, "occupancy")?,
            },
            "ls_alloc" => EventKind::LsAlloc {
                spe: usize_field(v, "spe")?,
                bytes: usize_field(v, "bytes")?,
                in_use: usize_field(v, "in_use")?,
            },
            "ls_free" => EventKind::LsFree {
                spe: usize_field(v, "spe")?,
                bytes: usize_field(v, "bytes")?,
                in_use: usize_field(v, "in_use")?,
            },
            "chunk" => EventKind::Chunk {
                task: u64_field(v, "task")?,
                loop_iters: usize_field(v, "loop_iters")?,
                start: usize_field(v, "start")?,
                len: usize_field(v, "len")?,
                worker: usize_field(v, "worker")?,
            },
            "code_reload" => EventKind::CodeReload {
                spe: usize_field(v, "spe")?,
                stall_ns: u64_field(v, "stall_ns")?,
            },
            "dma_complete" => EventKind::DmaComplete {
                spe: usize_field(v, "spe")?,
                bytes: usize_field(v, "bytes")?,
                latency_ns: u64_field(v, "latency_ns")?,
            },
            "degree_decision" => EventKind::DegreeDecision {
                degree: usize_field(v, "degree")?,
                u: v.get("u").and_then(Value::as_u64).map(|n| n as usize),
                waiting: usize_field(v, "waiting")?,
                n_spes: usize_field(v, "n_spes")?,
                window: usize_field(v, "window")?,
                window_fill: usize_field(v, "window_fill")?,
            },
            "health" => EventKind::Health {
                alarm: str_field(v, "alarm")?.to_string(),
                severity: str_field(v, "severity")?.to_string(),
                detail: str_field(v, "detail")?.to_string(),
            },
            "fault_injected" => EventKind::FaultInjected {
                spe: usize_field(v, "spe")?,
                task: u64_field(v, "task")?,
                fault: str_field(v, "fault")?.to_string(),
                attempt: u64_field(v, "attempt")?,
            },
            "offload_retry" => EventKind::OffloadRetry {
                task: u64_field(v, "task")?,
                attempt: u64_field(v, "attempt")?,
                backoff_ns: u64_field(v, "backoff_ns")?,
            },
            "spe_quarantined" => EventKind::SpeQuarantined {
                spe: usize_field(v, "spe")?,
                faults: u64_field(v, "faults")?,
            },
            "spe_readmitted" => EventKind::SpeReadmitted { spe: usize_field(v, "spe")? },
            "ppe_fallback" => EventKind::PpeFallback {
                proc: usize_field(v, "proc")?,
                task: u64_field(v, "task")?,
                attempts: u64_field(v, "attempts")?,
            },
            "granularity_verdict" => EventKind::GranularityVerdict {
                kernel: str_field(v, "kernel")?.to_string(),
                offload: bool_field(v, "offload")?,
                throttled: bool_field(v, "throttled")?,
                reprobe: bool_field(v, "reprobe")?,
            },
            "job_submitted" => EventKind::JobSubmitted {
                job: u64_field(v, "job")?,
                tenant: usize_field(v, "tenant")?,
                taxa: usize_field(v, "taxa")?,
                sites: usize_field(v, "sites")?,
                bootstraps: usize_field(v, "bootstraps")?,
                deadline_ns: v.get("deadline_ns").and_then(Value::as_u64).unwrap_or(0),
                queue_depth: usize_field(v, "queue_depth")?,
                queue_cap: usize_field(v, "queue_cap")?,
            },
            "job_started" => EventKind::JobStarted {
                job: u64_field(v, "job")?,
                tenant: usize_field(v, "tenant")?,
                attempt: v.get("attempt").and_then(Value::as_u64).unwrap_or(0),
            },
            "job_shed" => EventKind::JobShed {
                job: u64_field(v, "job")?,
                tenant: usize_field(v, "tenant")?,
                deadline_ns: u64_field(v, "deadline_ns")?,
            },
            "job_retried" => EventKind::JobRetried {
                job: u64_field(v, "job")?,
                tenant: usize_field(v, "tenant")?,
                attempt: u64_field(v, "attempt")?,
                backoff_ns: u64_field(v, "backoff_ns")?,
            },
            "job_poisoned" => EventKind::JobPoisoned {
                job: u64_field(v, "job")?,
                tenant: usize_field(v, "tenant")?,
                attempts: u64_field(v, "attempts")?,
            },
            "job_completed" => EventKind::JobCompleted {
                job: u64_field(v, "job")?,
                tenant: usize_field(v, "tenant")?,
                t_queue_ns: u64_field(v, "t_queue_ns")?,
                t_dispatch_ns: u64_field(v, "t_dispatch_ns")?,
                t_kernel_ns: u64_field(v, "t_kernel_ns")?,
                t_reduce_ns: u64_field(v, "t_reduce_ns")?,
            },
            "job_rejected" => EventKind::JobRejected {
                job: u64_field(v, "job")?,
                tenant: usize_field(v, "tenant")?,
                queue_depth: usize_field(v, "queue_depth")?,
                queue_cap: usize_field(v, "queue_cap")?,
            },
            other => return Err(format!("unknown event type '{other}'")),
        };
        Ok(kind)
    }
}

impl RunLog {
    /// Serialize to a JSON value tree.
    pub fn to_value(&self) -> Value {
        let events = self
            .events
            .iter()
            .map(|e| {
                let mut members = vec![
                    ("seq".to_string(), e.seq.into()),
                    ("at_ns".to_string(), e.at_ns.into()),
                ];
                if let Value::Object(kind_members) = e.kind.to_value() {
                    members.extend(kind_members);
                }
                Value::Object(members)
            })
            .collect::<Vec<_>>();
        let mut members: Vec<(&str, Value)> = vec![
            ("scheduler", self.scheduler.as_string().into()),
            ("n_spes", self.n_spes.into()),
            ("quantum_ns", self.quantum_ns.into()),
            ("seed", self.seed.into()),
            ("local_store_bytes", self.local_store_bytes.into()),
            ("loop_iters", self.loop_iters.into()),
            (
                "mgps_window",
                self.mgps_window.map_or(Value::Null, Into::into),
            ),
            (
                "fault_policy",
                self.fault_policy.clone().map_or(Value::Null, Into::into),
            ),
        ];
        if let Some(weights) = &self.tenant_weights {
            members.push(("tenant_weights", Value::array(weights.clone())));
        }
        members.push(("events", Value::Array(events)));
        Value::object(members)
    }

    /// Rebuild a log from [`Self::to_value`] output.
    ///
    /// # Errors
    /// A description of the first missing or mistyped field.
    pub fn from_value(v: &Value) -> Result<RunLog, String> {
        let mut events = Vec::new();
        for e in v
            .get("events")
            .and_then(Value::as_array)
            .ok_or("missing array field 'events'")?
        {
            events.push(EventRecord {
                seq: u64_field(e, "seq")?,
                at_ns: u64_field(e, "at_ns")?,
                kind: EventKind::from_value(e)?,
            });
        }
        Ok(RunLog {
            scheduler: SchedulerTag::from_string(str_field(v, "scheduler")?)
                .ok_or("bad scheduler tag")?,
            n_spes: usize_field(v, "n_spes")?,
            quantum_ns: u64_field(v, "quantum_ns")?,
            seed: u64_field(v, "seed")?,
            local_store_bytes: usize_field(v, "local_store_bytes")?,
            loop_iters: usize_field(v, "loop_iters")?,
            mgps_window: v.get("mgps_window").and_then(Value::as_u64).map(|n| n as usize),
            fault_policy: v
                .get("fault_policy")
                .and_then(Value::as_str)
                .map(str::to_string),
            tenant_weights: v
                .get("tenant_weights")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_u64).collect()),
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> RunLog {
        RunLog {
            scheduler: SchedulerTag::Mgps,
            n_spes: 8,
            quantum_ns: 1_000_000,
            seed: 42,
            local_store_bytes: 256 * 1024,
            loop_iters: 228,
            mgps_window: Some(8),
            fault_policy: None,
            tenant_weights: None,
            events: vec![
                EventRecord {
                    seq: 0,
                    at_ns: 10,
                    kind: EventKind::Offload { proc: 0, task: 0 },
                },
                EventRecord {
                    seq: 1,
                    at_ns: 10,
                    kind: EventKind::CtxSwitch {
                        proc: 0,
                        reason: SwitchReason::Offload,
                        held_ns: 10,
                    },
                },
                EventRecord {
                    seq: 2,
                    at_ns: 25,
                    kind: EventKind::TaskStart {
                        proc: 0,
                        task: 0,
                        degree: 2,
                        team: vec![0, 1],
                    },
                },
                EventRecord {
                    seq: 3,
                    at_ns: 25,
                    kind: EventKind::Dma {
                        spe: 0,
                        element_bytes: vec![12 * 1024, 128],
                        local_addr: 0,
                        main_addr: 4096,
                    },
                },
                EventRecord {
                    seq: 4,
                    at_ns: 25,
                    kind: EventKind::Chunk {
                        task: 0,
                        loop_iters: 228,
                        start: 0,
                        len: 114,
                        worker: 0,
                    },
                },
                EventRecord {
                    seq: 5,
                    at_ns: 99,
                    kind: EventKind::DegreeDecision {
                        degree: 4,
                        u: None,
                        waiting: 2,
                        n_spes: 8,
                        window: 8,
                        window_fill: 3,
                    },
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_every_event_type() {
        let mut log = sample_log();
        log.events.extend([
            EventRecord {
                seq: 6,
                at_ns: 100,
                kind: EventKind::TaskEnd {
                    proc: 0,
                    task: 0,
                    team: vec![0, 1],
                },
            },
            EventRecord {
                seq: 7,
                at_ns: 100,
                kind: EventKind::MailboxWrite {
                    spe: 0,
                    mailbox: MailboxKind::OutboundInterrupt,
                    occupancy: 1,
                },
            },
            EventRecord {
                seq: 8,
                at_ns: 100,
                kind: EventKind::MailboxRead {
                    spe: 0,
                    mailbox: MailboxKind::OutboundInterrupt,
                    occupancy: 0,
                },
            },
            EventRecord {
                seq: 9,
                at_ns: 100,
                kind: EventKind::LsAlloc {
                    spe: 1,
                    bytes: 4096,
                    in_use: 4096,
                },
            },
            EventRecord {
                seq: 10,
                at_ns: 101,
                kind: EventKind::LsFree {
                    spe: 1,
                    bytes: 4096,
                    in_use: 0,
                },
            },
            EventRecord {
                seq: 11,
                at_ns: 102,
                kind: EventKind::CodeReload {
                    spe: 2,
                    stall_ns: 250_000,
                },
            },
            EventRecord {
                seq: 12,
                at_ns: 103,
                kind: EventKind::DmaComplete {
                    spe: 2,
                    bytes: 12 * 1024,
                    latency_ns: 1_337,
                },
            },
            EventRecord {
                seq: 13,
                at_ns: 104,
                kind: EventKind::Health {
                    alarm: "utilization_collapse".to_string(),
                    severity: "warning".to_string(),
                    detail: "U<=1 with degree 1 for 3 windows".to_string(),
                },
            },
            EventRecord {
                seq: 14,
                at_ns: 105,
                kind: EventKind::FaultInjected {
                    spe: 3,
                    task: 7,
                    fault: "spe_stall".to_string(),
                    attempt: 0,
                },
            },
            EventRecord {
                seq: 15,
                at_ns: 106,
                kind: EventKind::OffloadRetry { task: 7, attempt: 1, backoff_ns: 50_500 },
            },
            EventRecord {
                seq: 16,
                at_ns: 107,
                kind: EventKind::SpeQuarantined { spe: 3, faults: 3 },
            },
            EventRecord {
                seq: 17,
                at_ns: 108,
                kind: EventKind::SpeReadmitted { spe: 3 },
            },
            EventRecord {
                seq: 18,
                at_ns: 109,
                kind: EventKind::PpeFallback { proc: 0, task: 7, attempts: 4 },
            },
            EventRecord {
                seq: 19,
                at_ns: 110,
                kind: EventKind::GranularityVerdict {
                    kernel: "makenewz".to_string(),
                    offload: false,
                    throttled: true,
                    reprobe: false,
                },
            },
            EventRecord {
                seq: 20,
                at_ns: 111,
                kind: EventKind::JobSubmitted {
                    job: 0xfeed,
                    tenant: 1,
                    taxa: 16,
                    sites: 256,
                    bootstraps: 2,
                    deadline_ns: 5_000_000,
                    queue_depth: 3,
                    queue_cap: 8,
                },
            },
            EventRecord {
                seq: 21,
                at_ns: 112,
                kind: EventKind::JobStarted { job: 0xfeed, tenant: 1, attempt: 0 },
            },
            EventRecord {
                seq: 22,
                at_ns: 113,
                kind: EventKind::JobRetried {
                    job: 0xfeed,
                    tenant: 1,
                    attempt: 1,
                    backoff_ns: 1_000,
                },
            },
            EventRecord {
                seq: 23,
                at_ns: 114,
                kind: EventKind::JobStarted { job: 0xfeed, tenant: 1, attempt: 1 },
            },
            EventRecord {
                seq: 24,
                at_ns: 115,
                kind: EventKind::JobCompleted {
                    job: 0xfeed,
                    tenant: 1,
                    t_queue_ns: 2,
                    t_dispatch_ns: 0,
                    t_kernel_ns: 2,
                    t_reduce_ns: 0,
                },
            },
            EventRecord {
                seq: 25,
                at_ns: 115,
                kind: EventKind::JobRejected {
                    job: 0xbead,
                    tenant: 0,
                    queue_depth: 8,
                    queue_cap: 8,
                },
            },
            EventRecord {
                seq: 26,
                at_ns: 116,
                kind: EventKind::JobShed {
                    job: 0xdead,
                    tenant: 2,
                    deadline_ns: 1_000_000,
                },
            },
            EventRecord {
                seq: 27,
                at_ns: 117,
                kind: EventKind::JobPoisoned { job: 0xcafe, tenant: 0, attempts: 3 },
            },
        ]);
        log.fault_policy = Some("seed=1,stall=0.05,retries=3".to_string());
        log.tenant_weights = Some(vec![3, 1, 2]);
        let text = log.to_value().to_json_pretty();
        let back = RunLog::from_value(&minijson::parse(&text).unwrap()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn default_valued_job_fields_are_omitted_from_json() {
        // Byte-identity contract: a run with no deadlines, no retries, and
        // equal weights must serialize exactly as it did before those
        // features existed, so the optional keys may not appear at all.
        let mut log = sample_log();
        log.events = vec![
            EventRecord {
                seq: 0,
                at_ns: 1,
                kind: EventKind::JobSubmitted {
                    job: 1,
                    tenant: 0,
                    taxa: 16,
                    sites: 256,
                    bootstraps: 1,
                    deadline_ns: 0,
                    queue_depth: 1,
                    queue_cap: 8,
                },
            },
            EventRecord {
                seq: 1,
                at_ns: 2,
                kind: EventKind::JobStarted { job: 1, tenant: 0, attempt: 0 },
            },
        ];
        let text = log.to_value().to_json_pretty();
        assert!(!text.contains("deadline_ns"), "zero deadline must not serialize");
        assert!(!text.contains("attempt"), "attempt 0 must not serialize");
        assert!(!text.contains("tenant_weights"), "equal weights must not serialize");
        let back = RunLog::from_value(&minijson::parse(&text).unwrap()).unwrap();
        assert_eq!(back, log, "omitted fields read back as their defaults");
    }

    #[test]
    fn native_degree_decision_round_trips_its_u_sample() {
        let mut log = sample_log();
        log.events = vec![EventRecord {
            seq: 0,
            at_ns: 5,
            kind: EventKind::DegreeDecision {
                degree: 2,
                u: Some(3),
                waiting: 1,
                n_spes: 8,
                window: 8,
                window_fill: 8,
            },
        }];
        let text = log.to_value().to_json_pretty();
        assert!(text.contains("\"u\": 3"), "{text}");
        let back = RunLog::from_value(&minijson::parse(&text).unwrap()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn simulator_degree_decision_serializes_without_u() {
        // Byte-identity contract: simulator logs (and so replay digests)
        // keep the form they had before native decisions carried `U`.
        let kind = EventKind::DegreeDecision {
            degree: 4,
            u: None,
            waiting: 2,
            n_spes: 8,
            window: 8,
            window_fill: 3,
        };
        assert_eq!(
            kind.to_value().to_json(),
            r#"{"type":"degree_decision","degree":4,"waiting":2,"n_spes":8,"window":8,"window_fill":3}"#
        );
    }

    #[test]
    fn absent_fault_policy_reads_back_as_none() {
        let log = sample_log();
        let text = log.to_value().to_json_pretty();
        let back = RunLog::from_value(&minijson::parse(&text).unwrap()).unwrap();
        assert_eq!(back.fault_policy, None);
    }

    #[test]
    fn scheduler_tags_round_trip() {
        for tag in [
            SchedulerTag::Edtlp,
            SchedulerTag::Linux,
            SchedulerTag::StaticHybrid(4),
            SchedulerTag::Mgps,
        ] {
            assert_eq!(SchedulerTag::from_string(&tag.as_string()), Some(tag));
        }
        assert_eq!(SchedulerTag::from_string("nope"), None);
    }

    #[test]
    fn mailbox_capacities_match_hardware() {
        assert_eq!(MailboxKind::Inbound.capacity(), 4);
        assert_eq!(MailboxKind::Outbound.capacity(), 1);
        assert_eq!(MailboxKind::OutboundInterrupt.capacity(), 1);
    }
}
