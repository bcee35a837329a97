//! Critical-path extraction and what-if replay over a [`RunLog`].
//!
//! [`CriticalPath::from_log`] walks the run's dependency structure
//! *backward* from the last task to finish, covering the interval
//! `[0, makespan]` with non-overlapping segments and blaming each segment
//! on one of the five granularity-inequality phases. Because the covering
//! is exact, the per-phase blame sums to the makespan to the nanosecond —
//! the answer to "which term bounds this run" is a partition, not an
//! estimate.
//!
//! ## The walk
//!
//! From the current task's execution interval `[start, end]` the walk
//! blames the task's code-reload stall (`t_code`), its DMA latency
//! (`t_comm`), and the remainder (`t_spe`). It then asks why the task did
//! not start earlier:
//!
//! 1. **Resource predecessor** — another task was still occupying SPEs
//!    after this task's off-load (its end lies in `(offload, start]`).
//!    The gap from that task's end to this start is queueing: `t_wait`.
//!    The walk continues at the blocking task.
//! 2. **Spawn predecessor** — no task blocked it, so the delay before the
//!    off-load is the owning process computing on the PPE. The gap
//!    `[offload, start]` is `t_wait` (grant latency), and the gap from the
//!    process's previous task end to the off-load is `t_ppe`. The walk
//!    continues at that previous task.
//! 3. **Run start** — no predecessor at all: `[0, offload]` is the
//!    process's initial PPE section, blamed `t_ppe`, and the walk ends.
//!
//! Ties (two candidate predecessors ending at the same instant) break
//! deterministically toward the higher task id, so the path is a pure
//! function of the log. A task already on the path is never a candidate
//! again: zero-length tasks and equal end times could otherwise lead the
//! walk back to a task it has left.
//!
//! ## Cost
//!
//! The walk is O(n log n) in completed tasks. After the fold, the task
//! records are sorted once by `(end, task)` globally and once per process.
//! A resource predecessor is a binary search for the last end `≤ start`
//! in the global index followed by a backward scan while `end > offload`;
//! a spawn predecessor is the same search for the last end `≤ offload` in
//! the process's index. Each scan stops at the first task not yet
//! visited (a bitmap), and only tasks tied at the current instant can
//! already be visited, so a scan is short. Both the tie-break and the
//! visited rule are pinned by the test oracle: the quadratic
//! filter-and-max walk this replaced, kept under `#[cfg(test)]` and
//! property-tested against the indexed walk.
//!
//! ## What-if replay
//!
//! [`what_if`] replays the recorded per-process task chains through a
//! greedy list scheduler over an altered machine: more SPEs, scaled DMA
//! latency, or a forced LLP degree ([`WhatIf`]). Recorded PPE gaps between
//! a task's end and the next off-load are preserved per process; SPE
//! demand is the task's team size. With identity knobs the replay
//! reproduces the recorded makespan (validated in tests against the
//! simulator), which is what licenses trusting it off the recorded point.
//!
//! [`RunLog`]: mgps_runtime::event::RunLog

use std::collections::{BTreeMap, HashMap};

use mgps_runtime::event::{EventKind, RunLog};

/// The five phases of the paper's granularity inequality, as blame
/// categories for makespan accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// PPE-side computation (`t_ppe`).
    Ppe,
    /// Off-load queueing delay (`t_wait`).
    Wait,
    /// SPE execution (`t_spe`).
    Spe,
    /// Code-image reload stall (`t_code`).
    Code,
    /// DMA transfer latency (`t_comm`).
    Comm,
}

impl Phase {
    /// All phases, in blame-table order.
    pub const ALL: [Phase; 5] = [Phase::Ppe, Phase::Wait, Phase::Spe, Phase::Code, Phase::Comm];

    /// The inequality's name for the phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Ppe => "t_ppe",
            Phase::Wait => "t_wait",
            Phase::Spe => "t_spe",
            Phase::Code => "t_code",
            Phase::Comm => "t_comm",
        }
    }
}

/// Nanoseconds of makespan blamed on each phase. The five fields sum to
/// the makespan exactly (the walk partitions `[0, makespan]`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBlame {
    /// Blamed on PPE computation.
    pub t_ppe_ns: u64,
    /// Blamed on off-load queueing.
    pub t_wait_ns: u64,
    /// Blamed on SPE execution.
    pub t_spe_ns: u64,
    /// Blamed on code reload stalls.
    pub t_code_ns: u64,
    /// Blamed on DMA latency.
    pub t_comm_ns: u64,
}

impl PhaseBlame {
    /// Blame assigned to one phase.
    pub fn get(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Ppe => self.t_ppe_ns,
            Phase::Wait => self.t_wait_ns,
            Phase::Spe => self.t_spe_ns,
            Phase::Code => self.t_code_ns,
            Phase::Comm => self.t_comm_ns,
        }
    }

    /// Sum over all phases (equals the makespan for a completed walk).
    pub fn total(&self) -> u64 {
        Phase::ALL.iter().map(|&p| self.get(p)).sum()
    }
}

/// One task on the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritStep {
    /// The task.
    pub task: u64,
    /// Its owning worker process.
    pub proc: usize,
    /// Execution start, ns.
    pub start_ns: u64,
    /// Execution end, ns.
    pub end_ns: u64,
}

/// The critical path of one run with per-phase makespan blame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// End of the last task, ns — the quantity the blame partitions.
    pub makespan_ns: u64,
    /// Tasks on the path, in execution order.
    pub steps: Vec<CritStep>,
    /// Which phase each nanosecond of the makespan waits on.
    pub blame: PhaseBlame,
}

impl CriticalPath {
    /// Extract the critical path of `log`. Empty runs (no completed task)
    /// yield the default value.
    pub fn from_log(log: &RunLog) -> CriticalPath {
        let recs = fold_tasks(log);
        let mut cp = CriticalPath::default();
        // Record indices by (end, task), globally and grouped by process.
        // The sorts are stable, so among records with equal keys (one task
        // id completed twice) a backward scan meets the last record first.
        let mut by_end: Vec<usize> = (0..recs.len()).collect();
        by_end.sort_by_key(|&i| (recs[i].end_ns, recs[i].task));
        let mut by_proc = by_end.clone();
        by_proc.sort_by_key(|&i| recs[i].proc);
        // The visited rule is per task id, so every record of one id shares
        // the flag of the id's first record (records are in id order).
        let slot: Vec<usize> =
            recs.iter().map(|r| recs.partition_point(|q| q.task < r.task)).collect();
        let mut visited = vec![false; recs.len()];

        let Some(&last) = by_end.last() else {
            return cp;
        };
        cp.makespan_ns = recs[last].end_ns;
        let mut at = last;
        loop {
            let cur = &recs[at];
            visited[slot[at]] = true;
            let exec = cur.end_ns - cur.start_ns;
            let code = cur.t_code_ns.min(exec);
            let comm = cur.t_comm_ns.min(exec - code);
            cp.blame.t_code_ns += code;
            cp.blame.t_comm_ns += comm;
            cp.blame.t_spe_ns += exec - code - comm;
            cp.steps.push(CritStep {
                task: cur.task,
                proc: cur.proc,
                start_ns: cur.start_ns,
                end_ns: cur.end_ns,
            });
            // 1. Resource predecessor: a task still running after our
            //    off-load, whose completion let us start.
            let hi = by_end.partition_point(|&i| recs[i].end_ns <= cur.start_ns);
            if let Some(&p) = by_end[..hi]
                .iter()
                .rev()
                .take_while(|&&i| recs[i].end_ns > cur.offload_ns)
                .find(|&&i| !visited[slot[i]])
            {
                cp.blame.t_wait_ns += cur.start_ns - recs[p].end_ns;
                at = p;
                continue;
            }
            cp.blame.t_wait_ns += cur.start_ns - cur.offload_ns;
            // 2. Spawn predecessor: our process's previous task, whose end
            //    started the PPE section that led to our off-load.
            let lo = by_proc.partition_point(|&i| recs[i].proc < cur.proc);
            let hi = by_proc
                .partition_point(|&i| (recs[i].proc, recs[i].end_ns) <= (cur.proc, cur.offload_ns));
            if let Some(&q) = by_proc[lo..hi].iter().rev().find(|&&i| !visited[slot[i]]) {
                cp.blame.t_ppe_ns += cur.offload_ns - recs[q].end_ns;
                at = q;
                continue;
            }
            // 3. Run start.
            cp.blame.t_ppe_ns += cur.offload_ns;
            break;
        }
        cp.steps.reverse();
        cp
    }

    /// The phase with the largest blame (first in [`Phase::ALL`] order on
    /// a tie).
    pub fn dominant(&self) -> Phase {
        let mut best = Phase::Ppe;
        for &p in &Phase::ALL {
            if self.blame.get(p) > self.blame.get(best) {
                best = p;
            }
        }
        best
    }
}

/// Machine/scheduling alterations for a [`what_if`] replay. The default
/// value changes nothing (identity replay).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIf {
    /// SPEs added to the pool ("+1 SPE").
    pub extra_spes: usize,
    /// Multiplier on recorded DMA latency (0.5 ≙ doubled bandwidth).
    pub dma_scale: f64,
    /// Force every task to this LLP degree; SPE time scales by
    /// `recorded_degree / new_degree` (the paper's linear-LLP idealization).
    pub degree_override: Option<usize>,
}

impl Default for WhatIf {
    fn default() -> Self {
        WhatIf { extra_spes: 0, dma_scale: 1.0, degree_override: None }
    }
}

/// Verdict of a [`what_if`] replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfOutcome {
    /// Recorded makespan (last task end), ns.
    pub baseline_makespan_ns: u64,
    /// Replayed makespan under the altered machine, ns.
    pub predicted_makespan_ns: u64,
    /// `baseline / predicted` (1.0 for an empty run).
    pub speedup: f64,
}

/// Replay `log`'s task chains through a greedy list scheduler under
/// `knobs` and predict the resulting makespan.
pub fn what_if(log: &RunLog, knobs: WhatIf) -> WhatIfOutcome {
    let recs = fold_tasks(log);
    let baseline = recs.iter().map(|r| r.end_ns).max().unwrap_or(0);
    let n_spes = (log.n_spes + knobs.extra_spes).max(1);

    // Per-process chains in off-load (task-id) order, with the recorded
    // PPE gap preceding each task: gap_0 = offload_0, gap_i = offload_i −
    // end_{i−1}. The gaps are what the replay preserves; starts and ends
    // are recomputed.
    let mut chains: BTreeMap<usize, Vec<(u64, &TaskRec)>> = BTreeMap::new();
    for r in &recs {
        let chain = chains.entry(r.proc).or_default();
        let prev_end = chain.last().map(|&(_, p)| p.end_ns).unwrap_or(0);
        chain.push((r.offload_ns.saturating_sub(prev_end), r));
    }

    // Greedy simulation: each process is a sequential chain; SPEs are a
    // homogeneous server pool; the earliest-ready process is granted next
    // (FIFO in replayed off-load order), taking the `degree` earliest-free
    // servers and starting when the last of them frees.
    let mut free = vec![0u64; n_spes];
    let procs: Vec<usize> = chains.keys().copied().collect();
    let mut next: HashMap<usize, usize> = procs.iter().map(|&p| (p, 0)).collect();
    let mut ready: HashMap<usize, u64> =
        procs.iter().map(|&p| (p, chains[&p][0].0)).collect();
    let mut makespan = 0u64;
    while let Some(&proc) = procs
        .iter()
        .filter(|p| next[p] < chains[p].len())
        .min_by_key(|p| (ready[p], **p))
    {
        let i = next[&proc];
        let (_, r) = chains[&proc][i];
        let exec = scaled_exec(r, n_spes, knobs);
        let degree = effective_degree(r, n_spes, knobs);
        free.sort_unstable();
        let start = ready[&proc].max(free[degree - 1]);
        let end = start + exec;
        for slot in free.iter_mut().take(degree) {
            *slot = end;
        }
        makespan = makespan.max(end);
        next.insert(proc, i + 1);
        if i + 1 < chains[&proc].len() {
            ready.insert(proc, end + chains[&proc][i + 1].0);
        }
    }

    let speedup = if makespan == 0 { 1.0 } else { baseline as f64 / makespan as f64 };
    WhatIfOutcome {
        baseline_makespan_ns: baseline,
        predicted_makespan_ns: makespan,
        speedup,
    }
}

fn effective_degree(r: &TaskRec, n_spes: usize, knobs: WhatIf) -> usize {
    knobs
        .degree_override
        .unwrap_or(r.degree.max(1))
        .clamp(1, n_spes)
}

/// A task's execution time under the knobs: the code stall is fixed, DMA
/// latency scales with bandwidth, and the compute remainder scales
/// inversely with the LLP degree (ideal work-sharing).
fn scaled_exec(r: &TaskRec, n_spes: usize, knobs: WhatIf) -> u64 {
    let exec = r.end_ns - r.start_ns;
    let code = r.t_code_ns.min(exec);
    let comm = r.t_comm_ns.min(exec - code);
    let spe = exec - code - comm;
    let d0 = r.degree.max(1);
    let d1 = effective_degree(r, n_spes, knobs);
    let spe_scaled = (spe as f64 * d0 as f64 / d1 as f64).round() as u64;
    let comm_scaled = (comm as f64 * knobs.dma_scale).round() as u64;
    code + spe_scaled + comm_scaled
}

/// Per-task record recovered from the log: lifecycle timestamps plus the
/// code/DMA costs attributable to the task's execution interval.
#[derive(Debug)]
struct TaskRec {
    task: u64,
    proc: usize,
    offload_ns: u64,
    start_ns: u64,
    end_ns: u64,
    degree: usize,
    t_code_ns: u64,
    t_comm_ns: u64,
}

/// Fold completed tasks out of `log`, sorted by task id (off-load order).
/// Attribution mirrors [`crate::phases`]: reload stalls at the grant
/// instant cost the task one stall (the team reloads in parallel, so the
/// maximum), and DMA latency is charged to the task whose team member's
/// MFC moved the data.
fn fold_tasks(log: &RunLog) -> Vec<TaskRec> {
    let mut done = Vec::new();
    let mut open: HashMap<u64, TaskRec> = HashMap::new();
    let mut offload_at: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut member_of: HashMap<usize, u64> = HashMap::new();
    let mut reloads: Vec<(usize, u64, u64)> = Vec::new();
    let mut teams: HashMap<u64, Vec<usize>> = HashMap::new();

    for e in &log.events {
        match &e.kind {
            EventKind::Offload { proc, task } => {
                offload_at.insert(*task, (*proc, e.at_ns));
            }
            EventKind::CodeReload { spe, stall_ns } => {
                reloads.push((*spe, e.at_ns, *stall_ns));
            }
            EventKind::TaskStart { proc, task, degree, team } => {
                let (_, offload_ns) =
                    offload_at.get(task).copied().unwrap_or((*proc, e.at_ns));
                let mut rec = TaskRec {
                    task: *task,
                    proc: *proc,
                    offload_ns,
                    start_ns: e.at_ns,
                    end_ns: e.at_ns,
                    degree: *degree,
                    t_code_ns: 0,
                    t_comm_ns: 0,
                };
                let mut claimed = 0u64;
                reloads.retain(|&(spe, at, stall)| {
                    if at == e.at_ns && team.contains(&spe) {
                        claimed = claimed.max(stall);
                        false
                    } else {
                        at == e.at_ns // older instants can never match
                    }
                });
                rec.t_code_ns = claimed;
                for &spe in team {
                    member_of.insert(spe, *task);
                }
                teams.insert(*task, team.clone());
                open.insert(*task, rec);
            }
            EventKind::DmaComplete { spe, latency_ns, .. } => {
                if let Some(task) = member_of.get(spe) {
                    if let Some(rec) = open.get_mut(task) {
                        rec.t_comm_ns += latency_ns;
                    }
                }
            }
            EventKind::TaskEnd { task, .. } => {
                if let Some(mut rec) = open.remove(task) {
                    rec.end_ns = e.at_ns;
                    if let Some(team) = teams.remove(task) {
                        for spe in team {
                            if member_of.get(&spe) == Some(task) {
                                member_of.remove(&spe);
                            }
                        }
                    }
                    done.push(rec);
                }
            }
            _ => {}
        }
    }
    done.sort_by_key(|r| r.task);
    done
}

/// The quadratic walk [`CriticalPath::from_log`] replaced: every step
/// rescans all task records with filter-and-max, and a hash set holds the
/// visited task ids. It is the reference that pins the indexed walk's
/// tie-break and visited rules.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::HashSet;

    use mgps_runtime::event::RunLog;

    use super::{fold_tasks, CritStep, CriticalPath};

    /// The critical path of `log`, walked by rescanning every record.
    pub fn walk(log: &RunLog) -> CriticalPath {
        let recs = fold_tasks(log);
        let mut cp = CriticalPath::default();
        let Some(start) = recs.iter().max_by_key(|r| (r.end_ns, r.task)) else {
            return cp;
        };
        cp.makespan_ns = start.end_ns;
        let mut cur = start;
        let mut visited: HashSet<u64> = HashSet::new();
        loop {
            visited.insert(cur.task);
            let exec = cur.end_ns - cur.start_ns;
            let code = cur.t_code_ns.min(exec);
            let comm = cur.t_comm_ns.min(exec - code);
            cp.blame.t_code_ns += code;
            cp.blame.t_comm_ns += comm;
            cp.blame.t_spe_ns += exec - code - comm;
            cp.steps.push(CritStep {
                task: cur.task,
                proc: cur.proc,
                start_ns: cur.start_ns,
                end_ns: cur.end_ns,
            });
            if let Some(p) = recs
                .iter()
                .filter(|t| {
                    !visited.contains(&t.task)
                        && t.end_ns <= cur.start_ns
                        && t.end_ns > cur.offload_ns
                })
                .max_by_key(|t| (t.end_ns, t.task))
            {
                cp.blame.t_wait_ns += cur.start_ns - p.end_ns;
                cur = p;
                continue;
            }
            cp.blame.t_wait_ns += cur.start_ns - cur.offload_ns;
            if let Some(q) = recs
                .iter()
                .filter(|t| {
                    !visited.contains(&t.task)
                        && t.proc == cur.proc
                        && t.end_ns <= cur.offload_ns
                })
                .max_by_key(|t| (t.end_ns, t.task))
            {
                cp.blame.t_ppe_ns += cur.offload_ns - q.end_ns;
                cur = q;
                continue;
            }
            cp.blame.t_ppe_ns += cur.offload_ns;
            break;
        }
        cp.steps.reverse();
        cp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgps_runtime::event::{EventRecord, SchedulerTag};
    use proptest::prelude::*;

    fn log_with(events: Vec<(u64, EventKind)>) -> RunLog {
        RunLog {
            scheduler: SchedulerTag::Edtlp,
            n_spes: 2,
            quantum_ns: 0,
            seed: 1,
            local_store_bytes: 256 * 1024,
            loop_iters: 16,
            mgps_window: None,
            fault_policy: None,
            tenant_weights: None,
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, (at_ns, kind))| EventRecord { seq: i as u64, at_ns, kind })
                .collect(),
        }
    }

    /// Two tasks chained on one process: the blame partitions the
    /// makespan into the initial PPE section, grant waits, exec time, the
    /// inter-task PPE gap, and the second task's code stall.
    #[test]
    fn spawn_chain_blame_partitions_the_makespan() {
        let log = log_with(vec![
            (100, EventKind::Offload { proc: 0, task: 0 }),
            (110, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (110, EventKind::DmaComplete { spe: 0, bytes: 2048, latency_ns: 20 }),
            (310, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
            (400, EventKind::Offload { proc: 0, task: 1 }),
            (400, EventKind::CodeReload { spe: 1, stall_ns: 30 }),
            (400, EventKind::TaskStart { proc: 0, task: 1, degree: 1, team: vec![1] }),
            (700, EventKind::TaskEnd { proc: 0, task: 1, team: vec![1] }),
        ]);
        let cp = CriticalPath::from_log(&log);
        assert_eq!(cp.makespan_ns, 700);
        assert_eq!(cp.steps.iter().map(|s| s.task).collect::<Vec<_>>(), vec![0, 1]);
        // Partition: [0,100] ppe, [100,110] wait, [110,310] exec of task 0
        // (20 ns comm + 180 ns spe), [310,400] ppe, [400,700] exec of
        // task 1 (30 ns code + 270 ns spe).
        assert_eq!(cp.blame.t_ppe_ns, 100 + 90);
        assert_eq!(cp.blame.t_wait_ns, 10);
        assert_eq!(cp.blame.t_code_ns, 30);
        assert_eq!(cp.blame.t_comm_ns, 20);
        assert_eq!(cp.blame.t_spe_ns, 180 + 270);
        assert_eq!(cp.blame.total(), cp.makespan_ns);
        assert_eq!(cp.dominant(), Phase::Spe);
    }

    /// A task queued behind another process's task: the walk crosses to
    /// the blocking task and blames the queueing gap on `t_wait`.
    #[test]
    fn resource_predecessor_is_blamed_as_wait() {
        let log = log_with(vec![
            (0, EventKind::Offload { proc: 0, task: 0 }),
            (0, EventKind::TaskStart { proc: 0, task: 0, degree: 2, team: vec![0, 1] }),
            (10, EventKind::Offload { proc: 1, task: 1 }),
            (500, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0, 1] }),
            (500, EventKind::TaskStart { proc: 1, task: 1, degree: 1, team: vec![0] }),
            (600, EventKind::TaskEnd { proc: 1, task: 1, team: vec![0] }),
        ]);
        let cp = CriticalPath::from_log(&log);
        assert_eq!(cp.steps.iter().map(|s| s.task).collect::<Vec<_>>(), vec![0, 1]);
        // [0,500] task 0 exec, [500,500] zero wait, [500,600] task 1 exec;
        // proc 1's off-load at 10 never appears: the path explains its
        // start with the blocking task, not its own spawn.
        assert_eq!(cp.blame.t_spe_ns, 600);
        assert_eq!(cp.blame.t_wait_ns, 0);
        assert_eq!(cp.blame.total(), cp.makespan_ns);
        assert_eq!(cp.dominant(), Phase::Spe);
    }

    /// One generated task: `(proc, offload instant, grant wait, exec
    /// time)`, `(team lead, extra team members, code stall, DMA latency)`,
    /// `(Offload event recorded, reuses the previous task id)`.
    type TaskSpec = ((usize, u64, u64, u64), (usize, usize, u64, u64), (bool, bool));

    /// Instants come from a narrow range so equal timestamps, zero waits
    /// and zero-length tasks are common; ids are occasionally reused.
    fn task_spec() -> impl Strategy<Value = TaskSpec> {
        (
            (0usize..4, 0u64..24, 0u64..4, 0u64..6),
            (0usize..8, 0usize..3, 0u64..3, 0u64..4),
            (prop::bool::weighted(0.8), prop::bool::weighted(0.05)),
        )
    }

    /// Lay the specs out as a time-ordered log over `n_procs` processes
    /// and `n_spes` SPEs.
    fn spec_log(n_procs: usize, n_spes: usize, specs: &[TaskSpec]) -> RunLog {
        let mut events = Vec::new();
        for (i, &((proc, offload, wait, exec), (lead, extra, stall, dma), (offloaded, reuse))) in
            specs.iter().enumerate()
        {
            let proc = proc % n_procs;
            let task = if reuse { i.saturating_sub(1) as u64 } else { i as u64 };
            let team: Vec<usize> =
                (0..=extra.min(n_spes - 1)).map(|k| (lead + k) % n_spes).collect();
            let (start, end) = (offload + wait, offload + wait + exec);
            if offloaded {
                events.push((offload, EventKind::Offload { proc, task }));
            }
            if stall > 0 {
                events.push((start, EventKind::CodeReload { spe: team[0], stall_ns: stall }));
            }
            let degree = team.len();
            events.push((start, EventKind::TaskStart { proc, task, degree, team: team.clone() }));
            if dma > 0 {
                let spe = team[team.len() - 1];
                let at = start + exec / 2;
                events.push((at, EventKind::DmaComplete { spe, bytes: 128, latency_ns: dma }));
            }
            events.push((end, EventKind::TaskEnd { proc, task, team }));
        }
        events.sort_by_key(|&(at, _)| at);
        let mut log = log_with(events);
        log.n_spes = n_spes;
        log
    }

    proptest! {
        /// The indexed walk and the quadratic oracle agree on the whole
        /// path: steps, blame, and makespan.
        #[test]
        fn indexed_walk_matches_the_quadratic_oracle(
            n_procs in 1usize..=4,
            n_spes in 1usize..=8,
            specs in prop::collection::vec(task_spec(), 0..48),
        ) {
            let log = spec_log(n_procs, n_spes, &specs);
            let cp = CriticalPath::from_log(&log);
            prop_assert_eq!(&cp, &oracle::walk(&log));
            prop_assert_eq!(cp.blame.total(), cp.makespan_ns);
        }
    }

    /// Four candidates end at 50 ns, two of them zero-length tasks that
    /// waited from 40 ns: the walk takes the highest id first, and a
    /// zero-length task, whose own end lies in its blocking window, is
    /// never chosen as its own predecessor.
    #[test]
    fn ties_break_toward_the_higher_id_and_never_revisit() {
        let log = log_with(vec![
            (0, EventKind::Offload { proc: 0, task: 0 }),
            (0, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (0, EventKind::Offload { proc: 1, task: 1 }),
            (0, EventKind::TaskStart { proc: 1, task: 1, degree: 1, team: vec![1] }),
            (10, EventKind::Offload { proc: 2, task: 4 }),
            (40, EventKind::Offload { proc: 0, task: 2 }),
            (40, EventKind::Offload { proc: 1, task: 3 }),
            (50, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
            (50, EventKind::TaskEnd { proc: 1, task: 1, team: vec![1] }),
            (50, EventKind::TaskStart { proc: 0, task: 2, degree: 1, team: vec![0] }),
            (50, EventKind::TaskEnd { proc: 0, task: 2, team: vec![0] }),
            (50, EventKind::TaskStart { proc: 1, task: 3, degree: 1, team: vec![1] }),
            (50, EventKind::TaskEnd { proc: 1, task: 3, team: vec![1] }),
            (50, EventKind::TaskStart { proc: 2, task: 4, degree: 1, team: vec![0] }),
            (80, EventKind::TaskEnd { proc: 2, task: 4, team: vec![0] }),
        ]);
        let cp = CriticalPath::from_log(&log);
        assert_eq!(cp, oracle::walk(&log));
        assert_eq!(cp.steps.iter().map(|s| s.task).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(cp.blame.t_spe_ns, 80);
        assert_eq!(cp.blame.total(), cp.makespan_ns);
    }

    #[test]
    fn empty_log_yields_the_default_path() {
        let cp = CriticalPath::from_log(&log_with(vec![]));
        assert_eq!(cp, CriticalPath::default());
        assert_eq!(cp.blame.total(), 0);
    }

    /// Identity knobs replay a contention-free log exactly.
    #[test]
    fn identity_replay_reproduces_a_simple_log() {
        let log = log_with(vec![
            (100, EventKind::Offload { proc: 0, task: 0 }),
            (100, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (300, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
            (350, EventKind::Offload { proc: 0, task: 1 }),
            (350, EventKind::TaskStart { proc: 0, task: 1, degree: 1, team: vec![0] }),
            (600, EventKind::TaskEnd { proc: 0, task: 1, team: vec![0] }),
        ]);
        let out = what_if(&log, WhatIf::default());
        assert_eq!(out.baseline_makespan_ns, 600);
        assert_eq!(out.predicted_makespan_ns, 600);
        assert!((out.speedup - 1.0).abs() < 1e-12);
    }

    /// Two single-SPE-queued processes stop contending once an SPE is
    /// added: the replay overlaps them.
    #[test]
    fn extra_spe_relieves_queueing() {
        let mut log = log_with(vec![
            (0, EventKind::Offload { proc: 0, task: 0 }),
            (0, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (0, EventKind::Offload { proc: 1, task: 1 }),
            (400, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
            (400, EventKind::TaskStart { proc: 1, task: 1, degree: 1, team: vec![0] }),
            (800, EventKind::TaskEnd { proc: 1, task: 1, team: vec![0] }),
        ]);
        log.n_spes = 1;
        let base = what_if(&log, WhatIf::default());
        assert_eq!(base.predicted_makespan_ns, 800);
        let plus_one = what_if(&log, WhatIf { extra_spes: 1, ..WhatIf::default() });
        assert_eq!(plus_one.predicted_makespan_ns, 400);
        assert!((plus_one.speedup - 2.0).abs() < 1e-12);
    }

    /// Forcing degree 2 halves the compute term and occupies both SPEs.
    #[test]
    fn degree_override_scales_compute() {
        let log = log_with(vec![
            (0, EventKind::Offload { proc: 0, task: 0 }),
            (0, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (400, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
        ]);
        let out = what_if(&log, WhatIf { degree_override: Some(2), ..WhatIf::default() });
        assert_eq!(out.predicted_makespan_ns, 200);
    }

    /// Halving DMA latency shortens only the comm term.
    #[test]
    fn dma_scale_shrinks_the_comm_term() {
        let log = log_with(vec![
            (0, EventKind::Offload { proc: 0, task: 0 }),
            (0, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (0, EventKind::DmaComplete { spe: 0, bytes: 2048, latency_ns: 100 }),
            (400, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
        ]);
        let out = what_if(&log, WhatIf { dma_scale: 0.5, ..WhatIf::default() });
        assert_eq!(out.predicted_makespan_ns, 350);
    }
}
