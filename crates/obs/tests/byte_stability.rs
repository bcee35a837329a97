//! Byte-stability regressions pinning the ordered-collection fixes in the
//! checker (`offloaded`/`tasks`/`task_faults`), the what-if replayer
//! (per-process chains), and the timeline fold (bench intervals).
//!
//! These folds used to accumulate into `HashMap`s, whose per-instance
//! hash seeds scramble iteration order between two invocations *inside
//! the same process* — so two analyses of the very same log could render
//! their findings in different orders. Every comparison below therefore
//! re-runs the fold from scratch and demands identical bytes.

use cellsim::machine::{run, SimConfig};
use mgps_analysis::check_run;
use mgps_obs::{what_if, CriticalPath, Timeline, WhatIf};
use mgps_runtime::event::RunLog;
use mgps_runtime::faults::FaultPlan;
use mgps_runtime::policy::SchedulerKind;

/// A seeded MGPS run with a hostile fault plan: permanent-breakage grants
/// with retries disabled bench SPEs (quarantine intervals) and strand
/// off-loaded work (pending-task findings once the tail is cut).
fn faulty_log() -> RunLog {
    let mut cfg = SimConfig::cell_42sc(SchedulerKind::Mgps, 6, 400);
    cfg.seed = 0xb17e;
    cfg.record_events = true;
    cfg.faults = FaultPlan::parse("seed=2,broken=6,k=1,retries=0,readmit=1000000")
        .expect("fault spec parses");
    run(cfg).run_log.expect("record_events was set")
}

/// Drop the tail of `log` so several off-loaded tasks resolve nowhere;
/// the armed fault policy keeps the checker in its lenient mode, where
/// those stranded tasks surface as ordered `fault-recovery` findings.
fn truncated(mut log: RunLog) -> RunLog {
    let keep = log.events.len() / 2;
    log.events.truncate(keep);
    log
}

#[test]
fn checker_report_over_a_stranded_log_is_byte_stable() {
    let log = truncated(faulty_log());
    let first = check_run(&log).render();
    assert!(
        first.contains("lost"),
        "fixture must strand at least one off-loaded task:\n{first}"
    );
    for round in 1..4 {
        let again = check_run(&log).render();
        assert_eq!(first, again, "checker render diverged on round {round}");
    }
    // Within each rule section the findings must come out in ascending
    // task order — the observable guarantee the BTreeMap conversion
    // bought. ("lost" findings span two sections: tasks that faulted and
    // never completed, and tasks that were off-loaded and resolved
    // nowhere; each iterates its own ordered map.)
    let mut observed = 0;
    for needle in ["never completed anywhere", "off-loaded but never started"] {
        let ids: Vec<u64> = first
            .lines()
            .filter(|l| l.contains(needle))
            .filter_map(|l| l.split("task ").nth(1))
            .filter_map(|rest| rest.split_whitespace().next())
            .filter_map(|id| id.parse().ok())
            .collect();
        observed += ids.len();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "'{needle}' findings must be in task order");
    }
    assert!(observed >= 2, "need two stranded tasks to observe order:\n{first}");
}

#[test]
fn what_if_replay_is_byte_stable() {
    let log = faulty_log();
    let knobs = WhatIf { extra_spes: 1, dma_scale: 0.5, degree_override: None };
    let first = what_if(&log, knobs);
    for _ in 0..3 {
        assert_eq!(what_if(&log, knobs), first, "what-if replay diverged");
    }
    // The critical-path fold feeds the same chains; pin it too.
    let cp = CriticalPath::from_log(&log);
    assert_eq!(CriticalPath::from_log(&log), cp, "critical path diverged");
}

#[test]
fn timeline_quarantine_intervals_are_byte_stable_and_ordered() {
    let log = faulty_log();
    let first = Timeline::from_log(&log);
    assert!(
        !first.quarantines.is_empty(),
        "broken-SPE fixture must bench at least one SPE"
    );
    for _ in 0..3 {
        assert_eq!(Timeline::from_log(&log), first, "timeline fold diverged");
    }
    // SPEs still benched at end-of-log flush in ascending SPE order.
    let tail: Vec<_> =
        first.quarantines.iter().filter(|q| q.end_ns == first.makespan_ns).collect();
    let mut spes: Vec<usize> = tail.iter().map(|q| q.spe).collect();
    let sorted = {
        let mut s = spes.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(spes, sorted, "end-of-log bench flush must be in SPE order");
    spes.dedup();
    assert_eq!(spes.len(), tail.len(), "one flush interval per benched SPE");
}
