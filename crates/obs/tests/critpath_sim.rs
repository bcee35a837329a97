//! Simulator-validated properties of the critical-path engine.
//!
//! Four claims are checked against real seeded runs rather than
//! hand-built logs: the blame partition is exact (and pinned, golden-style,
//! for one run), the indexed walk agrees with the quadratic test oracle,
//! the identity what-if replay reproduces the recorded makespan, and the
//! "+1 SPE" prediction agrees with *actually re-running the simulator* on
//! a 9-SPE machine.

use cellsim::machine::{run, SimConfig};
use mgps_obs::{what_if, CriticalPath, Phase, WhatIf};
use mgps_runtime::event::RunLog;
use mgps_runtime::faults::FaultPlan;
use mgps_runtime::policy::SchedulerKind;

/// The walk's source compiled into this test crate, for its
/// `#[cfg(test)]` oracle (the library itself is linked without it).
#[allow(dead_code)]
#[path = "../src/critpath.rs"]
mod walk_src;

fn recorded(mut cfg: SimConfig) -> RunLog {
    cfg.record_events = true;
    run(cfg).run_log.expect("record_events was set")
}

/// The run the golden blame is pinned against: EDTLP, 12 bootstraps on 8
/// SPEs, the paper workload at 1/400 scale. Twelve processes time-share
/// two SMT PPE contexts, so the run is PPE-bound — the configuration the
/// paper's EDTLP analysis is about.
fn golden_cfg() -> SimConfig {
    let mut cfg = SimConfig::cell_42sc(SchedulerKind::Edtlp, 12, 400);
    cfg.seed = 0x0b5e;
    cfg
}

#[test]
fn golden_blame_is_pinned() {
    let cp = CriticalPath::from_log(&recorded(golden_cfg()));
    assert_eq!(cp.makespan_ns, 165_975_577);
    assert_eq!(cp.steps.len(), 664);
    // The blame partition: PPE computation bounds the run (12 processes
    // on 2 SMT contexts), SPEs never queue (grants are immediate), the
    // code image stays resident after warm-up, and DMA is a rounding
    // error. This is the paper's "PPE is the bottleneck" configuration,
    // read off the critical path.
    assert_eq!(cp.blame.t_ppe_ns, 102_400_269);
    assert_eq!(cp.blame.t_wait_ns, 0);
    assert_eq!(cp.blame.t_spe_ns, 63_054_068);
    assert_eq!(cp.blame.t_code_ns, 0);
    assert_eq!(cp.blame.t_comm_ns, 521_240);
    assert_eq!(cp.dominant(), Phase::Ppe);
    assert_eq!(cp.blame.total(), cp.makespan_ns, "blame partitions the makespan exactly");
}

#[test]
fn blame_partitions_the_makespan_for_every_scheduler() {
    for kind in [
        SchedulerKind::Edtlp,
        SchedulerKind::Mgps,
        SchedulerKind::StaticHybrid { spes_per_loop: 4 },
    ] {
        let mut cfg = SimConfig::cell_42sc(kind, 8, 400);
        cfg.seed = 0xfeed;
        let cp = CriticalPath::from_log(&recorded(cfg));
        assert!(cp.makespan_ns > 0, "{kind:?}: run must do work");
        assert_eq!(
            cp.blame.total(),
            cp.makespan_ns,
            "{kind:?}: the walk must cover [0, makespan] exactly"
        );
        assert!(!cp.steps.is_empty());
        // Steps are in execution order and non-overlapping in time.
        for w in cp.steps.windows(2) {
            assert!(w[0].end_ns <= w[1].start_ns.max(w[1].end_ns));
            assert!(w[0].start_ns <= w[0].end_ns);
        }
    }
}

#[test]
fn identity_replay_reproduces_the_recorded_makespan() {
    for cfg in [golden_cfg(), {
        let mut c =
            SimConfig::cell_42sc(SchedulerKind::StaticHybrid { spes_per_loop: 4 }, 8, 400);
        c.seed = 0x0b5e;
        c
    }] {
        let log = recorded(cfg);
        let out = what_if(&log, WhatIf::default());
        // With no knobs turned, the list-scheduler replay walks the
        // recorded chains through the recorded contention and lands on
        // the recorded makespan to the nanosecond. This is the sanity
        // check that licenses trusting the replay off the recorded point.
        assert_eq!(out.predicted_makespan_ns, out.baseline_makespan_ns);
        assert!((out.speedup - 1.0).abs() < 1e-12);
    }
}

#[test]
fn plus_one_spe_prediction_matches_a_real_resimulation() {
    let log = recorded(golden_cfg());
    let predicted = what_if(&log, WhatIf { extra_spes: 1, ..WhatIf::default() });

    // Actually re-run the simulator on a 9-SPE machine.
    let mut cfg9 = golden_cfg();
    cfg9.params.spes_per_cell += 1;
    let actual = CriticalPath::from_log(&recorded(cfg9)).makespan_ns;

    let err = (predicted.predicted_makespan_ns as f64 - actual as f64).abs() / actual as f64;
    assert!(
        err < 0.15,
        "+1 SPE replay predicted {} ns, re-simulation gave {} ns ({:.1}% off)",
        predicted.predicted_makespan_ns,
        actual,
        err * 100.0
    );
    // The run is PPE-bound, and the replay knows it: an extra SPE buys
    // nothing. The re-simulated makespan moves a little (team choice and
    // reload patterns shift), which is exactly the noise the tolerance
    // above absorbs.
    assert_eq!(predicted.predicted_makespan_ns, predicted.baseline_makespan_ns);
}

/// The library's indexed walk and the quadratic oracle must produce the
/// same path, step for step, with the same blame.
fn assert_matches_oracle(label: &str, log: &RunLog) {
    let fast = CriticalPath::from_log(log);
    let slow = walk_src::oracle::walk(log);
    assert!(!fast.steps.is_empty(), "{label}: the run must complete tasks");
    // The oracle returns the included copy of the type, so the two paths
    // are compared through their `Debug` form.
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{label}: indexed walk diverged");
}

#[test]
fn indexed_walk_matches_the_oracle_on_every_scheduler() {
    for kind in [
        SchedulerKind::Edtlp,
        SchedulerKind::LinuxLike,
        SchedulerKind::StaticHybrid { spes_per_loop: 2 },
        SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        SchedulerKind::Mgps,
    ] {
        let mut cfg = SimConfig::cell_42sc(kind, 4, 800);
        cfg.seed = 0xc0de;
        assert_matches_oracle(&format!("{kind:?}"), &recorded(cfg));
    }
}

/// The faulted fixture of `byte_stability.rs`: MGPS under a
/// permanent-breakage plan, in full and cut in half so some off-loaded
/// tasks never complete.
#[test]
fn indexed_walk_matches_the_oracle_on_a_faulted_log() {
    let mut cfg = SimConfig::cell_42sc(SchedulerKind::Mgps, 6, 400);
    cfg.seed = 0xb17e;
    cfg.faults = FaultPlan::parse("seed=2,broken=6,k=1,retries=0,readmit=1000000")
        .expect("fault spec parses");
    let mut log = recorded(cfg);
    assert_matches_oracle("faulted", &log);
    log.events.truncate(log.events.len() / 2);
    assert_matches_oracle("faulted, truncated", &log);
}
