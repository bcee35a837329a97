//! Golden-file properties of the Chrome trace exporter: a seeded run must
//! produce a valid, byte-deterministic trace whose per-SPE busy totals
//! match the invariant checker's independent accounting.

use cellsim::machine::{run, SimConfig};
use mgps_obs::{chrome_trace, ObsSummary, Timeline};
use mgps_runtime::policy::SchedulerKind;
use minijson::Value;

fn recorded_log(scheduler: SchedulerKind, seed: u64) -> mgps_runtime::event::RunLog {
    let mut cfg = SimConfig::cell_42sc(scheduler, 6, 400);
    cfg.seed = seed;
    cfg.record_events = true;
    run(cfg).run_log.expect("record_events was set")
}

/// Sum `dur` per SPE thread (tid < n_spes) from a parsed trace document.
fn busy_from_trace(json: &str, n_spes: usize) -> Vec<u64> {
    let v = minijson::parse(json).expect("trace must be valid JSON");
    let mut busy = vec![0u64; n_spes];
    for e in v.get("traceEvents").and_then(Value::as_array).expect("traceEvents array") {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let tid = e.get("tid").and_then(Value::as_u64).expect("tid") as usize;
        if tid < n_spes {
            busy[tid] += e.get("dur").and_then(Value::as_u64).expect("dur");
        }
    }
    busy
}

#[test]
fn seeded_trace_is_byte_deterministic() {
    for scheduler in [SchedulerKind::Edtlp, SchedulerKind::Mgps] {
        let a = chrome_trace(&recorded_log(scheduler, 0xdead));
        let b = chrome_trace(&recorded_log(scheduler, 0xdead));
        assert_eq!(a, b, "{scheduler:?}: same seed must yield identical bytes");
        assert!(!a.is_empty());
    }
}

#[test]
fn trace_busy_totals_match_the_checker() {
    let log = recorded_log(SchedulerKind::Mgps, 42);
    let report = mgps_analysis::check_run(&log);
    assert!(report.is_clean(), "{}", report.render());

    let json = chrome_trace(&log);
    let from_trace = busy_from_trace(&json, log.n_spes);
    assert_eq!(
        from_trace, report.spe_busy_ns,
        "per-SPE busy sums from the trace must match the checker's accounting"
    );
    // The accounting must be non-trivial — a run with work keeps SPEs busy.
    assert!(from_trace.iter().sum::<u64>() > 0);

    // All three folds agree: trace, timeline, summary.
    let tl = Timeline::from_log(&log);
    assert_eq!(tl.busy_ns(), report.spe_busy_ns);
    assert_eq!(ObsSummary::from_log(&log).busy_ns, report.spe_busy_ns);
}

#[test]
fn trace_parses_and_names_every_track() {
    let log = recorded_log(SchedulerKind::Mgps, 7);
    let v = minijson::parse(&chrome_trace(&log)).expect("valid JSON");
    assert_eq!(v.get("displayTimeUnit").and_then(Value::as_str), Some("ns"));
    let names: Vec<&str> = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
        .collect();
    for spe in 0..log.n_spes {
        let spe_name = format!("SPE {spe}");
        let dma_name = format!("DMA {spe}");
        assert!(names.contains(&spe_name.as_str()), "missing {spe_name}");
        assert!(names.contains(&dma_name.as_str()), "missing {dma_name}");
    }
    assert!(names.contains(&"MGPS"));
}
