//! `baseline` — write a coarse benchmark baseline as JSON.
//!
//! The Criterion benches in `benches/` guard individual regressions; this
//! binary records one *trajectory point*: wall-clock cost of the core
//! simulation scenarios plus their deterministic outputs (simulated
//! makespan, task count), so successive baselines are comparable even
//! across machines — the deterministic columns must never drift, the
//! wall-clock columns show the perf trend.
//!
//! ```text
//! cargo run --release -p bench --bin baseline [-- OUT.json]
//! ```
//!
//! Defaults to `BENCH_0.json` at the workspace root; pick the next free
//! `BENCH_<n>.json` name when recording a new point.
//!
//! Besides the `simulate/*` scenarios, `critpath/atlas-cell` times the
//! critical-path fold alone on one seeded `default`-grid atlas cell at
//! scale 200, with the path's makespan, step count and five blame terms
//! as its deterministic anchors.

use std::time::Instant;

use bench::{sim, BENCH_SCALE};
use cellsim::machine::{run, SimConfig};
use des::time::SimDuration;
use experiments::atlas::{cell_seed, scheduler_of_slug, SweepConfig};
use mgps_obs::{CriticalPath, GridSpec};
use mgps_runtime::policy::SchedulerKind;
use minijson::Value;

const BOOTSTRAPS: usize = 8;
const ITERS: u32 = 5;

fn scenario(label: &str, scheduler: SchedulerKind) -> Value {
    // Warm-up run, not timed.
    let report = sim(scheduler, BOOTSTRAPS);
    let started = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(sim(scheduler, BOOTSTRAPS));
    }
    let mean_ns = (started.elapsed().as_nanos() / u128::from(ITERS)) as u64;
    Value::object(vec![
        ("name", label.into()),
        ("iters", u64::from(ITERS).into()),
        ("mean_wall_ns", mean_ns.into()),
        // Deterministic anchors: identical across machines for one seed.
        ("sim_makespan_secs", report.paper_scale_secs.into()),
        ("tasks_completed", report.tasks_completed.into()),
        ("context_switches", report.context_switches.into()),
    ])
}

/// The `default`-grid cell the fold is timed on, as (task, gap, loop,
/// scheduler) axis indices: 6 µs tasks, 11 µs PPE gaps, 228-iteration
/// loops under MGPS.
const ATLAS_CELL: (usize, usize, usize, usize) = (0, 0, 1, 4);
/// The atlas workload scale of the cell (as in the repository benchmark).
const ATLAS_SCALE: usize = 200;

fn critpath_cell() -> Value {
    let grid = GridSpec::preset("default").expect("the default grid preset exists");
    let (ti, gi, li, si) = ATLAS_CELL;
    let scheduler = scheduler_of_slug(&grid.schedulers[si]).expect("preset slugs resolve");
    let sweep = SweepConfig { scale: ATLAS_SCALE, ..SweepConfig::new(grid.clone()) };
    let mut cfg = SimConfig::cell_42sc(scheduler, sweep.n_bootstraps, sweep.scale);
    cfg.seed = cell_seed(sweep.seed, grid.cell_index(ti, gi, li, si));
    cfg.granularity_verdicts = true;
    cfg.record_events = true;
    cfg.workload.task_mean = SimDuration::from_nanos(grid.task_mean_ns[ti]);
    cfg.workload.ppe_gap = SimDuration::from_nanos(grid.ppe_gap_ns[gi]);
    cfg.workload.loop_iters = grid.loop_iters[li];
    let log = run(cfg).run_log.expect("record_events was set");

    // Warm-up fold, not timed.
    let cp = CriticalPath::from_log(&log);
    let started = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(CriticalPath::from_log(&log));
    }
    let mean_ns = (started.elapsed().as_nanos() / u128::from(ITERS)) as u64;
    let b = cp.blame;
    Value::object(vec![
        ("name", "critpath/atlas-cell".into()),
        ("iters", u64::from(ITERS).into()),
        ("mean_wall_ns", mean_ns.into()),
        ("scale", ATLAS_SCALE.into()),
        ("events", log.events.len().into()),
        // Deterministic anchors: the path and its blame partition.
        ("makespan_ns", cp.makespan_ns.into()),
        ("steps", cp.steps.len().into()),
        ("t_ppe_ns", b.t_ppe_ns.into()),
        ("t_wait_ns", b.t_wait_ns.into()),
        ("t_spe_ns", b.t_spe_ns.into()),
        ("t_code_ns", b.t_code_ns.into()),
        ("t_comm_ns", b.t_comm_ns.into()),
    ])
}

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench sits two levels below the workspace root")
            .join("BENCH_0.json")
            .to_string_lossy()
            .into_owned()
    });

    let scenarios = [
        ("simulate/edtlp", SchedulerKind::Edtlp),
        ("simulate/linux", SchedulerKind::LinuxLike),
        ("simulate/llp4", SchedulerKind::StaticHybrid { spes_per_loop: 4 }),
        ("simulate/mgps", SchedulerKind::Mgps),
    ];
    let mut entries: Vec<Value> = scenarios
        .iter()
        .map(|&(label, scheduler)| {
            eprintln!("timing {label} ({ITERS} iters at scale {BENCH_SCALE})...");
            scenario(label, scheduler)
        })
        .collect();
    eprintln!("timing critpath/atlas-cell ({ITERS} iters at scale {ATLAS_SCALE})...");
    entries.push(critpath_cell());

    let doc = Value::object(vec![
        ("schema", "multigrain-bench-baseline/1".into()),
        ("scale", BENCH_SCALE.into()),
        ("bootstraps", BOOTSTRAPS.into()),
        ("entries", Value::Array(entries)),
    ]);
    std::fs::write(&out, doc.to_json_pretty()).expect("write baseline");
    println!("baseline written to {out}");
}
