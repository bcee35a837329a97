//! The `atlas-sweep` workload: the `default` granularity-atlas grid, every
//! cell checker-verified and blamed along its critical path.
//!
//! Untraced, each timed repetition is one full sweep run as 60
//! single-cell shards of `experiments::atlas::sweep` (shards reproduce
//! the full sweep exactly), so every cell is timed on its own. Before
//! each checked cell the same configuration runs once through bare
//! `cellsim::machine::run` — the reference path — and the sweep's atlas
//! JSON and the bare makespans must repeat byte for byte across sweeps.
//!
//! Traced, the cell pipeline is re-assembled from the layers' public
//! calls (simulate, check, critical path) with a span around each.

use multigrain::cellsim::machine::{run as simulate, SimConfig};
use multigrain::des::time::SimDuration;
use multigrain::experiments::atlas::{cell_seed, scheduler_of_slug, sweep, SweepConfig};
use multigrain::mgps_analysis::check_run;
use multigrain::mgps_obs::atlas::{Atlas, GridSpec};
use multigrain::mgps_obs::CriticalPath;

use crate::stats::{median, peak_rss_mb, quantile, sum};
use crate::{derive_seed, spans, timed, Args, Budget, Outcome, SETUP_REPS};

/// Workload scale of the benchmark sweep: heavier than the CLI default
/// of 4000, so each cell's log holds tens of thousands of events and the
/// critical-path fold dominates a cell's cost, as it does at real scales.
const SCALE: usize = 200;
/// Scale of the probe run from workloads that do not sweep.
const PROBE_SCALE: usize = 800;
/// Bootstraps per cell (the CLI default).
const BOOTSTRAPS: usize = 2;

fn sweep_config(seed: u64, scale: usize) -> SweepConfig {
    let grid = GridSpec::preset("default").expect("the default grid preset exists");
    SweepConfig {
        seed: derive_seed(seed, "atlas"),
        scale,
        n_bootstraps: BOOTSTRAPS,
        ..SweepConfig::new(grid)
    }
}

/// The simulator configuration of cell `index`, built exactly as the
/// sweep builds it.
fn cell_configs(cfg: &SweepConfig) -> Vec<SimConfig> {
    let g = &cfg.grid;
    let mut cells = Vec::with_capacity(g.cells());
    for &task_mean_ns in &g.task_mean_ns {
        for &ppe_gap_ns in &g.ppe_gap_ns {
            for &loop_iters in &g.loop_iters {
                for slug in &g.schedulers {
                    let scheduler = scheduler_of_slug(slug).expect("preset slugs resolve");
                    let mut sim = SimConfig::cell_42sc(scheduler, cfg.n_bootstraps, cfg.scale);
                    sim.seed = cell_seed(cfg.seed, cells.len());
                    sim.faults = cfg.faults;
                    sim.granularity_verdicts = true;
                    sim.workload.task_mean = SimDuration::from_nanos(task_mean_ns);
                    sim.workload.ppe_gap = SimDuration::from_nanos(ppe_gap_ns);
                    sim.workload.loop_iters = loop_iters;
                    cells.push(sim);
                }
            }
        }
    }
    cells
}

/// Set-up: grid and cell configurations, plus one checked cell as a
/// warm-up; the median of [`SETUP_REPS`].
fn setup(seed: u64, scale: usize) -> (SweepConfig, Vec<SimConfig>, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (built, t) = timed(|| {
            let cfg = sweep_config(seed, scale);
            let cells = cell_configs(&cfg);
            let n = cells.len();
            std::hint::black_box(sweep(&SweepConfig {
                shard: Some((0, n)),
                ..cfg.clone()
            }));
            (cfg, cells)
        });
        times.push(t);
        last = Some(built);
    }
    let (cfg, cells) = last.expect("set-up ran");
    (cfg, cells, median(&times))
}

pub fn run(args: &Args) -> Outcome {
    let (cfg, cells, setup_s) = setup(args.seed, SCALE);
    if args.trace {
        let (mut out, overhead) = traced(&cells, args.seconds, 2);
        out.metric("bench.trace_overhead_frac", "ratio", overhead);
        out.extra("setup_s", "s", setup_s);
        return out;
    }
    let mut out = Outcome::default();
    let n = cells.len();
    let (mut sweep_s, mut ratios, mut cell_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(String, Vec<u64>)> = None;
    let mut budget = Budget::new(args.seconds, 2);
    while budget.another() {
        let (mut checked, mut bare, mut makespans, mut records) = (vec![], vec![], vec![], vec![]);
        for (index, sim) in cells.iter().enumerate() {
            let (report, tb) = timed(|| simulate(*sim));
            let (shard, tc) = timed(|| {
                sweep(&SweepConfig {
                    shard: Some((index, n)),
                    ..cfg.clone()
                })
            });
            bare.push(tb);
            checked.push(tc);
            cell_ms.push(tc * 1e3);
            makespans.push(report.makespan.as_nanos());
            records.extend(shard.cells);
        }
        for c in &records {
            out.check(if c.violations == 0 && c.metrics.is_some() {
                Ok(())
            } else {
                Err(format!(
                    "cell {} ({}) refused: {} violation(s)",
                    c.seed, c.scheduler, c.violations
                ))
            });
        }
        let atlas = Atlas {
            grid: cfg.grid.clone(),
            seed: cfg.seed,
            scale: cfg.scale,
            n_bootstraps: cfg.n_bootstraps,
            shard: None,
            cells: records,
        };
        let json = atlas.to_json();
        match &first {
            None => first = Some((json, makespans)),
            Some((json0, makespans0)) => {
                out.check(if *json0 == json {
                    Ok(())
                } else {
                    Err("atlas JSON differs between sweeps".into())
                });
                out.check(if *makespans0 == makespans {
                    Ok(())
                } else {
                    Err("bare simulated makespans differ between sweeps".into())
                });
            }
        }
        sweep_s.push(sum(&checked));
        ratios.push(sum(&bare) / sum(&checked));
    }
    out.metric("setup_s", "s", setup_s);
    out.metric("peak_rss_mb", "MB", peak_rss_mb(None).unwrap_or(f64::NAN));
    out.metric("throughput_per_s", "1/s", n as f64 / median(&sweep_s));
    out.extra("reference_ratio", "x", median(&ratios));
    // Cell costs cluster by grid point with a gap at the median, so the
    // median cell jumps between clusters from run to run; the mean cell
    // time (per sweep, median over sweeps) does not.
    out.metric("latency_p50_ms", "ms", median(&sweep_s) / n as f64 * 1e3);
    out.extra("atlas.cell_p50_ms", "ms", median(&cell_ms));
    out.extra("atlas.cell_p99_ms", "ms", quantile(&cell_ms, 0.99));
    out.extra("sweeps", "count", sweep_s.len() as f64);
    out.extra("atlas.cells_per_s", "1/s", n as f64 / median(&sweep_s));
    out
}

/// Probe the simulator-side layers: the grid's first point (all five
/// schedulers) at a light scale.
pub fn probe(args: &Args, out: &mut Outcome) {
    let cfg = sweep_config(args.seed, PROBE_SCALE);
    let cells = cell_configs(&cfg);
    let (mut p, _) = traced(&cells[..cfg.grid.schedulers.len()], 0.0, 1);
    out.absorb_checks(&mut p);
    out.metrics.append(&mut p.metrics);
}

/// Per-layer seconds of one pass over the cells.
#[derive(Default)]
struct Pass {
    bare: f64,
    recorded: f64,
    check: f64,
    critpath: f64,
    tasks: u64,
    events: u64,
}

/// Traced cell pipeline; passes alternate spans off and on. Returns the
/// layer metrics and the spans-on over spans-off wall-time overhead.
fn traced(cells: &[SimConfig], seconds: f64, min_passes: u32) -> (Outcome, f64) {
    let mut out = Outcome::default();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut totals = Pass::default();
    let mut budget = Budget::new(seconds, min_passes);
    let mut pass = 0;
    while budget.another() {
        let spanned = pass % 2 == 1 || min_passes == 1;
        spans::set_enabled(spanned);
        let mut p = Pass::default();
        for sim in cells {
            let (bare, tb) = timed(|| spans::span("sim", "run", || simulate(*sim)));
            let recorded_cfg = SimConfig {
                record_events: true,
                ..*sim
            };
            let (recorded, tr) =
                timed(|| spans::span("sim", "run_recorded", || simulate(recorded_cfg)));
            let log = recorded.run_log.as_ref().expect("record_events was set");
            let (check, tc) = timed(|| spans::span("checker", "check_run", || check_run(log)));
            let (cp, tp) =
                timed(|| spans::span("critpath", "from_log", || CriticalPath::from_log(log)));
            out.check(if check.violations.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "seed {:#x}: {} checker violation(s)",
                    sim.seed,
                    check.violations.len()
                ))
            });
            out.check(
                if cp.blame.total() == cp.makespan_ns && recorded.makespan == bare.makespan {
                    Ok(())
                } else {
                    Err(format!("seed {:#x}: blame or makespan mismatch", sim.seed))
                },
            );
            p.bare += tb;
            p.recorded += tr;
            p.check += tc;
            p.critpath += tp;
            p.tasks += bare.tasks_completed;
            p.events += log.events.len() as u64;
        }
        spans::set_enabled(false);
        let wall = p.bare + p.recorded + p.check + p.critpath;
        if spanned {
            on.push(wall)
        } else {
            off.push(wall)
        }
        totals = Pass {
            bare: totals.bare + p.bare,
            recorded: totals.recorded + p.recorded,
            check: totals.check + p.check,
            critpath: totals.critpath + p.critpath,
            tasks: totals.tasks + p.tasks,
            events: totals.events + p.events,
        };
        pass += 1;
    }
    let t = &totals;
    out.metric("sim.tasks_per_s", "1/s", t.tasks as f64 / t.bare);
    out.metric("sim.events_per_s", "1/s", t.events as f64 / t.recorded);
    out.metric(
        "sim.record_overhead_frac",
        "ratio",
        t.recorded / t.bare - 1.0,
    );
    out.metric("checker.events_per_s", "1/s", t.events as f64 / t.check);
    out.metric("critpath.events_per_s", "1/s", t.events as f64 / t.critpath);
    out.metric(
        "critpath.share",
        "ratio",
        t.critpath / (t.recorded + t.check + t.critpath),
    );
    out.extra(
        "sim.events_per_cell",
        "count",
        t.events as f64 / (pass * cells.len()) as f64,
    );
    let overhead = if off.is_empty() {
        f64::NAN
    } else {
        median(&on) / median(&off) - 1.0
    };
    (out, overhead)
}
