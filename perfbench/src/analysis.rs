//! The bootstrap-analysis workloads: `ParallelAnalysis` against serial
//! `phylo` on the same replicates and seeds.
//!
//! Untraced, each timed repetition is one *pair*: the serial search of
//! every replicate (`phylo::search::hill_climb`) and one
//! `ParallelAnalysis::run_bootstraps` call, in alternating order so host
//! drift cancels in their ratio. Every replicate of every pair is checked
//! against its serial twin.
//!
//! Traced, the same analysis runs through a mirror of `run_bootstraps`
//! built on an observable runtime, with spans around each search and each
//! `ScoringEngine` call, next to kernel, adapter and runtime probes.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use multigrain::mgps_runtime::metrics::{Counter, HistKind, MetricsSink, NopMetrics};
use multigrain::mgps_runtime::native::{
    LoopBody, LoopSite, MgpsRuntime, RuntimeConfig, SpeContext,
};
use multigrain::mgps_runtime::policy::{KernelKind, SchedulerKind};
use multigrain::mgps_runtime::{AtomicMetrics, Tracer};
use multigrain::phylo::alignment::{Alignment, PatternAlignment};
use multigrain::phylo::bootstrap::bootstrap_replicate;
use multigrain::phylo::likelihood::LikelihoodEngine;
use multigrain::phylo::model::{Jc69, Matrix, SubstModel};
use multigrain::phylo::search::{
    hill_climb, hill_climb_with, ScoringEngine, SearchConfig, SearchResult,
};
use multigrain::phylo::tree::Tree;
use multigrain::{OffloadedEngine, ParallelAnalysis};

use crate::stats::{median, peak_rss_mb, quantile};
use crate::{derive_seed, spans, timed, Args, Budget, Outcome, SETUP_REPS};

/// One analysis workload's shape.
pub struct Shape {
    pub taxa: usize,
    pub sites: usize,
    /// Site patterns the alignment compresses to, within 2 %. Kernel call
    /// length, and so the share of per-call overhead, scales with it, and
    /// synthetic alignments of one size vary widely in it (10 × 200 sites
    /// gives 90–187 patterns), so every seed is held to this count.
    pub patterns: usize,
    pub bootstraps: usize,
    pub workers: usize,
    /// Random starts per bootstrap search (`SearchConfig::restarts`).
    pub restarts: usize,
}

impl Shape {
    fn search(&self) -> SearchConfig {
        SearchConfig {
            restarts: self.restarts,
            ..SearchConfig::default()
        }
    }

    fn analysis(&self) -> ParallelAnalysis {
        ParallelAnalysis {
            search: self.search(),
            ..ParallelAnalysis::cell(SchedulerKind::Mgps, self.workers)
        }
    }
}

/// EDTLP regime: short kernels, two worker processes on two cores, the
/// default three starts per search.
pub const NARROW: Shape = Shape {
    taxa: 10,
    sites: 200,
    patterns: 156,
    bootstraps: 8,
    workers: 2,
    restarts: 3,
};
/// LLP regime: long kernels, one worker process. One start per search:
/// kernel calls are unchanged, and a run medians over about three times
/// as many pairs, which its timings need on a noisy host.
pub const WIDE: Shape = Shape {
    taxa: 8,
    sites: 4000,
    patterns: 1386,
    bootstraps: 2,
    workers: 1,
    restarts: 1,
};
/// The narrow shape cut to one bootstrap per worker and one start, for
/// probing the native layers from workloads that do not run them.
const PROBE: Shape = Shape {
    bootstraps: 2,
    restarts: 1,
    ..NARROW
};

/// Largest |Δ lnL| between a replicate's runtime and serial searches that
/// still counts as a match (the tolerance the adapter tests use).
const LNL_TOLERANCE: f64 = 1e-6;

/// The seeded inputs of one analysis run.
struct Inputs {
    data: Arc<PatternAlignment>,
    boot_seed: u64,
}

fn synthesize(shape: &Shape, alignment_seed: u64) -> PatternAlignment {
    let aln = Alignment::synthetic(shape.taxa, shape.sites, &Jc69, 0.1, alignment_seed);
    PatternAlignment::compress(&aln)
}

/// The alignment seed: the first in the workload seed's stream whose
/// alignment compresses to within 2 % of the shape's pattern count (the
/// closest of 10 000 if none does). Choosing it is input generation, not
/// set-up: how many draws it takes varies from seed to seed.
fn alignment_seed(shape: &Shape, seed: u64) -> u64 {
    let base = derive_seed(seed, "alignment");
    let off_by = |s: u64| synthesize(shape, s).n_patterns().abs_diff(shape.patterns);
    let mut best = (usize::MAX, base);
    for s in (0..10_000).map(|attempt| base.wrapping_add(attempt)) {
        let off = off_by(s);
        if off < best.0 {
            best = (off, s);
        }
        if best.0 * 50 <= shape.patterns {
            break;
        }
    }
    best.1
}

/// The seeded inputs: the alignment, synthesized and compressed, and the
/// bootstrap seed.
fn inputs(shape: &Shape, seed: u64, alignment_seed: u64) -> Inputs {
    Inputs {
        data: Arc::new(synthesize(shape, alignment_seed)),
        boot_seed: derive_seed(seed, "bootstrap"),
    }
}

/// The search seed `ParallelAnalysis::run_bootstraps` gives replicate `b`.
fn search_seed(boot_seed: u64, b: usize) -> u64 {
    boot_seed ^ (b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The serial reference for replicate `b`: the same replicate and search
/// seed `run_bootstraps` uses, searched directly by `phylo`.
fn serial_search(
    engine_of: impl FnOnce(&PatternAlignment) -> SearchResult,
    data: &PatternAlignment,
    boot_seed: u64,
    b: usize,
) -> SearchResult {
    let replicate = bootstrap_replicate(data, boot_seed.wrapping_add(b as u64));
    engine_of(&replicate)
}

/// Jc69 that counts its transition-matrix builds. Every likelihood
/// kernel call builds its matrices once and applies them to every site
/// pattern, so builds × patterns ("pattern-updates") measures the kernel
/// work of a search independently of how long it took.
#[derive(Default)]
struct Counted {
    builds: AtomicU64,
}

impl SubstModel for Counted {
    fn prob_matrix(&self, t: f64) -> Matrix {
        self.builds.fetch_add(1, Ordering::Relaxed);
        Jc69.prob_matrix(t)
    }
    fn d1_matrix(&self, t: f64) -> Matrix {
        Jc69.d1_matrix(t)
    }
    fn d2_matrix(&self, t: f64) -> Matrix {
        Jc69.d2_matrix(t)
    }
    fn base_freqs(&self) -> [f64; 4] {
        Jc69.base_freqs()
    }
}

/// The serial reference of one pair.
struct Serial {
    results: Vec<SearchResult>,
    /// Pattern-updates the searches did (see [`Counted`]).
    updates: f64,
    /// Seconds per replicate.
    times: Vec<f64>,
}

impl Serial {
    /// The reference time for `workers` worker processes: the serial time
    /// of the slowest worker's share under `run_bootstraps`' static
    /// round-robin assignment — what the runtime would take with no
    /// overhead of its own. Load imbalance between the workers' shares
    /// (which varies with the seed) then cancels in the ratio to it.
    fn reference_s(&self, workers: usize) -> f64 {
        (0..workers)
            .map(|w| self.times.iter().skip(w).step_by(workers).sum::<f64>())
            .fold(0.0, f64::max)
    }
}

/// Serial searches of replicates `0..n`.
fn serial_all(inp: &Inputs, n: usize, cfg: &SearchConfig) -> Serial {
    let model = Counted::default();
    let (results, times) = (0..n)
        .map(|b| {
            timed(|| {
                serial_search(
                    |rep| hill_climb(&model, rep, cfg, search_seed(inp.boot_seed, b)),
                    &inp.data,
                    inp.boot_seed,
                    b,
                )
            })
        })
        .unzip();
    let updates = model.builds.load(Ordering::Relaxed) as f64 * inp.data.n_patterns() as f64;
    Serial {
        results,
        updates,
        times,
    }
}

fn compare(b: usize, got: &SearchResult, want: &SearchResult) -> Result<(), String> {
    let d = (got.lnl - want.lnl).abs();
    if d.is_nan() || d > LNL_TOLERANCE {
        return Err(format!(
            "replicate {b}: runtime lnL {} vs serial {} (|Δ| {d:e})",
            got.lnl, want.lnl
        ));
    }
    if got.tree.bipartitions() != want.tree.bipartitions() {
        return Err(format!(
            "replicate {b}: runtime and serial trees differ in topology"
        ));
    }
    Ok(())
}

/// The default search cut to one round of one start, for warm-ups.
fn warmup_search() -> SearchConfig {
    SearchConfig {
        max_rounds: 1,
        restarts: 1,
        ..SearchConfig::default()
    }
}

/// Set-up: inputs, runtime thread spawn and teardown, and a one-round
/// warm-up of both paths. Returns the inputs of the last repetition and
/// the median set-up time.
fn setup(shape: &Shape, seed: u64) -> (Inputs, f64) {
    let alignment_seed = alignment_seed(shape, seed);
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (inp, t) = timed(|| {
            let inp = inputs(shape, seed, alignment_seed);
            let pa = ParallelAnalysis::cell(SchedulerKind::Mgps, shape.workers);
            MgpsRuntime::new(pa.runtime).shutdown();
            let warm = ParallelAnalysis {
                search: warmup_search(),
                ..pa
            };
            std::hint::black_box(warm.run_bootstraps(
                Jc69,
                &inp.data,
                shape.workers,
                inp.boot_seed,
            ));
            std::hint::black_box(serial_all(&inp, 1, &warmup_search()).results);
            inp
        });
        times.push(t);
        last = Some(inp);
    }
    (last.expect("set-up ran"), median(&times))
}

pub fn run(shape: &Shape, args: &Args) -> Outcome {
    let (inp, setup_s) = setup(shape, args.seed);
    if args.trace {
        let (mut out, overhead) = traced(shape, &inp, args.seconds);
        out.metric("bench.trace_overhead_frac", "ratio", overhead);
        out.extra("setup_s", "s", setup_s);
        return out;
    }
    let mut out = Outcome::default();
    let pa = shape.analysis();
    let n = shape.bootstraps;
    let (mut t_serial, mut t_runtime) = (Vec::new(), Vec::new());
    let (mut ratios, mut speedups, mut ms_per_mupdate) = (Vec::new(), Vec::new(), Vec::new());
    let mut updates = None;
    // At least three pairs, so one pair caught in a runtime stall (see
    // README, F1) cannot move the median.
    let mut budget = Budget::new(args.seconds, 3);
    let mut pair = 0;
    while budget.another() {
        let serial_first = pair % 2 == 0;
        let mut serial = None;
        if serial_first {
            serial = Some(serial_all(&inp, n, &pa.search));
        }
        let ((results, _stats), tr) =
            timed(|| pa.run_bootstraps(Jc69, &inp.data, n, inp.boot_seed));
        if !serial_first {
            serial = Some(serial_all(&inp, n, &pa.search));
        }
        let serial = serial.expect("the serial half ran");
        for (b, (got, want)) in results.iter().zip(&serial.results).enumerate() {
            out.check(compare(b, got, want));
        }
        if let Some(first) = updates {
            out.check(if serial.updates == first {
                Ok(())
            } else {
                Err(format!(
                    "serial pattern-updates changed between pairs: {first} then {}",
                    serial.updates
                ))
            });
        }
        updates = Some(serial.updates);
        let ts: f64 = serial.times.iter().sum();
        t_serial.push(ts);
        t_runtime.push(tr);
        speedups.push(ts / tr);
        ratios.push(serial.reference_s(shape.workers) / tr);
        ms_per_mupdate.push(tr * 1e3 / (serial.updates / 1e6));
        pair += 1;
    }
    let updates = updates.expect("at least one pair ran");
    let per_s = |t: &[f64]| n as f64 / median(t);
    out.metric("setup_s", "s", setup_s);
    out.metric("peak_rss_mb", "MB", peak_rss_mb(None).unwrap_or(f64::NAN));
    out.metric("throughput_per_s", "1/s", updates / median(&t_runtime));
    out.extra("reference_ratio", "x", median(&ratios));
    out.metric("latency_p50_ms", "ms", median(&ms_per_mupdate));
    out.extra("pairs", "count", pair as f64);
    out.extra("patterns", "count", inp.data.n_patterns() as f64);
    out.extra("pattern_updates", "count", updates);
    out.extra("analysis.wall_ms", "ms", median(&t_runtime) * 1e3);
    out.extra(
        "analysis.ms_per_mupdate_p99",
        "ms",
        quantile(&ms_per_mupdate, 0.99),
    );
    out.extra("analysis.bootstraps_per_s", "1/s", per_s(&t_runtime));
    out.extra("serial.bootstraps_per_s", "1/s", per_s(&t_serial));
    out.extra("analysis.speedup_vs_serial", "x", median(&speedups));
    out
}

/// Probe the analysis layers with the small [`PROBE`] shape.
pub fn probe(args: &Args, out: &mut Outcome) {
    let inp = inputs(&PROBE, args.seed, alignment_seed(&PROBE, args.seed));
    let (mut p, _) = traced(&PROBE, &inp, 0.0);
    out.absorb_checks(&mut p);
    out.metrics.append(&mut p.metrics);
}

/// A `ScoringEngine` that records a `layer.scoring` span around every call.
struct Spanned<'e, E> {
    inner: &'e mut E,
    layer: &'static str,
}

impl<E: ScoringEngine> ScoringEngine for Spanned<'_, E> {
    fn score(&mut self, tree: &Tree) -> f64 {
        spans::span(self.layer, "scoring", || self.inner.score(tree))
    }

    fn optimize_branches(&mut self, tree: &mut Tree, max_passes: usize, epsilon: f64) -> f64 {
        spans::span(self.layer, "scoring", || {
            self.inner.optimize_branches(tree, max_passes, epsilon)
        })
    }
}

/// What one mirrored analysis observed besides its results.
#[derive(Default)]
struct AdapterCounts {
    offloads: u64,
    arena_hits: u64,
    arena_misses: u64,
}

/// `ParallelAnalysis::run_bootstraps` re-assembled from its public
/// parts on a caller-built runtime, with spans around every search and
/// scoring call.
fn mirror_bootstraps(
    rt: &MgpsRuntime,
    workers: usize,
    search: &SearchConfig,
    inp: &Inputs,
    n: usize,
) -> (Vec<SearchResult>, AdapterCounts) {
    let mut results: Vec<Option<SearchResult>> = (0..n).map(|_| None).collect();
    let mut counts = AdapterCounts::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut ctx = rt.enter_process();
                    let mut out = Vec::new();
                    let mut counts = AdapterCounts::default();
                    for b in (w..n).step_by(workers) {
                        let replicate = Arc::new(bootstrap_replicate(
                            &inp.data,
                            inp.boot_seed.wrapping_add(b as u64),
                        ));
                        let mut engine = OffloadedEngine::new(&mut ctx, Jc69, replicate);
                        let r = spans::span("phylo", "search_offloaded", || {
                            let mut spanned = Spanned {
                                inner: &mut engine,
                                layer: "adapters",
                            };
                            hill_climb_with(
                                &mut spanned,
                                inp.data.n_taxa(),
                                search,
                                search_seed(inp.boot_seed, b),
                            )
                        });
                        counts.offloads += engine.offloads();
                        let (hits, misses) = engine.arena_stats();
                        counts.arena_hits += hits;
                        counts.arena_misses += misses;
                        out.push((b, r));
                    }
                    (out, counts)
                })
            })
            .collect();
        for h in handles {
            let (rs, c) = h.join().expect("worker process panicked");
            for (b, r) in rs {
                results[b] = Some(r);
            }
            counts.offloads += c.offloads;
            counts.arena_hits += c.arena_hits;
            counts.arena_misses += c.arena_misses;
        }
    });
    let results = results
        .into_iter()
        .map(|r| r.expect("every bootstrap produced a result"))
        .collect();
    (results, counts)
}

/// Median nanoseconds per call of `f` over `reps` calls.
fn ns_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        ns.push(t.elapsed().as_nanos() as f64);
    }
    median(&ns)
}

/// A loop body that does nothing: its off-load time is pure runtime.
struct NoopBody;

impl LoopBody for NoopBody {
    type Acc = u64;
    fn len(&self) -> usize {
        64
    }
    fn identity(&self) -> u64 {
        0
    }
    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> u64 {
        std::hint::black_box(range.len() as u64)
    }
    fn merge(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Kernel ns per pattern, and the throttled-adapter tax on `evaluate`.
fn kernel_probes(inp: &Inputs, out: &mut Outcome) {
    let data = &inp.data;
    let n = data.n_patterns();
    let eng = LikelihoodEngine::new(&Jc69, data);
    let (t0, t1, t2) = (eng.tip_clv(0), eng.tip_clv(1), eng.tip_clv(2));
    let u = eng.newview(&t0, 0.1, &t1, 0.1);
    let reps = (2_000_000 / n).clamp(200, 5_000);
    let mut piece = eng.empty_clv();
    let newview = ns_per_call(reps, || {
        eng.newview_range(&t0, 0.1, &t1, 0.1, 0..n, &mut piece)
    });
    let evaluate = ns_per_call(reps, || {
        std::hint::black_box(eng.evaluate_range(&u, &t2, 0.1, 0..n));
    });
    let deriv = ns_per_call(reps, || {
        std::hint::black_box(eng.lnl_derivatives_range(&u, &t2, 0.1, 0..n));
    });
    out.metric("phylo.newview_ns_per_pattern", "ns", newview / n as f64);
    out.metric("phylo.evaluate_ns_per_pattern", "ns", evaluate / n as f64);
    out.metric("phylo.deriv_ns_per_pattern", "ns", deriv / n as f64);

    // The adapter's evaluate once the granularity controller has
    // throttled it to the PPE copy, against the direct kernel call. The
    // two alternate call by call, so host speed drifts out of the
    // difference.
    let rt =
        MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Mgps).with_granularity_control(64));
    let mut ctx = rt.enter_process();
    let mut off = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(data));
    let (u, v) = (Arc::new(u), Arc::new(t2));
    for _ in 0..256 {
        std::hint::black_box(off.evaluate(Arc::clone(&u), Arc::clone(&v), 0.1));
    }
    let (mut adapter, mut direct) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(off.evaluate(Arc::clone(&u), Arc::clone(&v), 0.1));
        adapter.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        std::hint::black_box(eng.evaluate(&u, &v, 0.1));
        direct.push(t.elapsed().as_nanos() as f64);
    }
    drop(off);
    drop(ctx);
    out.metric(
        "adapters.evaluate_tax_ns",
        "ns",
        median(&adapter) - median(&direct),
    );
    out.extra(
        "adapters.evaluate_throttled",
        "bool",
        f64::from(u8::from(rt.is_throttled(KernelKind::Evaluate))),
    );
}

/// No-op off-load round trips under EDTLP and at loop degree 8.
fn offload_rtt(out: &mut Outcome) {
    for (label, scheduler) in [
        ("runtime.offload_rtt_ns.edtlp", SchedulerKind::Edtlp),
        (
            "runtime.offload_rtt_ns.llp8",
            SchedulerKind::StaticHybrid { spes_per_loop: 8 },
        ),
    ] {
        let rt = MgpsRuntime::new(RuntimeConfig::cell(scheduler));
        let mut ctx = rt.enter_process();
        let body = Arc::new(NoopBody);
        let mut call = || {
            ctx.offload_loop(LoopSite(99), Arc::clone(&body))
                .expect("a no-op off-load cannot fail");
        };
        for _ in 0..100 {
            call();
        }
        out.metric(label, "ns", ns_per_call(2_000, call));
    }
}

/// The traced analysis: probes, then rounds of four mirrored analyses —
/// instrumentation off, metrics only, metrics and the program's tracer,
/// metrics and this crate's spans — plus a spanned serial pass. Returns
/// the layer metrics and the spans-on over spans-off wall-time overhead.
fn traced(shape: &Shape, inp: &Inputs, seconds: f64) -> (Outcome, f64) {
    let mut out = Outcome::default();
    kernel_probes(inp, &mut out);
    offload_rtt(&mut out);

    let pa = shape.analysis();
    let n = shape.bootstraps;
    let serial = serial_all(inp, n, &pa.search).results;
    let (mut t_off, mut t_metrics, mut t_tracer, mut t_spans) = (vec![], vec![], vec![], vec![]);
    let mut counted = None;
    let mut budget = Budget::new(seconds, 1);
    while budget.another() {
        for config in 0..4 {
            let metrics = Arc::new(AtomicMetrics::new());
            let sink: Arc<dyn MetricsSink> = if config == 0 {
                Arc::new(NopMetrics)
            } else {
                Arc::clone(&metrics) as Arc<dyn MetricsSink>
            };
            let tracer = (config == 2).then(Tracer::with_default_capacity);
            let rt = MgpsRuntime::with_observability(pa.runtime, sink, tracer);
            spans::set_enabled(config == 3);
            let mark = spans::mark();
            let ((results, counts), t) =
                timed(|| mirror_bootstraps(&rt, shape.workers, &pa.search, inp, n));
            spans::set_enabled(false);
            for (b, (got, want)) in results.iter().zip(&serial).enumerate() {
                out.check(compare(b, got, want));
            }
            [&mut t_off, &mut t_metrics, &mut t_tracer, &mut t_spans][config].push(t);
            if config == 3 {
                counted = Some((
                    metrics,
                    counts,
                    spans::since(mark),
                    rt.context_switches(),
                    rt.gate_contention_ns(),
                ));
            }
        }
    }

    // The serial reference, spanned the same way.
    spans::set_enabled(true);
    let mark = spans::mark();
    for (b, want) in serial.iter().enumerate() {
        let r = serial_search(
            |rep| {
                let mut engine = LikelihoodEngine::new(&Jc69, rep);
                spans::span("phylo", "search", || {
                    let mut spanned = Spanned {
                        inner: &mut engine,
                        layer: "phylo",
                    };
                    hill_climb_with(
                        &mut spanned,
                        rep.n_taxa(),
                        &pa.search,
                        search_seed(inp.boot_seed, b),
                    )
                })
            },
            &inp.data,
            inp.boot_seed,
            b,
        );
        out.check(compare(b, &r, want));
    }
    spans::set_enabled(false);
    let serial_totals = spans::layer_totals(&spans::since(mark));

    let (metrics, counts, runtime_spans, ctx_switches, gate_ns) =
        counted.expect("at least one traced round ran");
    let runtime_totals = spans::layer_totals(&runtime_spans);
    let secs = |ns: u64| ns as f64 / 1e9;
    let serial_scoring = serial_totals
        .get("phylo.scoring")
        .copied()
        .unwrap_or_default();
    let adapter_scoring = runtime_totals
        .get("adapters.scoring")
        .copied()
        .unwrap_or_default();
    out.metric("phylo.scoring_s", "s", secs(serial_scoring.total_ns));
    out.metric("phylo.scoring_calls", "count", serial_scoring.count as f64);
    out.metric(
        "phylo.search_self_s",
        "s",
        secs(serial_totals.get("phylo.search").map_or(0, |t| t.self_ns)),
    );
    out.metric("adapters.scoring_s", "s", secs(adapter_scoring.total_ns));
    out.metric(
        "adapters.tax_ns_per_call",
        "ns",
        (adapter_scoring.total_ns as f64 - serial_scoring.total_ns as f64)
            / counts.offloads.max(1) as f64,
    );
    out.metric("adapters.kernel_calls", "count", counts.offloads as f64);
    out.metric(
        "adapters.arena_hit_ratio",
        "ratio",
        counts.arena_hits as f64 / (counts.arena_hits + counts.arena_misses).max(1) as f64,
    );

    let offloads = metrics.get(Counter::Offloads);
    let throttles = metrics.get(Counter::KernelThrottles);
    let snap = metrics.snapshot();
    let ms = |ns: u64| ns as f64 / 1e6;
    out.metric(
        "runtime.offload_frac",
        "ratio",
        offloads as f64 / (offloads + throttles).max(1) as f64,
    );
    out.metric(
        "runtime.reprobes",
        "count",
        metrics.get(Counter::KernelReprobes) as f64,
    );
    out.metric("runtime.ctx_switches", "count", ctx_switches as f64);
    out.extra("runtime.gate_contention_ms", "ms", ms(gate_ns));
    out.metric(
        "runtime.task_busy_ms",
        "ms",
        ms(snap.hist_sum(HistKind::TaskDurNs)),
    );
    out.metric(
        "runtime.llp_activations",
        "count",
        metrics.get(Counter::LlpActivations) as f64,
    );

    let (off, with_metrics) = (median(&t_off), median(&t_metrics));
    out.metric("metrics.overhead_frac", "ratio", with_metrics / off - 1.0);
    out.metric(
        "tracing.overhead_frac",
        "ratio",
        median(&t_tracer) / with_metrics - 1.0,
    );
    (out, median(&t_spans) / with_metrics - 1.0)
}
