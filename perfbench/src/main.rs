//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload for about `--seconds` of timed work after its
//! set-up, checks every output against an oracle, and prints a
//! human-readable metric table followed, as the last line of standard
//! output, by one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the traced variant instead and reports the per-layer
//! metrics: spans recorded by this crate around calls into each layer
//! ([`spans`]) plus counters the program already exposes. Every traced
//! run covers every layer: the workload's own layers at workload size,
//! the others through a small probe of the same code (see `README.md`).
//!
//! The workload seed is the only source of inputs: every generator
//! (alignment, bootstrap replicates, atlas base seed, load schedule)
//! derives its own seed from it with [`derive_seed`].

mod analysis;
mod atlas;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use minijson::Value;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "analysis-narrow",
    "analysis-wide",
    "atlas-sweep",
    "serve-jobs",
];

/// One reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload run hands back to `main` for printing.
#[derive(Default)]
pub struct Outcome {
    /// Operations checked against an oracle.
    pub attempted: u64,
    /// Operations whose oracle check failed.
    pub failed: u64,
    /// Human-readable oracle failures (printed to stderr).
    pub failures: Vec<String>,
    /// The metrics the JSON line carries, in report order.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed in the table only.
    pub extra: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn extra(&mut self, name: &str, unit: &'static str, value: f64) {
        self.extra.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Count one checked operation; `Err` records it as failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Merge another run's checks (not its metrics) into this one.
    pub fn absorb_checks(&mut self, other: &mut Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.append(&mut other.failures);
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// A generator's own seed: a splitmix64 finalizer over the workload seed
/// and a per-generator stream tag, so streams never share a seed.
pub fn derive_seed(seed: u64, stream: &str) -> u64 {
    let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs timed repetitions until the budget would be exceeded: a new
/// repetition starts only if one more of the average so far still fits,
/// and at least `min_reps` always run.
pub struct Budget {
    start: Instant,
    budget: Duration,
    reps: u32,
    min_reps: u32,
}

impl Budget {
    pub fn new(seconds: f64, min_reps: u32) -> Budget {
        Budget {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
            reps: 0,
            min_reps,
        }
    }

    /// Whether another repetition fits; call once per repetition.
    pub fn another(&mut self) -> bool {
        let elapsed = self.start.elapsed();
        let average = if self.reps == 0 {
            Duration::ZERO
        } else {
            elapsed / self.reps
        };
        let go = self.reps < self.min_reps || elapsed + average <= self.budget;
        self.reps += u32::from(go);
        go
    }
}

/// Time `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn run(args: &Args) -> Outcome {
    let out_dir = std::path::Path::new("perfbench/out");
    let mut outcome = match args.workload.as_str() {
        "analysis-narrow" => analysis::run(&analysis::NARROW, args),
        "analysis-wide" => analysis::run(&analysis::WIDE, args),
        "atlas-sweep" => atlas::run(args),
        "serve-jobs" => serve::run(args, out_dir),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    if args.trace {
        // Every traced run covers every layer: probe the layers this
        // workload does not exercise with a small run of the same code.
        let mut probes = Outcome::default();
        if !args.workload.starts_with("analysis") {
            analysis::probe(args, &mut probes);
        }
        if args.workload != "atlas-sweep" {
            atlas::probe(args, &mut probes);
        }
        if args.workload != "serve-jobs" {
            serve::probe(args, out_dir, &mut probes);
        }
        outcome.absorb_checks(&mut probes);
        outcome.metrics.append(&mut probes.metrics);
        let spans = spans::take();
        if let Err(e) = spans::write_out(&spans, out_dir, &args.workload, args.seed) {
            outcome.failures.push(format!("writing spans: {e}"));
        }
    }
    outcome
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-child") {
        return serve::child(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    spans::set_enabled(false);
    let mut outcome = run(&args);
    outcome.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .failures
                .push(format!("metric {} is not a finite number", m.name));
        }
    }

    for why in &outcome.failures {
        eprintln!("perfbench: check failed: {why}");
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} attempted={} failed={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    for m in outcome.extra.iter().chain(&outcome.metrics) {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN; a non-finite metric already marks the run
            // incorrect above.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.as_str(),
                Value::object(vec![("value", value.into()), ("unit", m.unit.into())]),
            )
        })
        .collect::<Vec<_>>();
    let correct = outcome.attempted > 0 && outcome.failed == 0 && outcome.failures.is_empty();
    let line = Value::object(vec![
        ("correct", correct.into()),
        ("attempted", outcome.attempted.max(1).into()),
        ("failed", outcome.failed.into()),
        ("metrics", Value::object(metrics)),
    ]);
    println!("{}", line.to_json());
    ExitCode::SUCCESS
}
