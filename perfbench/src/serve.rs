//! The `serve-jobs` workload: an open loop of `POST /jobs` against the
//! serve plane with the smallest ambient stream.
//!
//! The server is this binary re-executed as `perfbench serve-child`,
//! which runs `multigrain::serve::serve` — the same entry point as
//! `multigrain serve --workers 2 --tasks 1` — and exits as that command
//! does: 0 for a clean run, 4 when the run log breaks an invariant.
//!
//! Arrivals follow the seeded `loadgen::offered_jobs` schedule at a fixed
//! rate across two tenants, sent by two client threads (so at most two
//! load connections are open). Each request is timed from its due time.
//! A job's latency is its admission round trip plus the server's
//! `job_submitted` → `job_completed` time read from `/events`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use multigrain::loadgen::{offered_jobs, LoadgenConfig, OfferedJob, ONE_X};
use multigrain::serve::{http_get, serve, ServeConfig, ServeError};

use crate::stats::{median, quantile};
use crate::{derive_seed, spans, timed, Args, Outcome, SETUP_REPS};

/// Offered load, jobs per second.
const RATE: f64 = 60.0;
/// Tenants the load is spread across.
const TENANTS: usize = 2;
/// Concurrent client connections carrying the load.
const CLIENTS: usize = 2;
/// Seconds of load the probe run offers from workloads that do not serve.
const PROBE_SECONDS: f64 = 3.0;
/// Warm-up jobs sent during set-up, before the timed load.
const WARMUP_JOBS: usize = 4;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// `perfbench serve-child --seed <n> --out <path>`: run the service with
/// the workload's flags and exit like `multigrain serve`.
pub fn child(argv: &[String]) -> ExitCode {
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
    };
    let (Some(seed), Some(out)) = (value("--seed").and_then(|s| s.parse().ok()), value("--out"))
    else {
        eprintln!("usage: perfbench serve-child --seed <n> --out <path>");
        return ExitCode::from(2);
    };
    let cfg = ServeConfig {
        workers: 2,
        tasks_per_worker: 1,
        seed,
        out: Some(PathBuf::from(out)),
        ..ServeConfig::default()
    };
    match serve(&cfg) {
        Ok(o) if o.violations == 0 && o.jobs_poisoned == 0 => ExitCode::SUCCESS,
        Ok(o) => {
            eprintln!(
                "serve-child: {} violation(s), {} poisoned job(s)",
                o.violations, o.jobs_poisoned
            );
            ExitCode::from(4)
        }
        Err(ServeError::Io(m)) => {
            eprintln!("serve-child: {m}");
            ExitCode::from(3)
        }
        Err(ServeError::Other(m)) => {
            eprintln!("serve-child: {m}");
            ExitCode::from(1)
        }
    }
}

/// A running server child.
struct Server {
    child: Child,
    addr: String,
    log: PathBuf,
    /// Collects the child's remaining stdout lines until it exits;
    /// `None` once [`Server::stop`] has joined it.
    stdout: Option<std::thread::JoinHandle<Vec<String>>>,
}

/// What stopping a server left behind.
struct Stopped {
    peak_rss_mb: f64,
    /// The run log the server wrote, as text.
    log: Result<String, String>,
    exit: Result<(), String>,
    /// The server's closing summary line.
    summary: Option<String>,
}

impl Server {
    /// Spawn the child and wait until it binds and answers `/health`.
    fn start(seed: u64, dir: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log = dir.join(format!("serve-{}-{seed}.json", std::process::id()));
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve-child", "--seed", &seed.to_string(), "--out"])
            .arg(&log)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn serve-child: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = lines.by_ref().map_while(Result::ok).find_map(|l| {
            l.split_once("listening on http://")
                .map(|(_, a)| a.trim().to_string())
        });
        // Keep reading so the child never blocks on a full pipe.
        let stdout = std::thread::spawn(move || lines.map_while(Result::ok).collect());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let _ = stdout.join();
            return Err("serve-child exited before binding".into());
        };
        let server = Server {
            child,
            addr,
            log,
            stdout: Some(stdout),
        };
        let deadline = Instant::now() + IO_TIMEOUT;
        while http_get(&server.addr, "/health").is_err() {
            if Instant::now() > deadline {
                let stopped = server.stop();
                return Err(format!("server never became healthy ({:?})", stopped.exit));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(server)
    }

    /// SIGINT the child (it drains admitted jobs, checks and writes its
    /// run log), wait for it, and read the log back.
    fn stop(mut self) -> Stopped {
        let pid = self.child.id();
        let peak_rss_mb = crate::stats::peak_rss_mb(Some(pid)).unwrap_or(f64::NAN);
        let signalled = Command::new("kill")
            .args(["-INT", &pid.to_string()])
            .status();
        if !signalled.is_ok_and(|s| s.success()) {
            let _ = self.child.kill();
        }
        let status = self.child.wait();
        let lines = self
            .stdout
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        let exit = match status {
            Ok(s) if s.success() => Ok(()),
            Ok(s) => Err(format!("server exited with {s}")),
            Err(e) => Err(format!("waiting for the server: {e}")),
        };
        let log = std::fs::read_to_string(&self.log).map_err(|e| format!("reading run log: {e}"));
        let _ = std::fs::remove_file(&self.log);
        let summary = lines
            .into_iter()
            .rev()
            .find(|l| l.contains(" violation(s)"));
        Stopped {
            peak_rss_mb,
            log,
            exit,
            summary,
        }
    }
}

impl Drop for Server {
    /// A server that was never stopped (the benchmark is unwinding from a
    /// panic) must not outlive it.
    fn drop(&mut self) {
        if let Some(stdout) = self.stdout.take() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = stdout.join();
            let _ = std::fs::remove_file(&self.log);
        }
    }
}

/// One `POST /jobs` as the client saw it; times in ns from load start.
struct Sent {
    due_ns: u64,
    sent_ns: u64,
    done_ns: u64,
    /// HTTP status, or `None` when the request got no answer.
    status: Option<u16>,
    job: Option<u64>,
}

fn post_job(addr: &str, o: &OfferedJob) -> Result<(u16, Option<u64>), String> {
    let body = format!(
        "taxa=8&sites={}&bootstraps=1&tenant={}",
        (o.service_ns / 4_000).clamp(16, 8192),
        o.tenant
    );
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/x-www-form-urlencoded\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("malformed response {response:?}"))?;
    let job = response
        .split_once("\r\n\r\n")
        .and_then(|(_, b)| minijson::parse(b.trim()).ok())
        .and_then(|v| v.get("job").and_then(|j| j.as_u64()));
    Ok((status, job))
}

/// Send `schedule` open-loop from `CLIENTS` threads; the main thread
/// scrapes `/metrics` every `scrape_every` meanwhile.
fn drive(addr: &str, schedule: &[OfferedJob], scrape_every: Duration) -> (Vec<Sent>, Vec<f64>) {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let sent = Mutex::new(Vec::with_capacity(schedule.len()));
    let mut scrapes = Vec::new();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(o) = schedule.get(i) else { break };
                let due = Duration::from_nanos(o.arrival_ns);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent_ns = start.elapsed().as_nanos() as u64;
                let r = spans::span("serve", "post_job", || post_job(addr, o));
                let done_ns = start.elapsed().as_nanos() as u64;
                let (status, job) = r.map_or((None, None), |(st, job)| (Some(st), job));
                sent.lock().expect("client thread panicked").push(Sent {
                    due_ns: o.arrival_ns,
                    sent_ns,
                    done_ns,
                    status,
                    job,
                });
            });
        }
        let end = schedule.last().map_or(0, |o| o.arrival_ns);
        while (start.elapsed().as_nanos() as u64) < end {
            std::thread::sleep(scrape_every);
            let (r, t) = timed(|| spans::span("serve", "scrape", || http_get(addr, "/metrics")));
            if r.is_ok() {
                scrapes.push(t * 1e3);
            }
        }
    });
    let mut sent = sent.into_inner().expect("client thread panicked");
    sent.sort_by_key(|s| s.due_ns);
    (sent, scrapes)
}

/// Job lifecycle records read from `/events`.
#[derive(Default)]
struct JobEvents {
    /// job → (completions seen, queue, dispatch, kernel, reduce ns).
    completed: BTreeMap<u64, (u32, [u64; 4])>,
}

/// Read the `/events` backlog until every job in `want` has completed
/// (or the timeout passes).
fn read_events(addr: &str, want: &[u64]) -> Result<JobEvents, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect /events: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    stream
        .write_all(
            format!("GET /events HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send /events: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut events = JobEvents::default();
    let deadline = Instant::now() + IO_TIMEOUT;
    let mut line = String::new();
    loop {
        let done = want.iter().all(|j| events.completed.contains_key(j));
        if done || Instant::now() > deadline {
            return Ok(events);
        }
        // A timeout can split a line; what was read stays in `line` and
        // the next read completes it.
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(events),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(format!("read /events: {e}")),
        }
        let parsed = minijson::parse(line.trim());
        line.clear();
        let Ok(v) = parsed else {
            continue;
        };
        if v.get("type").and_then(|t| t.as_str()) != Some("job_completed") {
            continue;
        }
        let field = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
        let entry = events.completed.entry(field("job")).or_insert((0, [0; 4]));
        entry.0 += 1;
        entry.1 = [
            field("t_queue_ns"),
            field("t_dispatch_ns"),
            field("t_kernel_ns"),
            field("t_reduce_ns"),
        ];
    }
}

/// Job ids of the `job_completed` records in a run log's text, in
/// order. A plain scan: the vendored JSON parser is too slow for logs of
/// this size (see README).
fn completed_jobs(log: &str) -> Vec<u64> {
    log.split("\"type\":\"job_completed\"")
        .skip(1)
        .filter_map(|rest| {
            let digits = rest.split_once("\"job\":")?.1;
            let end = digits
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(digits.len());
            digits[..end].parse().ok()
        })
        .collect()
}

/// Check the server's exit, its own checker verdict on the run log it
/// wrote, and that every admitted job completes exactly once in that log.
fn check_stopped(stopped: &Stopped, admitted: &[u64], out: &mut Outcome) {
    out.check(stopped.exit.clone());
    out.check(match &stopped.summary {
        Some(s) if s.contains(" 0 dropped") && s.contains(" 0 violation(s)") => Ok(()),
        Some(s) => Err(format!("server summary: {s}")),
        None => Err("server printed no summary".into()),
    });
    out.check(stopped.log.clone().and_then(|log| {
        let mut completions: BTreeMap<u64, u32> = BTreeMap::new();
        for job in completed_jobs(&log) {
            *completions.entry(job).or_default() += 1;
        }
        match admitted.iter().find(|j| completions.get(j) != Some(&1)) {
            Some(j) => Err(format!("run log: job {j} does not complete exactly once")),
            None if completions.len() == admitted.len() => Ok(()),
            None => Err(format!(
                "run log: {} completed jobs, {} admitted",
                completions.len(),
                admitted.len()
            )),
        }
    }));
}

fn warm_up(server: &Server, schedule: &[OfferedJob]) -> Vec<u64> {
    schedule
        .iter()
        .take(WARMUP_JOBS)
        .filter_map(|o| post_job(&server.addr, o).ok().and_then(|(_, job)| job))
        .collect()
}

/// Set-up: spawn and ready the server and send the warm-up jobs; the
/// median of [`SETUP_REPS`], keeping the last server running.
fn setup(
    server_seed: u64,
    schedule: &[OfferedJob],
    dir: &Path,
    out: &mut Outcome,
) -> Result<(Server, Vec<u64>, f64), String> {
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let server = Server::start(server_seed, dir)?;
        let warm = warm_up(&server, schedule);
        times.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((server, warm, median(&times)));
        }
        if let Err(e) = read_events(&server.addr, &warm) {
            out.failures.push(e);
        }
        let stopped = server.stop();
        check_stopped(&stopped, &warm, out);
    }
    unreachable!("the last repetition returns")
}

/// One served session: set-up, `seconds` of open-loop load, drain, and
/// every check. Returns per-layer figures alongside the end-to-end ones.
fn session(args: &Args, seconds: f64, dir: &Path, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    // The seeded schedule's first `RATE × seconds` arrivals, stretched so
    // the last lands at `seconds`: every seed offers the same number of
    // jobs at the same mean rate, and only the arrival pattern and the
    // job sizes vary with the seed.
    let jobs = (RATE * seconds).round() as usize;
    let load = LoadgenConfig {
        rate: RATE,
        duration_ms: (seconds * 2e3) as u64,
        seed: derive_seed(args.seed, "load"),
        tenants: TENANTS,
        workers: 2,
        ..LoadgenConfig::default()
    };
    let mut schedule = offered_jobs(&load, ONE_X);
    schedule.truncate(jobs);
    let stretch = seconds * 1e9 / schedule.last().map_or(1, |o| o.arrival_ns.max(1)) as f64;
    for o in &mut schedule {
        o.arrival_ns = (o.arrival_ns as f64 * stretch) as u64;
    }
    // Run logs store numbers as JSON doubles: a seed within 53 bits keeps
    // the log's header exact.
    let server_seed = derive_seed(args.seed, "serve") >> 11;
    let (server, warm, setup_s) = match setup(server_seed, &schedule, dir, &mut out) {
        Ok(s) => s,
        Err(e) => {
            out.check(Err(e));
            return out;
        }
    };
    // Traced sessions span only the second half of the load, so the
    // first half measures the same traffic untraced.
    let half = schedule.len() / 2;
    let untraced = &schedule[..half];
    let traced = &schedule[half..];
    let scrape_every = Duration::from_millis(500);
    let (mut sent, mut scrapes) = drive(&server.addr, untraced, scrape_every);
    spans::set_enabled(trace);
    let offset = untraced.last().map_or(0, |o| o.arrival_ns);
    let shifted: Vec<OfferedJob> = traced
        .iter()
        .map(|o| OfferedJob {
            arrival_ns: o.arrival_ns - offset,
            ..*o
        })
        .collect();
    let (sent2, scrapes2) = drive(&server.addr, &shifted, scrape_every);
    spans::set_enabled(false);
    let split = sent.len();
    sent.extend(sent2.into_iter().map(|s| Sent {
        due_ns: s.due_ns + offset,
        sent_ns: s.sent_ns + offset,
        done_ns: s.done_ns + offset,
        ..s
    }));
    scrapes.extend(scrapes2);

    let mut admitted: Vec<u64> = warm.clone();
    let mut rejected = 0usize;
    for s in &sent {
        out.check(match s.status {
            Some(202) => {
                admitted.extend(s.job);
                s.job
                    .map(|_| ())
                    .ok_or_else(|| "202 without a job id".to_string())
            }
            Some(429) => {
                rejected += 1;
                Ok(())
            }
            Some(code) => Err(format!("POST /jobs answered {code}")),
            None => Err("POST /jobs got no answer".into()),
        });
    }
    let events = read_events(&server.addr, &admitted);
    let stopped = server.stop();
    check_stopped(&stopped, &admitted, &mut out);
    let events = match events {
        Ok(e) => e,
        Err(e) => {
            out.check(Err(e));
            JobEvents::default()
        }
    };
    for j in &admitted {
        out.check(match events.completed.get(j) {
            Some((1, _)) => Ok(()),
            Some((n, _)) => Err(format!("job {j}: {n} job_completed records")),
            None => Err(format!("job {j}: no job_completed on /events")),
        });
    }

    // Per-request figures, in ms.
    let ms = |ns: u64| ns as f64 / 1e6;
    let (mut latency, mut admit, mut server_ms, mut late) = (vec![], vec![], vec![], vec![]);
    let (mut admit_untraced, mut admit_traced) = (vec![], vec![]);
    let mut terms = [0u64; 4];
    for (i, s) in sent.iter().enumerate() {
        if s.status.is_none() {
            continue;
        }
        let rtt = ms(s.done_ns - s.due_ns);
        admit.push(rtt);
        late.push(ms(s.sent_ns.saturating_sub(s.due_ns)));
        if i < split {
            admit_untraced.push(rtt)
        } else {
            admit_traced.push(rtt)
        }
        let Some((_, t)) = s.job.and_then(|j| events.completed.get(&j)) else {
            continue;
        };
        let service = t.iter().sum::<u64>();
        latency.push(rtt + ms(service));
        server_ms.push(ms(service));
        for (acc, x) in terms.iter_mut().zip(t) {
            *acc += x;
        }
    }
    let span_s = sent
        .last()
        .map_or(0, |s| s.done_ns)
        .saturating_sub(sent.first().map_or(0, |s| s.due_ns));
    let completed_per_s = latency.len() as f64 / (span_s as f64 / 1e9);

    out.metric("setup_s", "s", setup_s);
    out.metric("peak_rss_mb", "MB", stopped.peak_rss_mb);
    out.metric("throughput_per_s", "1/s", completed_per_s);
    out.extra(
        "reference_ratio",
        "x",
        median(&server_ms) / median(&latency),
    );
    out.metric("latency_p50_ms", "ms", median(&latency));
    out.extra("jobs", "count", latency.len() as f64);
    out.extra("serve.completed_per_s", "1/s", completed_per_s);
    out.extra("serve.latency_p50_ms", "ms", median(&latency));
    out.extra("serve.latency_p99_ms", "ms", quantile(&latency, 0.99));

    let jobs = latency.len().max(1) as f64;
    for (name, total) in [
        "serve.queue_ms",
        "serve.dispatch_ms",
        "serve.kernel_ms",
        "serve.reduce_ms",
    ]
    .iter()
    .zip(terms)
    {
        out.extra(name, "ms", ms(total) / jobs);
    }
    out.extra("serve.admit_p50_ms", "ms", median(&admit));
    out.extra("serve.admit_p99_ms", "ms", quantile(&admit, 0.99));
    out.extra("serve.scrape_ms", "ms", median(&scrapes));
    out.extra(
        "serve.rejected_frac",
        "ratio",
        rejected as f64 / sent.len().max(1) as f64,
    );
    out.extra("serve.gen_late_p99_ms", "ms", quantile(&late, 0.99));
    out.extra(
        "bench.trace_overhead_frac",
        "ratio",
        median(&admit_traced) / median(&admit_untraced) - 1.0,
    );
    out
}

/// Names of the figures a session reports as per-layer metrics.
const LAYER_METRICS: [&str; 10] = [
    "serve.latency_p99_ms",
    "serve.queue_ms",
    "serve.dispatch_ms",
    "serve.kernel_ms",
    "serve.reduce_ms",
    "serve.admit_p50_ms",
    "serve.admit_p99_ms",
    "serve.scrape_ms",
    "serve.rejected_frac",
    "serve.gen_late_p99_ms",
];

/// Move the per-layer figures of a traced session from `extra` into
/// `metrics`; the end-to-end metrics become table-only figures.
fn as_layer_metrics(mut s: Outcome, with_overhead: bool) -> Outcome {
    let e2e = std::mem::take(&mut s.metrics);
    let extra = std::mem::take(&mut s.extra);
    for m in extra {
        if LAYER_METRICS.contains(&m.name.as_str())
            || (with_overhead && m.name == "bench.trace_overhead_frac")
        {
            s.metrics.push(m);
        } else {
            s.extra.push(m);
        }
    }
    s.extra.extend(e2e);
    s
}

pub fn run(args: &Args, dir: &Path) -> Outcome {
    let s = session(args, args.seconds, dir, args.trace);
    if !args.trace {
        let mut s = s;
        s.extra.retain(|m| m.name != "bench.trace_overhead_frac");
        return s;
    }
    as_layer_metrics(s, true)
}

/// Probe the service layer with a short session.
pub fn probe(args: &Args, dir: &Path, out: &mut Outcome) {
    let mut p = as_layer_metrics(session(args, PROBE_SECONDS, dir, true), false);
    out.absorb_checks(&mut p);
    out.metrics.append(&mut p.metrics);
}
