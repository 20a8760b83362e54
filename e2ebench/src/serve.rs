//! The `serve-jobs` workload: a spawned `repro serve` with a pre-filled
//! journal, driven over HTTP by an open-loop load generator — one thread
//! submits jobs on a fixed schedule, one thread reads (job polls,
//! `/healthz`, `/metrics`) — with every request timed from when it was due.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use anneal_experiments::scheduler::run_indexed;
use anneal_experiments::{JobOutcome, JobServer, JobSpec};
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::http::{self, job_id, job_record, prometheus_sample, str_field};
use crate::report::{peak_rss_mb, Outcome};
use crate::spans::Tracer;
use crate::stats::{due_timed, median, percentile};
use crate::Ctx;

/// Jobs submitted per second (open loop).
const JOBS_PER_S: u32 = 20;
/// `/healthz` probe period.
const HEALTHZ_EVERY: Duration = Duration::from_millis(50);
/// `/metrics` scrape period.
const METRICS_EVERY: Duration = Duration::from_secs(1);
/// A job is polled again at most this soon after its previous poll.
const POLL_GAP: Duration = Duration::from_millis(2);
/// Finished jobs written to the journal before the server starts.
const PREFILL_JOBS: usize = 1000;
/// Server start-ups timed for `setup_s` (the last one takes the load).
const SETUP_SPAWNS: usize = 11;
/// Journal replays timed in-process for `jobs.replay_ms`.
const REPLAYS: usize = 3;
/// How long after the load window outstanding jobs may take.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);
/// How long the server may take to start, to stop, or to finish the
/// pre-fill jobs.
const PATIENCE: Duration = Duration::from_secs(30);
/// The latency limit on `job_latency_ms_p99`.
const SLO_MS: f64 = 1000.0;
/// The exit code `repro serve` owes a SIGTERM (128 + 15).
const SIGTERM_EXIT: i32 = 143;
const SIGTERM: i32 = 15;
/// Worker threads used in-process (prefill, byte check).
const THREADS: usize = 2;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// The tiny-job substrates and methods, each used equally often.
const PROBLEMS: [&str; 4] = ["gola", "nola", "tsp", "partition"];
const METHODS: [&str; 4] = ["sta", "metropolis", "g1", "two-level"];

/// A tiny job: one instance, about 1–2 ms of compute.
fn tiny_job(problem: &str, method: &str, seconds: u64, seed: u64) -> String {
    format!(
        "{{\"problem\":\"{problem}\",\"instances\":1,\"method\":\"{method}\",\
         \"seconds\":{seconds},\"seed\":{seed}}}"
    )
}

/// A medium job: four GOLA instances at the paper's 12-second budget,
/// about 40 ms of compute.
fn medium_job(seed: u64) -> String {
    format!("{{\"problem\":\"gola\",\"instances\":4,\"seconds\":12,\"seed\":{seed}}}")
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// `n` job specs in blocks of 16 with a fixed make-up — 4 medium jobs and
/// 12 tiny ones, 3 per substrate, 3 per method, half at 1 and half at 2
/// paper seconds — in seeded order with seeded job seeds. Every seed thus
/// offers the same work; only its order and instances differ.
pub fn load_mix(seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4C4F4144);
    let mut jobs = Vec::with_capacity(n + 16);
    while jobs.len() < n {
        let mut methods: Vec<&str> = METHODS.iter().cycle().take(12).copied().collect();
        shuffle(&mut methods, &mut rng);
        let mut block: Vec<String> = (0..12)
            .map(|i| {
                let job_seed = rng.random_range(0..1_000_000_000u64);
                tiny_job(
                    PROBLEMS[i % 4],
                    methods[i],
                    1 + (i as u64 / 4) % 2,
                    job_seed,
                )
            })
            .collect();
        for _ in 0..4 {
            block.push(medium_job(rng.random_range(0..1_000_000_000u64)));
        }
        shuffle(&mut block, &mut rng);
        jobs.extend(block);
    }
    jobs.truncate(n);
    jobs
}

/// The tiny jobs that pre-fill the journal.
fn prefill_mix(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x50524546);
    (0..PREFILL_JOBS)
        .map(|i| {
            let job_seed = rng.random_range(0..1_000_000_000u64);
            tiny_job(
                PROBLEMS[i % 4],
                METHODS[(i / 4) % 4],
                1 + (i as u64 / 16) % 2,
                job_seed,
            )
        })
        .collect()
}

/// Due offsets of `n` requests at one per `period`, each at a seeded
/// uniform offset inside its own slot: the rate is exactly one per period,
/// but the phase against the server's own timers is spread evenly instead
/// of locking onto one value for a whole run.
pub fn jittered_schedule(seed: u64, n: usize, period: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let slot = period.as_nanos() as u64;
    (0..n as u64)
        .map(|k| Duration::from_nanos(k * slot + rng.random_range(0..slot)))
        .collect()
}

/// Writes `bodies` as finished jobs into the journal at `path`, through
/// the job server's public API.
fn prefill(path: &Path, bodies: &[String]) -> Result<(), String> {
    let server = JobServer::start(THREADS, bodies.len(), Some(&path.to_string_lossy()))?;
    let mut ids = Vec::with_capacity(bodies.len());
    for body in bodies {
        let (status, reply) = server.submit(body);
        if status != 202 {
            return Err(format!("prefill: submit answered {status}: {reply}"));
        }
        ids.push(job_id(&reply).ok_or_else(|| format!("prefill: no id in {reply}"))?);
    }
    let deadline = Instant::now() + PATIENCE;
    for id in ids {
        loop {
            let (_, reply) = server.get(&id.to_string());
            match str_field(&reply, "state") {
                Some("done") => break,
                Some("queued" | "running") if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                other => return Err(format!("prefill: job {id} ended {other:?}: {reply}")),
            }
        }
    }
    server.shutdown();
    Ok(())
}

/// A spawned `repro serve`; killed and reaped on drop if still running.
struct Server {
    child: Option<Child>,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server on a free port and waits for its address.
    fn spawn(repro: &Path, journal: &Path) -> Result<Server, String> {
        let mut child = Command::new(repro)
            .arg("serve")
            .arg("127.0.0.1:0")
            .arg("--journal")
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", repro.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        // Drains stderr for the server's lifetime, so it never blocks on a
        // full pipe; ends at EOF when the server exits.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("ops: serving on ") {
                    tx.send(addr.to_string()).ok();
                }
            }
        });
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            stderr: Some(drain),
        };
        server.addr = rx
            .recv_timeout(PATIENCE)
            .map_err(|_| "repro serve never announced its address".to_string())?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// Sends SIGTERM and waits for the exit; returns the exit code.
    fn terminate(&mut self) -> Result<i32, String> {
        let mut child = self.child.take().expect("running");
        // SAFETY: plain syscall on our own child's pid.
        unsafe { kill(child.id() as i32, SIGTERM) };
        let deadline = Instant::now() + PATIENCE;
        let status = loop {
            match child.try_wait().map_err(|e| format!("wait: {e}"))? {
                Some(status) => break status,
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                None => {
                    child.kill().ok();
                    child.wait().ok();
                    return Err(format!("repro serve ignored SIGTERM for {PATIENCE:?}"));
                }
            }
        };
        if let Some(drain) = self.stderr.take() {
            drain.join().ok();
        }
        Ok(status.code().unwrap_or(-1))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
        if let Some(drain) = self.stderr.take() {
            drain.join().ok();
        }
    }
}

/// Spawns the server and times it to its first `200` on `/healthz`.
fn start_timed(ctx: &Ctx, journal: &Path, tracer: &Tracer) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(&ctx.repro, journal)?;
    loop {
        if let Ok(r) = http::request(&server.addr, "GET", "/healthz", None) {
            if r.status == 200 {
                break;
            }
        }
        if t0.elapsed() > PATIENCE {
            return Err("repro serve never answered /healthz with 200".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let t1 = Instant::now();
    tracer.record("setup.spawn", 0, None, t0, t1);
    Ok((server, (t1 - t0).as_secs_f64()))
}

/// One submitted job, as the submitter saw it.
struct Submitted {
    due_ns: u64,
    sent_ns: u64,
    replied_ns: u64,
    status: Option<u16>,
}

/// One accepted job, as the reader saw it end.
struct Finished {
    k: usize,
    id: u64,
    terminal_ns: Option<u64>,
    state: String,
    record: Option<String>,
    polls: u32,
}

/// What the reader measured besides jobs.
#[derive(Default)]
struct Reads {
    /// Due-timed `/healthz` latencies, ms.
    healthz: Vec<f64>,
    /// Due-timed `/metrics` latencies (ms) and body sizes.
    metrics: Vec<(f64, usize)>,
    queued_max: f64,
    polls: u64,
    /// Requests sent, and those that failed or answered an error.
    sent: u64,
    failed: u64,
    /// Probes never sent because the run gave up on the server.
    skipped: u64,
}

/// Accepted-job handoff from the submitter to the reader.
struct Accepted {
    k: usize,
    id: u64,
    replied: Instant,
    span: usize,
}

fn submitter(
    addr: &str,
    bodies: &[String],
    schedule: &[Duration],
    t0: Instant,
    give_up: Instant,
    tracer: &Tracer,
    tx: mpsc::Sender<Accepted>,
) -> Vec<Submitted> {
    let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let mut out = Vec::with_capacity(bodies.len());
    for (k, (body, offset)) in bodies.iter().zip(schedule).enumerate() {
        let due = t0 + *offset;
        let now = Instant::now();
        if now > give_up {
            // A server this far behind has failed the run; stop loading it.
            out.push(Submitted {
                due_ns: ns(due),
                sent_ns: ns(now),
                replied_ns: ns(now),
                status: None,
            });
            continue;
        }
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let reply = http::request(addr, "POST", "/jobs", Some(body));
        let replied = Instant::now();
        let span = tracer.open("job", k as u64, None, due);
        tracer.record("submit", k as u64, Some(span), sent, replied);
        let status = reply.as_ref().ok().map(|r| r.status);
        if let Ok(r) = &reply {
            if let (202, Some(id)) = (r.status, job_id(&r.body)) {
                tx.send(Accepted {
                    k,
                    id,
                    replied,
                    span,
                })
                .ok();
            }
        }
        out.push(Submitted {
            due_ns: ns(due),
            sent_ns: ns(sent),
            replied_ns: ns(replied),
            status,
        });
    }
    out
}

struct Pending {
    accepted: Accepted,
    next_poll: Instant,
    polls: u32,
}

impl Pending {
    /// A job just accepted: first polled as soon as its `202` is in.
    fn new(accepted: Accepted) -> Self {
        Pending {
            next_poll: accepted.replied,
            accepted,
            polls: 0,
        }
    }
}

fn reader(
    addr: &str,
    healthz_at: &[Duration],
    metrics_at: &[Duration],
    t0: Instant,
    give_up: Instant,
    tracer: &Tracer,
    rx: mpsc::Receiver<Accepted>,
) -> (Vec<Finished>, Reads) {
    let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let (mut healthz_k, mut metrics_k) = (0usize, 0usize);
    let mut pending: Vec<Pending> = Vec::new();
    let mut finished = Vec::new();
    let mut reads = Reads::default();
    let mut submitting = true;
    loop {
        loop {
            match rx.try_recv() {
                Ok(a) => pending.push(Pending::new(a)),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    submitting = false;
                    break;
                }
            }
        }
        let now = Instant::now();
        if now >= give_up {
            // A server this far behind has failed the run: count what is
            // left as failed and stop loading it.
            reads.skipped += (healthz_at.len() - healthz_k + metrics_at.len() - metrics_k) as u64;
            for p in pending.drain(..) {
                finished.push(Finished {
                    k: p.accepted.k,
                    id: p.accepted.id,
                    terminal_ns: None,
                    state: "timed out".to_string(),
                    record: None,
                    polls: p.polls,
                });
            }
            break;
        }
        let healthz_due = healthz_at.get(healthz_k).map(|d| t0 + *d);
        let metrics_due = metrics_at.get(metrics_k).map(|d| t0 + *d);
        let poll_due = pending.iter().map(|p| p.next_poll).min();
        if let Some(due) = healthz_due.filter(|d| *d <= now) {
            let r = http::request(addr, "GET", "/healthz", None);
            let done = Instant::now();
            tracer.record("healthz", 0, None, due, done);
            reads.sent += 1;
            match r {
                Ok(r) if r.status == 200 => reads.healthz.push((done - due).as_secs_f64() * 1e3),
                _ => reads.failed += 1,
            }
            healthz_k += 1;
            continue;
        }
        if let Some(due) = metrics_due.filter(|d| *d <= now) {
            let r = http::request(addr, "GET", "/metrics", None);
            let done = Instant::now();
            tracer.record("metrics", 0, None, due, done);
            reads.sent += 1;
            match r {
                Ok(r) if r.status == 200 => {
                    let queued =
                        prometheus_sample(&r.body, "jobs_state{state=\"queued\"}").unwrap_or(0.0);
                    reads.queued_max = reads.queued_max.max(queued);
                    reads
                        .metrics
                        .push(((done - due).as_secs_f64() * 1e3, r.body.len()));
                }
                _ => reads.failed += 1,
            }
            metrics_k += 1;
            continue;
        }
        if let Some(i) = poll_due
            .filter(|d| *d <= now)
            .and_then(|d| pending.iter().position(|p| p.next_poll == d))
        {
            let p = &mut pending[i];
            let sent = Instant::now();
            let r = http::request(addr, "GET", &format!("/jobs/{}", p.accepted.id), None);
            let done = Instant::now();
            tracer.record(
                "poll",
                p.accepted.k as u64,
                Some(p.accepted.span),
                sent,
                done,
            );
            p.polls += 1;
            reads.polls += 1;
            reads.sent += 1;
            let terminal = match &r {
                Ok(r) if r.status == 200 => match str_field(&r.body, "state") {
                    Some(s @ ("done" | "failed" | "cancelled")) => Some(s.to_string()),
                    _ => None,
                },
                _ => {
                    reads.failed += 1;
                    None
                }
            };
            match terminal {
                Some(state) => {
                    let p = pending.swap_remove(i);
                    tracer.close(p.accepted.span, done);
                    finished.push(Finished {
                        k: p.accepted.k,
                        id: p.accepted.id,
                        terminal_ns: Some(ns(done)),
                        record: r.ok().and_then(|r| job_record(&r.body).map(str::to_string)),
                        state,
                        polls: p.polls,
                    });
                }
                None => p.next_poll = done + POLL_GAP,
            }
            continue;
        }
        if !submitting && healthz_due.is_none() && metrics_due.is_none() && pending.is_empty() {
            break;
        }
        // Sleep until the next due request or a newly accepted job.
        let next = [healthz_due, metrics_due, poll_due]
            .into_iter()
            .flatten()
            .min();
        let wait = next.map_or(Duration::from_millis(50), |t| {
            t.saturating_duration_since(now)
        });
        if submitting {
            match rx.recv_timeout(wait) {
                Ok(a) => pending.push(Pending::new(a)),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => submitting = false,
            }
        } else {
            std::thread::sleep(wait);
        }
    }
    finished.sort_by_key(|f| f.k);
    (finished, reads)
}

/// What running a served job's spec in-process gave.
struct Local {
    parse_us: f64,
    execute_ms: f64,
    record: Result<String, String>,
}

fn run_locally(body: &str) -> Local {
    let t0 = Instant::now();
    let spec = JobSpec::parse(body);
    let parse_us = t0.elapsed().as_secs_f64() * 1e6;
    let t1 = Instant::now();
    let record = spec.and_then(|spec| match spec.execute(&AtomicBool::new(false)) {
        JobOutcome::Done { record } => Ok(record),
        other => Err(format!("{other:?}")),
    });
    Local {
        parse_us,
        execute_ms: t1.elapsed().as_secs_f64() * 1e3,
        record,
    }
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))
}

/// Runs the `serve-jobs` workload into `out`.
pub fn run(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let journal = ctx.tmp.join("journal.jsonl");
    prefill(&journal, &prefill_mix(ctx.seed))?;
    let bodies = load_mix(
        ctx.seed,
        (ctx.seconds.as_secs_f64() * JOBS_PER_S as f64).round() as usize,
    );

    let mut replay_ms = Vec::new();
    if ctx.trace {
        let copy = ctx.tmp.join("replay.jsonl");
        for _ in 0..REPLAYS {
            std::fs::copy(&journal, &copy).map_err(|e| format!("cannot copy journal: {e}"))?;
            let t = Instant::now();
            let server = JobServer::start(1, 1, Some(&copy.to_string_lossy()))?;
            replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
            server.shutdown();
        }
    }

    // Start-up, repeated: spawn to first healthy answer, journal replay
    // included. Every shutdown must be the SIGTERM drain.
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUP_SPAWNS {
        let (mut s, secs) = start_timed(ctx, &journal, tracer)?;
        setups.push(secs);
        if i + 1 == SETUP_SPAWNS {
            server = Some(s);
        } else {
            let code = s.terminate()?;
            out.check(code == SIGTERM_EXIT, || {
                format!("repro serve exited {code} on SIGTERM, not {SIGTERM_EXIT}")
            });
        }
    }
    let mut server = server.expect("a server");
    let journal_before = file_len(&journal)?;

    // The open loop: every request's due time is fixed before it starts.
    let window = ctx.seconds;
    let per = |every: Duration| (window.as_nanos() / every.as_nanos()) as usize;
    let submit_at = jittered_schedule(
        ctx.seed ^ 1,
        bodies.len(),
        Duration::from_secs(1) / JOBS_PER_S,
    );
    let healthz_at = jittered_schedule(ctx.seed ^ 2, per(HEALTHZ_EVERY), HEALTHZ_EVERY);
    let metrics_at = jittered_schedule(ctx.seed ^ 3, per(METRICS_EVERY), METRICS_EVERY);
    let t0 = Instant::now() + Duration::from_millis(50);
    let give_up = t0 + window + DRAIN_LIMIT;
    let (tx, rx) = mpsc::channel();
    let addr = server.addr.clone();
    let (submitted, (finished, reads)) = std::thread::scope(|scope| {
        let sub = scope.spawn(|| submitter(&addr, &bodies, &submit_at, t0, give_up, tracer, tx));
        let rd = scope.spawn(|| reader(&addr, &healthz_at, &metrics_at, t0, give_up, tracer, rx));
        (
            sub.join().expect("submitter panicked"),
            rd.join().expect("reader panicked"),
        )
    });
    let load_wall = t0.elapsed();
    let peak_rss = peak_rss_mb(&server.pid().to_string())?;
    let code = server.terminate()?;
    out.check(code == SIGTERM_EXIT, || {
        format!("repro serve exited {code} on SIGTERM, not {SIGTERM_EXIT}")
    });
    let journal_growth = file_len(&journal)?.saturating_sub(journal_before);

    // Correctness: every job accepted and done, every record equal to the
    // in-process execution of the same spec.
    let refused = submitted.iter().filter(|s| s.status != Some(202)).count();
    out.check(refused == 0, || {
        format!(
            "{refused} of {} submissions refused or failed",
            submitted.len()
        )
    });
    let not_done: Vec<String> = finished
        .iter()
        .filter(|f| f.state != "done")
        .map(|f| format!("job {} ({})", f.id, f.state))
        .collect();
    out.check(not_done.is_empty(), || {
        format!("jobs not done: {not_done:?}")
    });
    let done: Vec<&Finished> = finished.iter().filter(|f| f.state == "done").collect();
    let locals = run_indexed(done.len(), THREADS, |i| run_locally(&bodies[done[i].k]));
    for (f, local) in done.iter().zip(&locals) {
        match (&local.record, &f.record) {
            (Ok(expected), Some(served)) => out.check(expected == served, || {
                format!("job {} served a record that differs from the in-process run:\n{served}\n{expected}", f.id)
            }),
            (local, served) => out.error(format!("job {}: local {local:?}, served {served:?}", f.id)),
        }
    }
    out.check(reads.failed + reads.skipped == 0, || {
        format!(
            "{} of {} reads failed or answered an error, {} never sent",
            reads.failed, reads.sent, reads.skipped
        )
    });

    // End-to-end figures.
    let latency: Vec<f64> = done
        .iter()
        .map(|f| {
            let s = &submitted[f.k];
            due_timed(s.due_ns, s.sent_ns, f.terminal_ns.expect("done")).latency_ms
        })
        .collect();
    let last_terminal_s = done.iter().filter_map(|f| f.terminal_ns).max().unwrap_or(1) as f64 / 1e9;
    let jobs_per_s = done.len() as f64 / last_terminal_s;
    let healthz = &reads.healthz;
    let late: Vec<f64> = submitted
        .iter()
        .map(|s| due_timed(s.due_ns, s.sent_ns, s.replied_ns).late_ms)
        .collect();
    let jobs_attempted = submitted.len();
    let slo_misses =
        latency.iter().filter(|&&ms| ms > SLO_MS).count() + (jobs_attempted - done.len());
    let requests = jobs_attempted as u64 + reads.sent + reads.skipped;
    let failed_requests = (refused + not_done.len()) as u64 + reads.failed + reads.skipped;
    out.attempted = requests;
    out.failed = failed_requests;
    let setup_s = median(&setups);
    let (p50, p95) = (percentile(&latency, 0.50), percentile(&latency, 0.95));
    let n = Some(latency.len());
    out.line("setup_s", Ok(setup_s), "s", Some(setups.len()));
    out.line("job_latency_ms_p50", p50.clone(), "ms", n);
    out.line("job_latency_ms_p95", p95.clone(), "ms", n);
    out.line("job_latency_ms_p99", percentile(&latency, 0.99), "ms", n);
    out.line("jobs_per_s", Ok(jobs_per_s), "1/s", n);
    out.line(
        "healthz_ms_p50",
        percentile(healthz, 0.50),
        "ms",
        Some(healthz.len()),
    );
    out.line(
        "healthz_ms_p95",
        percentile(healthz, 0.95),
        "ms",
        Some(healthz.len()),
    );
    out.line(
        "healthz_ms_p99",
        percentile(healthz, 0.99),
        "ms",
        Some(healthz.len()),
    );
    out.line(
        "slo_miss_frac",
        Ok(slo_misses as f64 / jobs_attempted.max(1) as f64),
        "ratio",
        Some(jobs_attempted),
    );
    out.line("peak_rss_mb", Ok(peak_rss), "MiB", None);
    out.line(
        "failed_frac",
        Ok(failed_requests as f64 / requests.max(1) as f64),
        "ratio",
        Some(requests as usize),
    );
    out.e2e("setup_s", setup_s);
    out.e2e("throughput_per_s", jobs_per_s);
    out.e2e("latency_ms_p50", p50?);
    out.e2e("latency_ms_p95", p95?);
    out.e2e("peak_rss_mb", peak_rss);

    if !ctx.trace {
        return Ok(());
    }
    let submit_ms: Vec<f64> = submitted
        .iter()
        .map(|s| (s.replied_ns - s.sent_ns) as f64 / 1e6)
        .collect();
    let execute_ms: Vec<f64> = locals.iter().map(|l| l.execute_ms).collect();
    let parse_us: Vec<f64> = locals.iter().map(|l| l.parse_us).collect();
    let unexplained: Vec<f64> = done
        .iter()
        .zip(&locals)
        .zip(&latency)
        .map(|((f, l), lat)| lat - submit_ms[f.k] - l.execute_ms)
        .collect();
    let unexplained_p50 = median(&unexplained);
    out.layer("ops.requests.post_jobs", submitted.len() as f64);
    out.layer("ops.requests.get_job", reads.polls as f64);
    out.layer("ops.requests.healthz", healthz.len() as f64);
    out.layer("ops.requests.metrics", reads.metrics.len() as f64);
    out.layer(
        "ops.polls_per_job",
        finished.iter().map(|f| f.polls as f64).sum::<f64>() / finished.len().max(1) as f64,
    );
    out.layer("ops.healthz_ms_p50", median(healthz));
    out.layer(
        "ops.metrics_ms_p50",
        median(&reads.metrics.iter().map(|(ms, _)| *ms).collect::<Vec<_>>()),
    );
    out.layer(
        "ops.metrics_bytes",
        reads.metrics.last().map_or(0.0, |(_, b)| *b as f64),
    );
    out.layer("jobs.submit_ms_p50", median(&submit_ms));
    out.layer("jobs.submit_ms_p95", percentile(&submit_ms, 0.95)?);
    out.layer("jobs.parse_us_p50", median(&parse_us));
    out.layer("jobs.execute_ms_p50", median(&execute_ms));
    out.layer("jobs.execute_ms_p95", percentile(&execute_ms, 0.95)?);
    out.layer("jobs.unexplained_ms_p50", unexplained_p50);
    out.layer("jobs.replay_ms", median(&replay_ms));
    out.layer(
        "jobs.journal_bytes_per_job",
        journal_growth as f64 / submitted.len().max(1) as f64,
    );
    out.layer("jobs.queued_max", reads.queued_max);
    out.layer("loadgen.late_ms_p95", percentile(&late, 0.95)?);
    out.layer(
        "loadgen.late_ms_max",
        late.iter().copied().fold(0.0, f64::max),
    );
    out.layer(
        "trace.overhead_frac",
        tracer.cost_ns() as f64 / load_wall.as_nanos() as f64,
    );
    out.zero_unreached_layers();
    out.residuals = vec![("jobs", unexplained_p50)];
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_puts_one_request_in_each_slot() {
        let period = Duration::from_millis(50);
        let at = jittered_schedule(3, 400, period);
        assert_eq!(at, jittered_schedule(3, 400, period));
        assert_ne!(at, jittered_schedule(4, 400, period));
        for (k, d) in at.iter().enumerate() {
            assert!(
                *d >= period * k as u32 && *d < period * (k as u32 + 1),
                "{k}: {d:?}"
            );
        }
    }

    #[test]
    fn mix_is_seeded_and_balanced() {
        let a = load_mix(7, 400);
        assert_eq!(a, load_mix(7, 400));
        assert_ne!(a, load_mix(8, 400));
        let count = |jobs: &[String], pat: &str| jobs.iter().filter(|b| b.contains(pat)).count();
        for block in a.chunks(16) {
            assert_eq!(count(block, "\"instances\":4"), 4);
            for p in PROBLEMS {
                assert_eq!(
                    count(block, &format!("\"problem\":\"{p}\",\"instances\":1")),
                    3
                );
            }
            for m in METHODS {
                assert_eq!(count(block, &format!("\"method\":\"{m}\"")), 3);
            }
        }
        for body in a.iter().chain(&prefill_mix(7)) {
            JobSpec::parse(body).unwrap_or_else(|e| panic!("{body}: {e}"));
        }
    }
}
