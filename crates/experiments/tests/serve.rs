//! End-to-end tests for the live ops plane, driving the real `repro`
//! binary with `--serve 127.0.0.1:0` and scraping the HTTP endpoints
//! mid-run via the shared `common::http` helpers: `/metrics` serves
//! Prometheus text exposition, `/healthz` answers 200 on a healthy run
//! and flips to 503 once a fault degrades the suite, and `/progress`
//! reports cell counts and — under process isolation — per-worker
//! heartbeat ages. A client that drips its request cannot hold up other
//! requests, and is closed at the server's request deadline.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::Child;
use std::time::{Duration, Instant};

use common::http::{finish, http_get, poll_until, spawn_serving_args};

/// The canonical tiny workload (42 roster cells); delay faults stretch it
/// out so the suite is reliably still running while we scrape.
const WORKLOAD: [&str; 5] = ["--scale", "2000", "--seed", "7", "table4.2b"];

/// Spawns `repro <workload> --serve 127.0.0.1:0 <extra>` and returns the
/// child plus the address the ops server actually bound.
fn spawn_serving(extra: &[&str]) -> (Child, String) {
    let mut args: Vec<&str> = WORKLOAD.to_vec();
    args.extend_from_slice(&["--serve", "127.0.0.1:0"]);
    args.extend_from_slice(extra);
    spawn_serving_args(&args)
}

#[test]
fn serve_exposes_metrics_health_and_progress_mid_run() {
    // delay=1: every instance sleeps 50 ms, so the suite takes well over
    // a minute — it is still running for every scrape below.
    let (child, addr) = spawn_serving(&["--faults", "seed=7,delay=1,delay_ms=50"]);

    // /metrics becomes a non-trivial Prometheus exposition once the first
    // cell completes.
    let (status, metrics) = poll_until(&addr, "/metrics", |s, b| {
        s == 200 && b.contains("suite_cells_done")
    });
    assert_eq!(status, 200);
    assert!(
        metrics.contains("text/plain; version=0.0.4"),
        "wrong content type:\n{metrics}"
    );
    assert!(
        metrics.contains("# TYPE suite_cells_done gauge"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE cells_completed counter"),
        "{metrics}"
    );
    assert!(
        metrics.contains("cells_completed{method="),
        "labeled counter families missing:\n{metrics}"
    );

    // A healthy run answers 200 ok.
    let (status, health) = http_get(&addr, "/healthz");
    assert_eq!(status, 200, "{health}");
    assert!(health.ends_with("ok\n"), "{health}");

    // /progress reports the roster size and live counts as JSON.
    let (status, progress) = http_get(&addr, "/progress");
    assert_eq!(status, 200, "{progress}");
    assert!(progress.contains("\"expected\":42"), "{progress}");
    assert!(progress.contains("\"done\":"), "{progress}");
    assert!(progress.contains("\"degraded\":false"), "{progress}");

    // Unknown paths 404 without taking the server down.
    let (status, _) = http_get(&addr, "/nope");
    assert_eq!(status, 404);
    let (status, _) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);

    // The job API is not enabled under plain `--serve` (that is `repro
    // serve`'s business), and says so.
    let (status, body) = http_get(&addr, "/jobs");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("job API not enabled"), "{body}");

    finish(child);
}

#[test]
fn healthz_flips_to_503_when_faults_degrade_the_suite() {
    // Every instance is delayed then panics: cells fail one after another
    // and the first failure must flip /healthz to 503 degraded.
    let (child, addr) = spawn_serving(&["--faults", "seed=7,panic=1,delay=1,delay_ms=50"]);
    let (status, body) = poll_until(&addr, "/healthz", |s, _| s == 503);
    assert_eq!(status, 503);
    assert!(body.contains("degraded"), "{body}");
    assert!(body.contains("cell(s) failed"), "{body}");
    finish(child);
}

#[test]
fn progress_reports_worker_heartbeats_under_process_isolation() {
    let (child, addr) = spawn_serving(&[
        "--isolation",
        "process",
        "--faults",
        "seed=7,delay=1,delay_ms=50",
    ]);
    // The supervisor publishes per-slot liveness once the first worker is
    // up and heartbeating.
    let (_, progress) = poll_until(&addr, "/progress", |s, b| {
        s == 200 && b.contains("\"state\":\"live\"")
    });
    assert!(progress.contains("\"slot\":0"), "{progress}");
    assert!(progress.contains("\"heartbeat_age_ms\":"), "{progress}");

    // The same liveness shows up as labeled gauges on /metrics.
    let (_, metrics) = poll_until(&addr, "/metrics", |s, b| {
        s == 200 && b.contains("worker_heartbeat_age_ms")
    });
    assert!(
        metrics.contains("worker_heartbeat_age_ms{slot=\"0\"}"),
        "{metrics}"
    );
    assert!(metrics.contains("workers_live"), "{metrics}");
    finish(child);
}

/// Opens a connection to `addr` that sends a request head one header line
/// every 400 ms and never ends it. The returned thread reads until the
/// server closes the connection (or `give_up` passes) and yields how long
/// the connection stayed open and what the server answered.
fn drip(addr: &str, give_up: Duration) -> std::thread::JoinHandle<(Duration, String)> {
    let mut writer = TcpStream::connect(addr).expect("connect");
    let opened = Instant::now();
    std::thread::spawn(move || {
        let mut reader = writer.try_clone().expect("clone");
        let dripper = std::thread::spawn(move || {
            let mut line: &[u8] = b"GET /healthz HTTP/1.1\r\n";
            while opened.elapsed() < give_up && writer.write_all(line).is_ok() {
                line = b"X-Drip: 1\r\n";
                std::thread::sleep(Duration::from_millis(400));
            }
        });
        reader.set_read_timeout(Some(give_up)).ok();
        let mut response = Vec::new();
        let _ = reader.read_to_end(&mut response);
        let open_for = opened.elapsed();
        reader.shutdown(Shutdown::Both).ok();
        dripper.join().expect("dripper exits");
        (open_for, String::from_utf8_lossy(&response).into_owned())
    })
}

#[test]
fn a_dripping_client_neither_stalls_healthz_nor_outlives_the_deadline() {
    let (child, addr) = spawn_serving_args(&["serve", "127.0.0.1:0"]);
    let (status, _) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);

    let dripping = drip(&addr, Duration::from_secs(8));
    let probing = Instant::now();
    let mut probes = 0;
    while probing.elapsed() < Duration::from_millis(1500) {
        let started = Instant::now();
        let (status, response) = http_get(&addr, "/healthz");
        let took = started.elapsed();
        assert_eq!(status, 200, "{response}");
        assert!(
            took < Duration::from_millis(100),
            "/healthz took {took:?} beside a dripping client"
        );
        probes += 1;
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(probes >= 10, "only {probes} probes");

    // The server's request deadline is 2 s from taking the connection.
    let (open_for, response) = dripping.join().expect("drip thread");
    assert!(
        open_for < Duration::from_secs(3),
        "the dripping connection stayed open {open_for:?}"
    );
    assert!(
        response.starts_with("HTTP/1.1 400 Bad Request"),
        "{response}"
    );
    finish(child);
}
