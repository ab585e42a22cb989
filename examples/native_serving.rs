//! Native serving in a dozen lines: the paper's three PHP-study
//! allocators on real OS threads.
//!
//! Each run stands up a pool of worker threads (one private heap per
//! worker — the paper's process-per-worker model), pushes phpBB
//! transactions through a bounded ingress queue with a closed-loop client
//! population, and prints wall-clock throughput and service-latency
//! quantiles.
//!
//! ```text
//! cargo run --release --example native_serving -- [--obs-interval 10ms] [--obs-out OBS.jsonl]
//! ```
//!
//! With `--obs-interval`, each run attaches the live telemetry sampler
//! (the interval must be nonzero) and prints its final dashboard: queue
//! depth, sliding-window latency quantiles derived from the workers'
//! histograms, and per-worker heap occupancy. `--obs-out` streams every
//! sample as JSONL while the server is live (one file per allocator,
//! suffixed with the allocator id).

use std::time::Duration;
use webmm::alloc::AllocatorKind;
use webmm::server::{
    drive_closed, render_dashboard, AdmissionPolicy, ObsConfig, Server, ServerConfig, TxFactory,
};
use webmm::workload::phpbb;

/// Parses `10ms`, `1s`, `250us` (bare numbers: milliseconds); zero is
/// refused, since the sampler would never sleep.
fn parse_duration(v: &str) -> Option<Duration> {
    let (digits, unit) = v.split_at(v.find(|c: char| !c.is_ascii_digit()).unwrap_or(v.len()));
    let n: u64 = digits.parse().ok()?;
    let d = match unit {
        "us" => Duration::from_micros(n),
        "ms" | "" => Duration::from_millis(n),
        "s" => Duration::from_secs(n),
        _ => return None,
    };
    (!d.is_zero()).then_some(d)
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: native_serving [--obs-interval DUR] [--obs-out FILE]   (DUR like 10ms, 1s; not 0)"
    );
    std::process::exit(2);
}

fn main() {
    let mut obs_interval: Option<Duration> = None;
    let mut obs_out: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("missing value for {flag}")))
        };
        match flag.as_str() {
            "--obs-interval" => {
                let v = value();
                obs_interval = Some(
                    parse_duration(&v)
                        .unwrap_or_else(|| usage(&format!("bad --obs-interval `{v}`"))),
                );
            }
            "--obs-out" => obs_out = Some(value()),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if obs_out.is_some() && obs_interval.is_none() {
        obs_interval = Some(ObsConfig::default().interval);
    }

    let workers = 4;
    let total_tx = 200;
    println!("native serving: phpBB, {workers} workers, {total_tx} transactions\n");
    println!(
        "{:<40} {:>10} {:>10} {:>10} {:>10}",
        "allocator", "tx/s", "p50 us", "p99 us", "shed"
    );
    for kind in AllocatorKind::PHP_STUDY {
        let obs = obs_interval.map(|interval| ObsConfig {
            interval,
            // One JSONL stream per allocator: OBS.jsonl -> OBS.ddmalloc.jsonl.
            out: obs_out.as_ref().map(|base| {
                let path = std::path::Path::new(base);
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("OBS");
                let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("jsonl");
                path.with_file_name(format!("{stem}.{}.{ext}", kind.id()))
            }),
            run: format!("{}-w{workers}", kind.id()),
            ..ObsConfig::default()
        });
        let server = Server::start(ServerConfig {
            kind,
            workers,
            queue_capacity: 32,
            policy: AdmissionPolicy::Block,
            static_bytes: 2 << 20,
            obs,
            ..ServerConfig::default()
        });
        let factory = TxFactory::new(phpbb(), 1024, 42);
        drive_closed(&server, factory, total_tx, workers * 2);
        let (report, samples) = server.finish_with_obs();
        assert_eq!(report.completed + report.shed, report.submitted);
        println!(
            "{:<40} {:>10.1} {:>10.1} {:>10.1} {:>10}",
            report.allocator,
            report.tx_per_sec,
            report.latency.p50_ns as f64 / 1e3,
            report.latency.p99_ns as f64 / 1e3,
            report.shed,
        );
        if let Some(last) = samples.last() {
            print!("{}", render_dashboard(last));
        }
    }
    println!("\nevery transaction was completed or accounted for by the shed policy;");
    println!("freeAll returned each worker heap to empty at every transaction end.");
}
