//! Native shootout: the paper's allocators on real threads.
//!
//! Sweeps worker count × allocator family through the `webmm-server`
//! native serving harness — actual OS threads, one heap per worker, a
//! bounded sharded ingress queue — and reports wall-clock throughput and
//! admission-to-completion latency quantiles. The companion to the
//! simulated Figure 5 sweep: where `fig5` predicts scaling from the bus
//! model, this measures the allocators' real single-thread costs and
//! scheduling behaviour on the host.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p webmm-bench --bin native_shootout -- \
//!     --workers 1,2,4 --tx 10000 [--scale 1024] [--seed 42] \
//!     [--policy block|reject|shed-oldest] [--capacity 128] \
//!     [--batch 32] \
//!     [--out BENCH_native.json] \
//!     [--obs-interval 10ms] [--obs-out OBS_native.jsonl]
//! ```
//!
//! The ops are regenerated from `(scale, seed)`, so `net_shootout` with
//! the same `--scale`, `--seed` and `--tx` ships exactly these
//! transactions over TCP: the in-process half of a network-vs-in-process
//! A/B on identical operations.
//!
//! Writes every cell of the sweep to `BENCH_native.json` (allocator,
//! workers, tx_per_sec, steal counters, the host's available
//! parallelism, latency summary). With `--obs-interval`, every cell runs
//! with live telemetry attached: a sampler snapshots queue depth,
//! sliding-window latency quantiles (derived from the workers' own
//! histograms) and per-worker heap occupancy at that interval (nonzero;
//! `0` exits 2 with usage), the last sample of each cell is rendered as a
//! dashboard, and `--obs-out` collects the full time series of all cells
//! into one JSONL file (the `run` field names the cell, e.g.
//! `ddmalloc-w4`).

use std::time::Duration;
use webmm_alloc::AllocatorKind;
use webmm_profiler::report::{heading, table};
use webmm_server::{
    drive_closed, render_dashboard, AdmissionPolicy, LatencySummary, ObsConfig, Server,
    ServerConfig, TxFactory,
};
use webmm_workload::phpbb;

/// One cell of the sweep, as serialized into `BENCH_native.json`. The
/// latency block is the same [`LatencySummary`] the live telemetry
/// samples embed, so offline and live JSON share one schema.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct NativeBenchEntry {
    allocator: String,
    workers: u64,
    tx_per_sec: f64,
    latency: LatencySummary,
    completed: u64,
    shed: u64,
    /// Transactions served by a worker other than the one whose shard
    /// admitted them.
    steals: u64,
    /// `steals / completed` — how much of the throughput came through
    /// the stealing path.
    steal_rate: f64,
    /// Times a worker found no work and waited on its shard, summed over
    /// workers.
    parks: u64,
    /// `std::thread::available_parallelism()` on the machine that
    /// produced this entry: scaling curves are only meaningful relative
    /// to the hardware concurrency that was actually available.
    parallelism: u64,
}

struct Args {
    workers: Vec<usize>,
    tx: u64,
    scale: u32,
    seed: u64,
    policy: AdmissionPolicy,
    capacity: usize,
    batch: usize,
    out: String,
    obs_interval: Option<Duration>,
    obs_out: Option<String>,
}

/// Parses `10ms`, `1s`, `250us`, `5000ns` (bare numbers: milliseconds).
/// A zero duration is refused: the sampler would never sleep.
fn parse_duration(v: &str) -> Option<Duration> {
    let (digits, unit) = v.split_at(v.find(|c: char| !c.is_ascii_digit()).unwrap_or(v.len()));
    let n: u64 = digits.parse().ok()?;
    let d = match unit {
        "ns" => Duration::from_nanos(n),
        "us" => Duration::from_micros(n),
        "ms" | "" => Duration::from_millis(n),
        "s" => Duration::from_secs(n),
        _ => return None,
    };
    (!d.is_zero()).then_some(d)
}

/// Parses `1,2,4,8` (or a single count) into the worker sweep.
fn parse_workers(v: &str) -> Option<Vec<usize>> {
    let points: Vec<usize> = v
        .split(',')
        .map(|p| p.trim().parse().ok())
        .collect::<Option<_>>()?;
    if points.is_empty() || points.contains(&0) {
        return None;
    }
    Some(points)
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: native_shootout [--workers N,N,..] [--tx N] [--scale N] [--seed N] \
         [--policy block|reject|shed-oldest] [--capacity N] \
         [--batch N] [--out FILE] \
         [--obs-interval DUR] [--obs-out FILE]   (DUR like 10ms, 1s; not 0)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: vec![1, 2, 4],
        tx: 10_000,
        scale: 1024,
        seed: 42,
        policy: AdmissionPolicy::Block,
        capacity: 128,
        batch: 32,
        out: "BENCH_native.json".to_string(),
        obs_interval: None,
        obs_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("missing value for {flag}")))
        };
        match flag.as_str() {
            "--workers" => {
                let v = value();
                args.workers = parse_workers(&v).unwrap_or_else(|| {
                    usage(&format!(
                        "bad --workers `{v}` (comma list of counts, e.g. 1,2,4)"
                    ))
                });
            }
            "--tx" => args.tx = value().parse().expect("--tx takes a count"),
            "--scale" => args.scale = value().parse().expect("--scale takes a divisor"),
            "--seed" => args.seed = value().parse().expect("--seed takes a u64"),
            "--capacity" => args.capacity = value().parse().expect("--capacity takes a count"),
            "--batch" => args.batch = value().parse().expect("--batch takes a count"),
            "--policy" => {
                let v = value();
                args.policy = AdmissionPolicy::from_id(&v).unwrap_or_else(|| {
                    usage(&format!("unknown policy `{v}` (block|reject|shed-oldest)"))
                });
            }
            "--out" => args.out = value(),
            "--obs-interval" => {
                let v = value();
                args.obs_interval = Some(
                    parse_duration(&v)
                        .unwrap_or_else(|| usage(&format!("bad --obs-interval `{v}`"))),
                );
            }
            "--obs-out" => args.obs_out = Some(value()),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    // --obs-out alone implies observation at the default interval.
    if args.obs_out.is_some() && args.obs_interval.is_none() {
        args.obs_interval = Some(ObsConfig::default().interval);
    }
    args
}

fn main() {
    let args = parse_args();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    print!(
        "{}",
        heading(&format!(
            "Native shootout: phpBB, scale 1/{}, seed {}, {} tx/cell, policy {}, \
             host parallelism {}",
            args.scale,
            args.seed,
            args.tx,
            args.policy.id(),
            parallelism,
        ))
    );

    let mut rows = vec![vec![
        "allocator".to_string(),
        "workers".to_string(),
        "tx/s".to_string(),
        "p50 us".to_string(),
        "p95 us".to_string(),
        "p99 us".to_string(),
        "shed".to_string(),
        "steal %".to_string(),
    ]];
    let mut entries = Vec::new();
    let mut obs_lines: Vec<String> = Vec::new();
    for kind in AllocatorKind::PHP_STUDY {
        for &workers in &args.workers {
            let obs = args.obs_interval.map(|interval| ObsConfig {
                interval,
                run: format!("{}-w{workers}", kind.id()),
                ..ObsConfig::default()
            });
            let server = Server::start(ServerConfig {
                kind,
                workers,
                queue_capacity: args.capacity,
                policy: args.policy,
                batch: args.batch,
                static_bytes: 2 << 20,
                obs,
            });
            let factory = TxFactory::new(phpbb(), args.scale, args.seed);
            let clients = (workers * 2).max(2);
            drive_closed(&server, factory, args.tx, clients);
            let (report, samples) = server.finish_with_obs();
            assert_eq!(
                report.completed + report.shed,
                report.submitted,
                "accounting identity broken for {kind} @ {workers} workers",
            );
            if let Some(last) = samples.last() {
                print!("{}", render_dashboard(last));
            }
            for sample in &samples {
                obs_lines.push(serde_json::to_string(sample).expect("sample serializes"));
            }
            let steal_rate = if report.completed > 0 {
                report.steals as f64 / report.completed as f64
            } else {
                0.0
            };
            rows.push(vec![
                report.allocator.clone(),
                format!("{workers}"),
                format!("{:10.1}", report.tx_per_sec),
                format!("{:8.1}", report.latency.p50_ns as f64 / 1e3),
                format!("{:8.1}", report.latency.p95_ns as f64 / 1e3),
                format!("{:8.1}", report.latency.p99_ns as f64 / 1e3),
                format!("{}", report.shed),
                format!("{:5.1}", steal_rate * 100.0),
            ]);
            entries.push(NativeBenchEntry {
                allocator: report.allocator.clone(),
                workers: report.workers,
                tx_per_sec: report.tx_per_sec,
                latency: report.latency,
                completed: report.completed,
                shed: report.shed,
                steals: report.steals,
                steal_rate,
                parks: report.per_worker.iter().map(|w| w.parks).sum(),
                parallelism,
            });
        }
    }
    print!("{}", table(&rows));

    let json = serde_json::to_string_pretty(&entries).expect("entries serialize");
    std::fs::write(&args.out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("\nwrote {} cells to {}", entries.len(), args.out);
    if let Some(obs_out) = &args.obs_out {
        let mut body = obs_lines.join("\n");
        body.push('\n');
        std::fs::write(obs_out, body).unwrap_or_else(|e| {
            eprintln!("cannot write {obs_out}: {e}");
            std::process::exit(1);
        });
        println!("wrote {} telemetry samples to {obs_out}", obs_lines.len());
    }
    println!("note: native numbers measure real host execution; see README");
    println!("\"Simulated vs native measurement\" for how they relate to fig5.");
}
