//! Network shootout: the paper's allocators behind a real TCP tier.
//!
//! The same allocator sweep as `native_shootout`, but with
//! an actual network in the loop: a `webmm-net` TCP front-end serves
//! each cell over loopback while the `webmm-net` client drives it from
//! persistent connections, shipping real phpBB op streams through the
//! wire protocol. Comparing a cell here against its `native_shootout`
//! twin isolates the cost of the serving tier itself — framing,
//! syscalls, handler hand-off — from the memory-management behaviour
//! behind the queue, which is identical in both.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p webmm-bench --bin net_shootout -- \
//!     [--workers 4] [--conns 4] [--tx 5000] [--scale 1024] [--seed 42] \
//!     [--policy block|reject|shed-oldest] [--capacity 128] \
//!     [--rate TX_PER_SEC] \
//!     [--out BENCH_net.json]
//! ```
//!
//! Every cell asserts the cross-tier accounting identity (every wire
//! status reconciles with a queue admission outcome, and
//! `submitted == completed + shed` behind it). With `--rate` the client
//! runs open-loop at that aggregate arrival rate; default is closed
//! loop. All connections draw from one deterministic generator, so
//! regenerating with the same `(spec, scale, seed)` is byte-identical to
//! what crossed the wire: `native_shootout` with the same `--scale`,
//! `--seed` and `--tx` replays it through the in-process harness for an
//! apples-to-apples comparison.

use std::time::Instant;
use webmm_alloc::AllocatorKind;
use webmm_net::{
    run_client, ClientWorkload, LoadMode, NetClientConfig, NetServer, NetServerConfig,
};
use webmm_profiler::report::{heading, table};
use webmm_server::{AdmissionPolicy, LatencySummary, Server, ServerConfig};
use webmm_workload::phpbb;

/// One cell of the sweep, as serialized into `BENCH_net.json`.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct NetBenchEntry {
    allocator: String,
    workers: u64,
    /// Client connections (= server handler threads).
    connections: u64,
    /// Client-observed throughput: responses over client wall-clock.
    tx_per_sec: f64,
    /// Client-observed request→response latency (includes the wire).
    latency: LatencySummary,
    /// Server-observed admission-to-completion latency (excludes it).
    server_latency: LatencySummary,
    accepted: u64,
    shed: u64,
    rejected: u64,
    /// Request-direction bytes over loopback for the whole cell.
    bytes_in: u64,
    bytes_out: u64,
    /// Times a worker found no work and waited on its shard, summed over
    /// workers.
    parks: u64,
    parallelism: u64,
}

struct Args {
    workers: usize,
    conns: usize,
    tx: u64,
    scale: u32,
    seed: u64,
    policy: AdmissionPolicy,
    capacity: usize,
    rate: Option<f64>,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: 4,
        conns: 4,
        tx: 5_000,
        scale: 1024,
        seed: 42,
        policy: AdmissionPolicy::Block,
        capacity: 128,
        rate: None,
        out: "BENCH_net.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--workers" => args.workers = value().parse().expect("--workers takes a count"),
            "--conns" => args.conns = value().parse().expect("--conns takes a count"),
            "--tx" => args.tx = value().parse().expect("--tx takes a count"),
            "--scale" => args.scale = value().parse().expect("--scale takes a divisor"),
            "--seed" => args.seed = value().parse().expect("--seed takes a u64"),
            "--capacity" => args.capacity = value().parse().expect("--capacity takes a count"),
            "--rate" => {
                let v = value();
                // NaN fails `> 0.0` too.
                let rate = v.parse().ok().filter(|r: &f64| *r > 0.0);
                args.rate = Some(rate.unwrap_or_else(|| {
                    eprintln!("bad --rate `{v}` (a positive tx/sec)");
                    std::process::exit(2);
                }));
            }
            "--policy" => {
                let v = value();
                args.policy = AdmissionPolicy::from_id(&v).unwrap_or_else(|| {
                    eprintln!("unknown policy `{v}` (block|reject|shed-oldest)");
                    std::process::exit(2);
                });
            }
            "--out" => args.out = value(),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if args.workers == 0 || args.conns == 0 {
        usage("--workers and --conns must be nonzero");
    }
    args
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: net_shootout [--workers N] [--conns N] [--tx N] [--scale N] \
         [--seed N] [--policy block|reject|shed-oldest] [--capacity N] \
         [--rate TX_PER_SEC] [--out FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let mode = match args.rate {
        Some(rate) => format!("open loop @ {rate} tx/s"),
        None => "closed loop".to_string(),
    };
    print!(
        "{}",
        heading(&format!(
            "Network shootout: phpBB over loopback TCP, {} tx/cell, scale 1/{}, \
             {} conns, {mode}, policy {}, host parallelism {}",
            args.tx,
            args.scale,
            args.conns,
            args.policy.id(),
            parallelism,
        ))
    );

    let mut rows = vec![vec![
        "allocator".to_string(),
        "tx/s".to_string(),
        "client p50 us".to_string(),
        "client p99 us".to_string(),
        "server p99 us".to_string(),
        "shed".to_string(),
        "MiB moved".to_string(),
    ]];
    let mut entries = Vec::new();
    for kind in AllocatorKind::PHP_STUDY {
        let server = Server::start(ServerConfig {
            kind,
            workers: args.workers,
            queue_capacity: args.capacity,
            policy: args.policy,
            static_bytes: 2 << 20,
            ..ServerConfig::default()
        });
        let tier = NetServer::bind(
            server,
            "127.0.0.1:0",
            NetServerConfig {
                // One handler per persistent client connection, or
                // whole connections would park in the backlog.
                handlers: args.conns,
                ..NetServerConfig::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot bind loopback: {e}");
            std::process::exit(1);
        });
        let started = Instant::now();
        let client = run_client(
            tier.local_addr(),
            &ClientWorkload::Stream {
                spec: phpbb(),
                scale: args.scale,
                seed: args.seed,
            },
            &NetClientConfig {
                connections: args.conns,
                requests: args.tx,
                mode: match args.rate {
                    Some(rate_tx_per_sec) => LoadMode::Open { rate_tx_per_sec },
                    None => LoadMode::Closed,
                },
                affinity: true,
                ..NetClientConfig::default()
            },
        );
        let elapsed = started.elapsed();
        let report = tier.finish();
        assert!(
            report.reconciles(),
            "accounting identity broken for {kind}: {report:?}"
        );
        assert_eq!(
            client.responses, args.tx,
            "loopback cell must answer every request ({kind})"
        );
        let tx_per_sec = client.responses as f64 / elapsed.as_secs_f64();
        let moved = (report.net.bytes_in + report.net.bytes_out) as f64 / (1 << 20) as f64;
        rows.push(vec![
            report.server.allocator.clone(),
            format!("{tx_per_sec:10.1}"),
            format!("{:8.1}", client.latency.p50_ns as f64 / 1e3),
            format!("{:8.1}", client.latency.p99_ns as f64 / 1e3),
            format!("{:8.1}", report.server.latency.p99_ns as f64 / 1e3),
            format!("{}", report.server.shed),
            format!("{moved:7.1}"),
        ]);
        entries.push(NetBenchEntry {
            allocator: report.server.allocator.clone(),
            workers: report.server.workers,
            connections: args.conns as u64,
            tx_per_sec,
            latency: client.latency,
            server_latency: report.server.latency,
            accepted: client.accepted,
            shed: report.server.shed,
            rejected: client.rejected,
            bytes_in: report.net.bytes_in,
            bytes_out: report.net.bytes_out,
            parks: report.server.per_worker.iter().map(|w| w.parks).sum(),
            parallelism,
        });
    }
    print!("{}", table(&rows));

    let json = serde_json::to_string_pretty(&entries).expect("entries serialize");
    std::fs::write(&args.out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("\nwrote {} cells to {}", entries.len(), args.out);
    println!(
        "compare against the in-process baseline on the same ops: \
         native_shootout --workers {} --scale {} --seed {} --tx {}",
        args.workers, args.scale, args.seed, args.tx
    );
}
