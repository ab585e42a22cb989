//! Network serving in a dozen lines: the paper's three PHP-study
//! allocators behind a real TCP tier on loopback.
//!
//! For each allocator this stands up the native worker pool, wraps it in
//! the `webmm-net` front-end on `127.0.0.1:0`, and drives it with the
//! network load generator over persistent connections carrying real
//! phpBB op streams. It prints client-observed throughput and latency
//! next to the server-observed numbers — the gap between the two columns
//! *is* the serving tier (framing, syscalls, handler hand-off) — and
//! reconciles the books across the wire: every response status must
//! match a queue admission outcome one-for-one.
//!
//! ```text
//! cargo run --release --example net_serving -- [--open RATE_TX_PER_SEC]
//! ```
//!
//! With `--open`, arrivals follow a fixed schedule regardless of
//! completions (the web-facing model) and the server sheds its oldest
//! queued transactions under overload; watch the `shed` column fill in
//! while the accounting still balances.

use webmm::alloc::AllocatorKind;
use webmm::net::{
    run_client, ClientWorkload, LoadMode, NetClientConfig, NetServer, NetServerConfig,
};
use webmm::server::{AdmissionPolicy, Server, ServerConfig};
use webmm::workload::phpbb;

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("usage: net_serving [--open RATE_TX_PER_SEC]   (RATE > 0)");
    std::process::exit(2);
}

fn main() {
    let mut rate: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--open" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--open takes a tx/sec rate"));
                let parsed = v.parse().ok().filter(|r: &f64| *r > 0.0);
                rate = Some(parsed.unwrap_or_else(|| usage(&format!("bad --open `{v}`"))));
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    let workers = 4;
    let conns = 4;
    let total_tx = 200;
    let mode = match rate {
        Some(r) => format!("open loop @ {r} tx/s, shed-oldest"),
        None => "closed loop, blocking admission".to_string(),
    };
    println!("network serving: phpBB over loopback TCP, {workers} workers, {conns} connections, {total_tx} tx, {mode}\n");
    println!(
        "{:<40} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "allocator", "tx/s", "client p99us", "server p99us", "shed", "KiB"
    );
    for kind in AllocatorKind::PHP_STUDY {
        let server = Server::start(ServerConfig {
            kind,
            workers,
            queue_capacity: 32,
            policy: match rate {
                Some(_) => AdmissionPolicy::ShedOldest,
                None => AdmissionPolicy::Block,
            },
            static_bytes: 2 << 20,
            ..ServerConfig::default()
        });
        let tier = NetServer::bind(
            server,
            "127.0.0.1:0",
            NetServerConfig {
                handlers: conns, // one handler per persistent connection
                ..NetServerConfig::default()
            },
        )
        .expect("bind loopback");
        let started = std::time::Instant::now();
        let client = run_client(
            tier.local_addr(),
            &ClientWorkload::Stream {
                spec: phpbb(),
                scale: 1024,
                seed: 42,
            },
            &NetClientConfig {
                connections: conns,
                requests: total_tx,
                mode: match rate {
                    Some(rate_tx_per_sec) => LoadMode::Open { rate_tx_per_sec },
                    None => LoadMode::Closed,
                },
                affinity: true,
                ..NetClientConfig::default()
            },
        );
        let elapsed = started.elapsed();
        let report = tier.finish();
        // The books balance across the wire: wire statuses ↔ admissions.
        assert!(report.reconciles());
        assert_eq!(report.server.completed, client.accepted);
        println!(
            "{:<40} {:>10.1} {:>12.1} {:>12.1} {:>10} {:>8}",
            report.server.allocator,
            client.responses as f64 / elapsed.as_secs_f64(),
            client.latency.p99_ns as f64 / 1e3,
            report.server.latency.p99_ns as f64 / 1e3,
            report.server.shed,
            (report.net.bytes_in + report.net.bytes_out) >> 10,
        );
    }
    println!("\nevery wire status matched a queue admission outcome one-for-one;");
    println!("submitted == completed + shed held end-to-end through the socket.");
}
