//! End-to-end loopback accounting.
//!
//! Every test binds `127.0.0.1:0` (the exported bound address makes
//! parallel tests collision-free), drives a real client through real
//! sockets, and then reconciles three sets of books that were kept
//! independently: what the client observed, what the network tier
//! answered, and what the ingress queue admitted. The core identity —
//! `submitted == completed + shed` — must survive the network boundary
//! exactly, for every admission policy:
//!
//! * every response status the tier issued matches a queue admission
//!   outcome one-for-one ([`NetReport::reconciles`]);
//! * on a clean run (no timeouts, no drops) the client's per-status
//!   counts equal the server's — nothing is lost or invented between
//!   the socket and the report.

use std::time::Duration;
use webmm_net::{
    run_client, ClientWorkload, LoadMode, NetClientConfig, NetReport, NetServer, NetServerConfig,
};
use webmm_server::{AdmissionPolicy, ObsConfig, Server, ServerConfig};
use webmm_workload::phpbb;

fn start_tier(policy: AdmissionPolicy, capacity: usize) -> NetServer {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: capacity,
        policy,
        batch: 4,
        static_bytes: 1 << 16,
        ..ServerConfig::default()
    });
    NetServer::bind(
        server,
        "127.0.0.1:0",
        NetServerConfig {
            handlers: 2,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback")
}

/// Clean-run reconciliation: client books == tier books == queue books.
fn assert_clean_run(client: &webmm_net::ClientReport, tier: &NetReport, requests: u64) {
    assert_eq!(client.sent, requests, "every request must be written");
    assert_eq!(client.responses, requests, "every request must be answered");
    assert_eq!(client.timeouts, 0);
    assert_eq!(client.disconnects, 0);
    assert_eq!(client.net.protocol_errors, 0);
    assert_eq!(tier.net.protocol_errors, 0);

    // Tier-vs-queue: the wire statuses are the admission outcomes.
    assert!(tier.reconciles(), "tier must reconcile: {tier:?}");
    assert_eq!(tier.requests, requests);

    // Client-vs-tier: nothing lost or invented on the wire.
    assert_eq!(client.accepted, tier.accepted);
    assert_eq!(client.shed_accepted, tier.shed_accepted);
    assert_eq!(client.rejected, tier.rejected);
    assert_eq!(client.draining, tier.draining);
    assert_eq!(client.too_large, tier.oversized);

    // Client-vs-queue, end to end: what the client saw admitted is
    // exactly what the workers completed plus what shedding displaced.
    assert_eq!(
        client.accepted + client.shed_accepted + client.rejected,
        tier.server.submitted
    );
    assert_eq!(tier.server.shed, client.rejected + client.shed_accepted);
    assert_eq!(tier.server.completed, client.accepted);
}

#[test]
fn closed_loop_reconciles_under_block_policy() {
    let tier = start_tier(AdmissionPolicy::Block, 8);
    let requests = 60;
    let client = run_client(
        tier.local_addr(),
        &ClientWorkload::Count { ops: 16, size: 128 },
        &NetClientConfig {
            connections: 2,
            requests,
            ..NetClientConfig::default()
        },
    );
    let report = tier.finish();
    assert_clean_run(&client, &report, requests);
    // Block never refuses: everything is accepted and completed.
    assert_eq!(client.accepted, requests);
    assert_eq!(report.server.completed, requests);
    assert!(client.latency.count >= requests);
}

#[test]
fn stream_workload_reconciles_and_executes_real_ops() {
    let tier = start_tier(AdmissionPolicy::Block, 16);
    let requests = 24;
    let client = run_client(
        tier.local_addr(),
        &ClientWorkload::Stream {
            spec: phpbb(),
            scale: 1024,
            seed: 11,
        },
        &NetClientConfig {
            connections: 2,
            requests,
            affinity: true,
            ..NetClientConfig::default()
        },
    );
    let report = tier.finish();
    assert_clean_run(&client, &report, requests);
    assert_eq!(report.server.completed, requests);
    // Real phpbb transactions moved real bytes, not just frame headers.
    assert!(client.net.bytes_out > requests * 100);
    // Every response the server flushed was read (the client waits for
    // each one), so the response direction balances exactly.
    assert_eq!(client.net.bytes_in, report.net.bytes_out);
    // The request direction balances up to the trailing Goodbye frames,
    // which drain may cut off before the handler reads them.
    let goodbye_bytes = 2 * 5; // 2 connections × (4-byte header + tag)
    assert!(report.net.bytes_in >= client.net.bytes_out - goodbye_bytes);
    assert!(report.net.bytes_in <= client.net.bytes_out);
}

#[test]
fn open_loop_overload_reconciles_under_reject_and_shed() {
    for policy in [AdmissionPolicy::Reject, AdmissionPolicy::ShedOldest] {
        let tier = start_tier(policy, 4);
        let requests = 200;
        let client = run_client(
            tier.local_addr(),
            &ClientWorkload::Count {
                ops: 64,
                size: 4096,
            },
            &NetClientConfig {
                connections: 2,
                requests,
                mode: LoadMode::Open {
                    rate_tx_per_sec: 50_000.0,
                },
                ..NetClientConfig::default()
            },
        );
        let report = tier.finish();
        assert_clean_run(&client, &report, requests);
        match policy {
            AdmissionPolicy::Reject => assert_eq!(client.shed_accepted, 0),
            AdmissionPolicy::ShedOldest => assert_eq!(client.rejected, 0),
            AdmissionPolicy::Block => unreachable!(),
        }
    }
}

#[test]
fn oversized_transactions_are_refused_not_executed() {
    let server = Server::start(ServerConfig {
        workers: 1,
        static_bytes: 1 << 16,
        ..ServerConfig::default()
    });
    let tier = NetServer::bind(
        server,
        "127.0.0.1:0",
        NetServerConfig {
            handlers: 1,
            max_tx_bytes: 1 << 20,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    // Each transaction asks for 256 MiB — far over the 1 MiB cap; a
    // worker heap would abort on this, so the front door must refuse it.
    let client = run_client(
        tier.local_addr(),
        &ClientWorkload::Count {
            ops: 64,
            size: 4 << 20,
        },
        &NetClientConfig {
            connections: 1,
            requests: 5,
            ..NetClientConfig::default()
        },
    );
    let report = tier.finish();
    assert_eq!(client.too_large, 5);
    assert_eq!(report.oversized, 5);
    assert_eq!(report.server.submitted, 0, "nothing may reach the queue");
    assert!(report.reconciles());
}

#[test]
fn net_metrics_flow_into_telemetry_samples() {
    let server = Server::start(ServerConfig {
        workers: 2,
        static_bytes: 1 << 16,
        obs: Some(ObsConfig {
            interval: Duration::from_millis(1),
            run: "net-loopback".into(),
            ..ObsConfig::default()
        }),
        ..ServerConfig::default()
    });
    let tier = NetServer::bind(
        server,
        "127.0.0.1:0",
        NetServerConfig {
            handlers: 2,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    let requests = 40;
    let client = run_client(
        tier.local_addr(),
        &ClientWorkload::Count { ops: 16, size: 128 },
        &NetClientConfig {
            connections: 2,
            requests,
            ..NetClientConfig::default()
        },
    );
    let (report, samples) = tier.finish_with_obs();
    assert_clean_run(&client, &report, requests);
    assert!(!samples.is_empty());
    let last = samples.last().expect("at least one sample");
    let metric = |name: &str| {
        last.counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing from samples"))
            .value
    };
    // The final sample is taken at drain, after all traffic: cumulative
    // counters must agree exactly with the tier's report.
    assert_eq!(metric("net_requests"), report.requests);
    assert_eq!(metric("net_conns_accepted"), report.net.conns_accepted);
    assert_eq!(metric("net_bytes_in"), report.net.bytes_in);
    assert_eq!(metric("net_bytes_out"), report.net.bytes_out);
    assert_eq!(metric("net_protocol_errors"), 0);
}
