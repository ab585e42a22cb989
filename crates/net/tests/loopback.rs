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

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use webmm_net::{
    encode, run_client, ClientWorkload, Decoder, Frame, LoadMode, NetClientConfig, NetReport,
    NetServer, NetServerConfig, Status, TxBody,
};
use webmm_server::{AdmissionPolicy, ObsConfig, ObsSample, Server, ServerConfig};
use webmm_workload::{phpbb, WorkOp};

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
fn sizes_that_wrap_the_byte_sum_are_refused_not_executed() {
    let server = Server::start(ServerConfig {
        workers: 1,
        static_bytes: 1 << 16,
        ..ServerConfig::default()
    });
    let tier =
        NetServer::bind(server, "127.0.0.1:0", NetServerConfig::default()).expect("bind loopback");
    // A well-formed frame whose two mallocs sum to 2^64: a wrapping sum
    // reads 0 bytes, passes the size cap and hands the worker a request
    // it cannot serve.
    let mut wire = Vec::new();
    encode(
        &Frame::Submit {
            request_id: 1,
            affinity: None,
            body: TxBody::Ops(vec![
                WorkOp::Malloc {
                    id: 1,
                    size: 1 << 63,
                },
                WorkOp::Malloc {
                    id: 2,
                    size: 1 << 63,
                },
                WorkOp::EndTx,
            ]),
        },
        &mut wire,
    );
    let mut stream = TcpStream::connect(tier.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(&wire).expect("send the frame");
    let (mut rbuf, mut chunk) = (Vec::new(), [0u8; 64]);
    let reply = loop {
        if let Some((frame, _)) = Decoder::new().decode(&rbuf).expect("well-formed reply") {
            break frame;
        }
        let n = stream.read(&mut chunk).expect("read the reply");
        assert!(n > 0, "server closed before replying");
        rbuf.extend_from_slice(&chunk[..n]);
    };
    assert_eq!(
        reply,
        Frame::Status {
            request_id: 1,
            status: Status::TooLarge
        }
    );
    wire.clear();
    encode(&Frame::Goodbye, &mut wire);
    stream.write_all(&wire).expect("send goodbye");
    let report = tier.finish();
    assert_eq!(report.oversized, 1);
    assert_eq!(report.server.submitted, 0, "nothing may reach the queue");
    assert!(report.reconciles(), "tier must reconcile: {report:?}");
}

fn start_observed_tier() -> NetServer {
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

#[test]
fn front_end_counters_flow_into_telemetry_samples() {
    let tier = start_observed_tier();
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
    let last = samples.last().expect("at least the closing sample");
    let fe = last.front_end.expect("a bound front-end is sampled");
    // The closing sample is taken after every front-end thread joined,
    // from the blocks the report was summed from: the two must agree on
    // every field.
    assert_eq!(fe.net, report.net);
    assert_eq!(fe.requests, report.requests);
    assert_eq!(fe.pings, report.pings);
    assert_eq!(fe.accepted, report.accepted);
    assert_eq!(fe.shed_accepted, report.shed_accepted);
    assert_eq!(fe.rejected, report.rejected);
    assert_eq!(fe.draining, report.draining);
    assert_eq!(fe.oversized, report.oversized);
    assert_eq!(fe.conns_open, 0, "every connection is closed after drain");
    assert_eq!(last.completed, report.server.completed);
    // The exported JSONL line carries the same counters.
    let line = serde_json::to_string(last).expect("sample serializes");
    let parsed: ObsSample = serde_json::from_str(&line).expect("sample parses");
    assert_eq!(parsed.front_end, Some(fe));
}

#[test]
fn malformed_frame_is_counted_once_in_report_and_samples() {
    let tier = start_observed_tier();
    let mut stream = TcpStream::connect(tier.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // A one-byte body whose frame tag no protocol version defines.
    stream
        .write_all(&[1, 0, 0, 0, 0x7f])
        .expect("send the frame");
    // The handler answers a protocol error by dropping the connection;
    // wait for its EOF before draining, so drain cannot close it first.
    let mut byte = [0u8; 1];
    let eof = stream.read(&mut byte).ok();
    assert_eq!(
        eof,
        Some(0),
        "the server must drop the connection unanswered"
    );
    let (report, samples) = tier.finish_with_obs();
    assert!(report.reconciles(), "tier must reconcile: {report:?}");
    assert_eq!(report.net.conns_accepted, 1);
    assert_eq!(report.net.protocol_errors, 1);
    assert_eq!(report.net.conns_dropped, 1);
    assert_eq!(report.net.conns_closed, 0);
    assert_eq!(report.requests, 0);
    let fe = samples
        .last()
        .and_then(|s| s.front_end)
        .expect("a bound front-end is sampled");
    assert_eq!(fe.net.protocol_errors, 1);
    assert_eq!(fe.net.conns_dropped, 1);
    assert_eq!(fe.net, report.net);
}
