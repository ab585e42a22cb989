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
    encode, run_client, Decoder, Frame, LoadMode, NetClientConfig, NetReport, NetServer,
    NetServerConfig, Status, TxBody,
};
use webmm_server::{AdmissionPolicy, ObsConfig, ObsSample, Server, ServerConfig, TxFactory};
use webmm_workload::{phpbb, WorkOp};

/// phpBB transactions, scaled down so each is a few KB on the wire.
fn phpbb_factory(seed: u64) -> TxFactory {
    TxFactory::new(phpbb(), 1024, seed)
}

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
        phpbb_factory(3),
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
fn affine_phpbb_stream_reconciles_and_balances_bytes() {
    let tier = start_tier(AdmissionPolicy::Block, 16);
    let requests = 24;
    let client = run_client(
        tier.local_addr(),
        phpbb_factory(11),
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
            phpbb_factory(5),
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

/// `run_client` sends a request only after the reply to the previous
/// one, and drawing a phpBB transaction costs it more than executing
/// one costs a worker, so its open loop above does not fill the queue.
/// A burst written back to back does: the handler admits at decode
/// speed, faster than two workers drain a 4-slot queue.
#[test]
fn a_pipelined_burst_overloads_and_reconciles_under_reject_and_shed() {
    let requests = 200;
    let mut factory = phpbb_factory(5);
    let mut wire = Vec::new();
    for request_id in 0..requests {
        encode(
            &Frame::Submit {
                request_id,
                affinity: None,
                body: TxBody::Ops(factory.next_tx().ops),
            },
            &mut wire,
        );
    }
    for policy in [AdmissionPolicy::Reject, AdmissionPolicy::ShedOldest] {
        let tier = start_tier(policy, 4);
        let mut stream = raw_conn(&tier);
        stream.write_all(&wire).expect("send the burst");
        // The client's books, kept from the replies as `run_client` would.
        let mut client = webmm_net::ClientReport {
            sent: requests,
            ..Default::default()
        };
        let mut rbuf = Vec::new();
        for request_id in 0..requests {
            let Frame::Status {
                request_id: id,
                status,
            } = next_frame(&mut stream, &mut rbuf)
            else {
                panic!("a Submit is answered with a Status");
            };
            assert_eq!(id, request_id, "replies come in request order");
            client.responses += 1;
            match status {
                Status::Accepted => client.accepted += 1,
                Status::AcceptedSheddingOldest => client.shed_accepted += 1,
                Status::Rejected => client.rejected += 1,
                Status::Draining | Status::TooLarge => panic!("unexpected {status:?}"),
            }
        }
        say_goodbye(&mut stream);
        let report = tier.finish();
        assert_clean_run(&client, &report, requests);
        assert!(
            report.server.shed > 0,
            "the burst must overload: {report:?}"
        );
        match policy {
            AdmissionPolicy::Reject => assert_eq!(client.shed_accepted, 0),
            AdmissionPolicy::ShedOldest => assert_eq!(client.rejected, 0),
            AdmissionPolicy::Block => unreachable!(),
        }
    }
}

#[test]
fn oversized_transactions_are_refused_not_executed() {
    let requests = 5;
    // The cap sits one byte below the smallest of the transactions the
    // client will send, so every one of them is over it.
    let mut twin = phpbb_factory(13);
    let smallest = (0..requests)
        .map(|_| TxBody::Ops(twin.next_tx().ops).requested_bytes())
        .min()
        .expect("at least one transaction");
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
            max_tx_bytes: smallest - 1,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    let client = run_client(
        tier.local_addr(),
        phpbb_factory(13),
        &NetClientConfig {
            connections: 1,
            requests,
            ..NetClientConfig::default()
        },
    );
    let report = tier.finish();
    assert_eq!(client.too_large, requests);
    assert_eq!(report.oversized, requests);
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
    let mut stream = raw_conn(&tier);
    stream.write_all(&wire).expect("send the frame");
    assert_eq!(
        next_frame(&mut stream, &mut Vec::new()),
        Frame::Status {
            request_id: 1,
            status: Status::TooLarge
        }
    );
    say_goodbye(&mut stream);
    let report = tier.finish();
    assert_eq!(report.oversized, 1);
    assert_eq!(report.server.submitted, 0, "nothing may reach the queue");
    assert!(report.reconciles(), "tier must reconcile: {report:?}");
}

/// Sends `wire` on a fresh connection, expects the tier to drop it
/// unanswered, drains the tier and checks that the frame was counted as
/// one protocol error and nothing reached the queue.
fn assert_dropped_unanswered(wire: &[u8]) {
    let tier = start_one_worker_tier();
    let mut stream = raw_conn(&tier);
    stream.write_all(wire).expect("send the frame");
    let mut byte = [0u8; 1];
    assert_eq!(stream.read(&mut byte).ok(), Some(0), "dropped unanswered");
    let report = tier.finish();
    assert_eq!(report.net.protocol_errors, 1);
    assert_eq!(report.net.conns_dropped, 1);
    assert_eq!(report.requests, 0);
    assert_eq!(report.server.submitted, 0, "nothing may reach the queue");
    assert!(report.reconciles(), "tier must reconcile: {report:?}");
}

#[test]
fn a_zero_byte_malloc_is_refused_at_decode() {
    // No worker heap serves a zero-byte request: admitted, this frame
    // would panic the worker that ran it.
    let mut wire = Vec::new();
    encode(
        &Frame::Submit {
            request_id: 1,
            affinity: None,
            body: TxBody::Ops(vec![WorkOp::Malloc { id: 0, size: 0 }, WorkOp::EndTx]),
        },
        &mut wire,
    );
    assert_eq!(wire.len(), 37);
    assert_dropped_unanswered(&wire);
}

#[test]
fn the_retired_count_body_is_refused() {
    // Body kind 0 once asked the server to expand `ops` mallocs of
    // `size` bytes itself, unchecked against the op cap.
    for (ops, size) in [(1u32 << 20, 1u32), (4, 64)] {
        let mut body = vec![0x01]; // Submit
        body.extend_from_slice(&1u64.to_le_bytes()); // request id
        body.extend_from_slice(&[0, 0]); // no affinity, body kind 0
        body.extend_from_slice(&ops.to_le_bytes());
        body.extend_from_slice(&size.to_le_bytes());
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        assert_eq!(wire.len(), 23);
        assert_dropped_unanswered(&wire);
    }
}

/// A raw client socket to `tier`, bounded so a missing reply fails the
/// test instead of hanging it.
fn raw_conn(tier: &NetServer) -> TcpStream {
    let stream = TcpStream::connect(tier.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Reads the next frame the server sends; `rbuf` carries bytes read
/// past it over to the next call.
fn next_frame(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> Frame {
    let mut chunk = [0u8; 64];
    loop {
        if let Some((frame, used)) = Decoder::new().decode(rbuf).expect("well-formed reply") {
            rbuf.drain(..used);
            return frame;
        }
        let n = stream.read(&mut chunk).expect("read the reply");
        assert!(n > 0, "server closed before replying");
        rbuf.extend_from_slice(&chunk[..n]);
    }
}

fn say_goodbye(stream: &mut TcpStream) {
    let mut wire = Vec::new();
    encode(&Frame::Goodbye, &mut wire);
    stream.write_all(&wire).expect("send goodbye");
}

/// The wire bytes of a `Submit` carrying `mallocs` 64-byte allocations
/// and an `EndTx`, appended to `wire`.
fn submit_mallocs(request_id: u64, mallocs: u64, wire: &mut Vec<u8>) {
    let mut ops: Vec<WorkOp> = (0..mallocs)
        .map(|id| WorkOp::Malloc { id, size: 64 })
        .collect();
    ops.push(WorkOp::EndTx);
    encode(
        &Frame::Submit {
            request_id,
            affinity: None,
            body: TxBody::Ops(ops),
        },
        wire,
    );
}

fn accepted(request_id: u64) -> Frame {
    Frame::Status {
        request_id,
        status: Status::Accepted,
    }
}

fn start_one_worker_tier() -> NetServer {
    let server = Server::start(ServerConfig {
        workers: 1,
        static_bytes: 1 << 16,
        ..ServerConfig::default()
    });
    NetServer::bind(server, "127.0.0.1:0", NetServerConfig::default()).expect("bind loopback")
}

#[test]
fn a_submit_written_one_byte_at_a_time_is_accepted_once() {
    let tier = start_one_worker_tier();
    let mut stream = raw_conn(&tier);
    stream.set_nodelay(true).expect("nodelay");
    let mut wire = Vec::new();
    submit_mallocs(1, 8, &mut wire);
    for byte in &wire {
        stream
            .write_all(std::slice::from_ref(byte))
            .expect("send a byte");
    }
    let mut rbuf = Vec::new();
    assert_eq!(next_frame(&mut stream, &mut rbuf), accepted(1));
    say_goodbye(&mut stream);
    let report = tier.finish();
    assert_eq!(report.net.frames_in, 2, "the Submit and the Goodbye");
    assert_eq!((report.accepted, report.server.completed), (1, 1));
    assert!(report.reconciles(), "tier must reconcile: {report:?}");
}

#[test]
fn three_frames_in_one_write_get_three_statuses_in_order() {
    let tier = start_one_worker_tier();
    let mut stream = raw_conn(&tier);
    let mut wire = Vec::new();
    for id in 1..=3 {
        submit_mallocs(id, 4, &mut wire);
    }
    stream.write_all(&wire).expect("send three frames");
    let mut rbuf = Vec::new();
    for id in 1..=3 {
        assert_eq!(next_frame(&mut stream, &mut rbuf), accepted(id));
    }
    say_goodbye(&mut stream);
    let report = tier.finish();
    assert_eq!((report.accepted, report.server.completed), (3, 3));
    assert!(report.reconciles(), "tier must reconcile: {report:?}");
}

#[test]
fn a_frame_larger_than_the_read_window_is_accepted_and_executed() {
    let tier = start_one_worker_tier();
    let mut stream = raw_conn(&tier);
    let mut wire = Vec::new();
    submit_mallocs(1, 5_000, &mut wire);
    assert!(wire.len() > 80_000, "{} bytes", wire.len());
    stream.write_all(&wire).expect("send the frame");
    assert_eq!(next_frame(&mut stream, &mut Vec::new()), accepted(1));
    say_goodbye(&mut stream);
    let report = tier.finish();
    assert_eq!((report.accepted, report.server.completed), (1, 1));
    assert_eq!(report.net.bytes_in, wire.len() as u64 + 5);
    assert!(report.reconciles(), "tier must reconcile: {report:?}");
}

#[test]
fn a_frame_before_garbage_in_the_same_write_is_answered_before_the_drop() {
    let tier = start_one_worker_tier();
    let mut stream = raw_conn(&tier);
    let mut wire = Vec::new();
    submit_mallocs(1, 4, &mut wire);
    // A one-byte body whose frame tag no protocol version defines.
    wire.extend_from_slice(&[1, 0, 0, 0, 0x7f]);
    stream.write_all(&wire).expect("send frame and garbage");
    let mut rbuf = Vec::new();
    assert_eq!(next_frame(&mut stream, &mut rbuf), accepted(1));
    let mut byte = [0u8; 1];
    assert_eq!(stream.read(&mut byte).ok(), Some(0), "then the drop");
    let report = tier.finish();
    assert_eq!(report.net.protocol_errors, 1);
    assert_eq!(report.net.conns_dropped, 1);
    assert_eq!((report.accepted, report.server.completed), (1, 1));
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
        phpbb_factory(17),
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
    let mut stream = raw_conn(&tier);
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
