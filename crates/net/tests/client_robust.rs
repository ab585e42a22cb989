//! Client failure-mode tests against misbehaving servers.
//!
//! The load generator must *observe* failure, never hang on it or paper
//! over it: a silent server is a counted timeout, a mid-request
//! disconnect is a counted loss (and explicitly not a retry — the
//! server may have admitted the transaction before the connection died,
//! and a retry would double-submit), and an unreachable server exhausts
//! the bounded backoff schedule and is given up on. Each test stands up
//! a deliberately broken server on loopback and asserts the client both
//! returns promptly and books the failure under the right counter.

use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webmm_net::{run_client, NetClientConfig};
use webmm_server::TxFactory;
use webmm_workload::phpbb;

fn quick_config(requests: u64) -> NetClientConfig {
    NetClientConfig {
        connections: 1,
        requests,
        request_timeout: Duration::from_millis(200),
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(5),
        max_attempts: 3,
        ..NetClientConfig::default()
    }
}

/// Small phpBB transactions: what the client ships does not matter to
/// a server that never answers.
fn workload() -> TxFactory {
    TxFactory::new(phpbb(), 2048, 7)
}

/// A server that accepts and then never says anything. The client must
/// time each request out, not hang.
#[test]
fn accept_then_silence_times_out_each_request() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Keep accepted sockets alive (dropping them would turn the
            // scenario into a disconnect) but never write a byte.
            let mut held = Vec::new();
            while !stop.load(Ordering::Acquire) {
                listener.set_nonblocking(true).expect("nonblocking");
                if let Ok((s, _)) = listener.accept() {
                    held.push(s);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let started = Instant::now();
    let report = run_client(addr, workload(), &quick_config(3));
    stop.store(true, Ordering::Release);
    server.join().expect("silent server thread");

    assert_eq!(report.sent, 3, "requests are written before the silence");
    assert_eq!(report.timeouts, 3, "every request must be booked a timeout");
    assert_eq!(report.responses, 0);
    assert_eq!(report.disconnects, 0);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeouts must be bounded by the configured deadline"
    );
}

/// A server that accepts, reads the request, and slams the connection
/// shut. The client books a disconnect (not a retry, not a hang) and
/// moves on to the next request over a fresh connection.
#[test]
fn mid_request_disconnect_is_counted_not_retried() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        // Serve exactly 2 connections: read a bit, then hang up.
        for _ in 0..2 {
            let (mut s, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 64];
            let _ = s.read(&mut buf);
            drop(s); // RST/FIN mid-request
        }
    });

    let report = run_client(addr, workload(), &quick_config(2));
    server.join().expect("slamming server thread");

    assert_eq!(report.sent, 2);
    assert_eq!(report.responses, 0);
    assert_eq!(report.disconnects, 2, "each loss must be booked once");
    assert_eq!(
        report.net.conns_accepted, 2,
        "each request must have used a fresh connection — no retry on a dead one"
    );
}

/// Nobody listening at all: the bounded backoff schedule runs dry, the
/// request is given up, and the client returns instead of spinning.
#[test]
fn unreachable_server_exhausts_backoff_and_gives_up() {
    // Bind to learn a free port, then close it so connects are refused.
    let addr: SocketAddr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("local addr")
    };

    let started = Instant::now();
    let report = run_client(addr, workload(), &quick_config(4));

    assert_eq!(report.sent, 0);
    assert_eq!(report.gave_up, 1, "the thread gives up once, then retires");
    assert!(report.reconnects >= 2, "backoff retries must have happened");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "giving up must be prompt under a small backoff bound"
    );
}
