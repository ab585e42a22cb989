//! The network load generator.
//!
//! [`run_client`] drives a [`NetServer`](crate::NetServer) (or anything
//! speaking the wire protocol) over `connections` persistent TCP
//! connections, one thread per connection, sharing one global request
//! sequence and one [`TxFactory`] — the network analogue of the
//! in-process drivers in `webmm_server::loadgen`, shipping the very
//! transactions they would submit:
//!
//! * **closed loop** ([`LoadMode::Closed`]) — each connection submits
//!   its next request only after the previous response arrived; offered
//!   load self-limits to what the server admits.
//! * **open loop** ([`LoadMode::Open`]) — request *k* is due at
//!   `start + k/rate` regardless of completions, the web-facing arrival
//!   model; pair the server with `Reject`/`ShedOldest` to study
//!   overload behind a real socket.
//!
//! The client is built to observe failure, not hang on it: every read
//! carries the request timeout, a dead or misbehaving connection is
//! dropped and re-established under bounded exponential backoff
//! ([`backoff_delay`]), and a request that fails mid-flight is *never
//! retried* — the server may have admitted it before the connection
//! died, and a retry would double-submit and break the end-to-end
//! accounting. Failed requests are counted (`timeouts`, `disconnects`,
//! `gave_up`) and the sequence moves on.
//!
//! Latency is recorded client-side into the same log2 histogram the
//! server workers use ([`LatencyHistogram`]), so client-observed and
//! server-observed distributions are directly comparable.

use crate::frame::{encode, Decoder, Frame, Status, TxBody, DEFAULT_MAX_FRAME};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use webmm_obs::{LatencyHistogram, LatencySummary, NetCounters};
use webmm_server::TxFactory;

/// How arrivals are scheduled across the connection pool.
#[derive(Clone, Copy, Debug)]
pub enum LoadMode {
    /// Submit the next request only after the previous response.
    Closed,
    /// Fixed schedule: request `k` is due at `start + k/rate`,
    /// independent of completions.
    Open {
        /// Aggregate arrival rate across all connections.
        rate_tx_per_sec: f64,
    },
}

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct NetClientConfig {
    /// Persistent connections (one thread each). The server's handler
    /// pool must be at least this large or whole connections park in
    /// its accept backlog.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: u64,
    /// Arrival schedule.
    pub mode: LoadMode,
    /// Per-request response deadline; on expiry the connection is
    /// dropped and the request counted in `timeouts`.
    pub request_timeout: Duration,
    /// First reconnect backoff delay.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Consecutive failed connects before a connection thread gives up.
    pub max_attempts: u32,
    /// Tag each request with an affinity key (the connection index), so
    /// the server's sharded ingress keeps each connection's transactions
    /// on one shard — session affinity over the wire.
    pub affinity: bool,
    /// Decoder frame cap for responses.
    pub max_frame: usize,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            connections: 2,
            requests: 100,
            mode: LoadMode::Closed,
            request_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            max_attempts: 6,
            affinity: false,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// What one [`run_client`] run observed, JSON-serializable. Each
/// connection thread tallies into one of its own; the run's report is
/// their sum, with `latency` taken from the merged histograms.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct ClientReport {
    /// Traffic counters (client perspective: `conns_accepted` counts
    /// successful connects, `conns_dropped` connections abandoned on
    /// error or timeout).
    pub net: NetCounters,
    /// Requests fully written to a socket.
    pub sent: u64,
    /// Responses received and matched to their request.
    pub responses: u64,
    /// `Accepted` responses.
    pub accepted: u64,
    /// `AcceptedSheddingOldest` responses.
    pub shed_accepted: u64,
    /// `Rejected` responses.
    pub rejected: u64,
    /// `Draining` responses.
    pub draining: u64,
    /// `TooLarge` responses.
    pub too_large: u64,
    /// Requests whose response missed the deadline (never retried).
    pub timeouts: u64,
    /// Requests cut off by a connection failure mid-flight.
    pub disconnects: u64,
    /// Connections re-established after a failure.
    pub reconnects: u64,
    /// Requests abandoned because reconnecting failed `max_attempts`
    /// times in a row (that connection thread then retires).
    pub gave_up: u64,
    /// Client-observed request→response latency.
    pub latency: LatencySummary,
}

/// Bounded exponential backoff: `base * 2^attempt`, saturating at
/// `max`. Pure so the schedule is unit-testable without sockets.
#[must_use]
pub fn backoff_delay(attempt: u32, base: Duration, max: Duration) -> Duration {
    let factor = if attempt >= 32 {
        u32::MAX
    } else {
        1u32 << attempt
    };
    match base.checked_mul(factor) {
        Some(d) => d.min(max),
        None => max,
    }
}

impl ClientReport {
    /// Adds another thread's counters (`latency` is left alone).
    fn merge(&mut self, o: &ClientReport) {
        self.net.merge(&o.net);
        self.sent += o.sent;
        self.responses += o.responses;
        self.accepted += o.accepted;
        self.shed_accepted += o.shed_accepted;
        self.rejected += o.rejected;
        self.draining += o.draining;
        self.too_large += o.too_large;
        self.timeouts += o.timeouts;
        self.disconnects += o.disconnects;
        self.reconnects += o.reconnects;
        self.gave_up += o.gave_up;
    }

    fn count_status(&mut self, status: Status) {
        match status {
            Status::Accepted => self.accepted += 1,
            Status::AcceptedSheddingOldest => self.shed_accepted += 1,
            Status::Rejected => self.rejected += 1,
            Status::Draining => self.draining += 1,
            Status::TooLarge => self.too_large += 1,
        }
    }
}

/// State shared by all connection threads.
struct SharedLoad {
    next_seq: AtomicU64,
    /// One factory for everyone: each request that reaches a connection
    /// draws the next transaction.
    factory: Mutex<TxFactory>,
    start: Instant,
}

/// Drives `config.requests` requests at `addr`, each carrying the next
/// transaction of `factory`, and reports what came back. Returns when
/// every request was answered, timed out, or given up — it does not
/// hang on a dead or silent server.
///
/// All connections share `factory`, so on a run that sends every
/// request (`sent == config.requests`) what crossed the wire is exactly
/// its first `config.requests` transactions: a [`TxFactory`] built from
/// the same `(spec, scale, seed)` replays them in-process.
///
/// # Panics
///
/// Panics if `config.connections` is zero, if an open-loop
/// `rate_tx_per_sec` is not positive (zero, negative or NaN), or if an
/// internal lock poisons. Both argument checks run before any
/// connection is made.
#[must_use]
pub fn run_client(addr: SocketAddr, factory: TxFactory, config: &NetClientConfig) -> ClientReport {
    assert!(
        config.connections > 0,
        "client needs at least one connection"
    );
    if let LoadMode::Open { rate_tx_per_sec } = config.mode {
        assert!(rate_tx_per_sec > 0.0, "open loop needs a positive rate");
    }
    let shared = SharedLoad {
        next_seq: AtomicU64::new(0),
        factory: Mutex::new(factory),
        start: Instant::now(),
    };
    let mut report = ClientReport::default();
    let mut hist = LatencyHistogram::new();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..config.connections)
            .map(|c| {
                let shared = &shared;
                scope.spawn(move || connection_thread(c as u64, addr, config, shared))
            })
            .collect();
        for t in threads {
            let (tt, th) = t.join().expect("client connection thread panicked");
            report.merge(&tt);
            hist.merge(&th);
        }
    });
    report.latency = hist.summary();
    report
}

/// One persistent connection worked by one thread.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

fn connection_thread(
    conn_id: u64,
    addr: SocketAddr,
    config: &NetClientConfig,
    shared: &SharedLoad,
) -> (ClientReport, LatencyHistogram) {
    let mut t = ClientReport::default();
    let mut hist = LatencyHistogram::new();
    let decoder = Decoder::new().with_max_frame(config.max_frame);
    let mut conn: Option<Conn> = None;
    let mut wbuf = Vec::with_capacity(1024);
    loop {
        let seq = {
            let cur = shared.next_seq.fetch_add(1, Ordering::Relaxed);
            if cur >= config.requests {
                break;
            }
            cur
        };
        if let LoadMode::Open { rate_tx_per_sec } = config.mode {
            let due = shared.start + Duration::from_secs_f64(seq as f64 / rate_tx_per_sec);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        // (Re)connect under bounded backoff. Never retry a *request* —
        // only the connection is retried, and only between requests.
        if conn.is_none() {
            conn = reconnect(addr, config, &mut t);
            if conn.is_none() {
                t.gave_up += 1;
                break; // server unreachable after max_attempts; retire
            }
        }
        let c = conn.as_mut().expect("connection just established");
        let tx = shared.factory.lock().expect("factory lock").next_tx();
        wbuf.clear();
        encode(
            &Frame::Submit {
                request_id: seq,
                affinity: config.affinity.then_some(conn_id),
                body: TxBody::Ops(tx.ops),
            },
            &mut wbuf,
        );
        let sent_at = Instant::now();
        if c.stream.write_all(&wbuf).is_err() {
            t.disconnects += 1;
            t.net.conns_dropped += 1;
            conn = None;
            continue; // next seq; this request is lost, not retried
        }
        t.sent += 1;
        t.net.bytes_out += wbuf.len() as u64;
        t.net.frames_out += 1;
        if let Some(status) =
            await_status(c, &decoder, seq, sent_at, config.request_timeout, &mut t)
        {
            hist.record(sent_at.elapsed().as_nanos() as u64);
            t.responses += 1;
            t.count_status(status);
        } else {
            // Timeout, disconnect or protocol violation: already
            // counted by await_status; drop the connection.
            t.net.conns_dropped += 1;
            conn = None;
        }
    }
    if let Some(mut c) = conn {
        // Orderly close: best-effort Goodbye so the server logs a clean
        // close instead of a drop.
        wbuf.clear();
        encode(&Frame::Goodbye, &mut wbuf);
        if c.stream.write_all(&wbuf).is_ok() {
            t.net.bytes_out += wbuf.len() as u64;
            t.net.frames_out += 1;
        }
        t.net.conns_closed += 1;
    }
    (t, hist)
}

/// Connects with exponential backoff; `None` after `max_attempts`
/// consecutive failures.
fn reconnect(addr: SocketAddr, config: &NetClientConfig, t: &mut ClientReport) -> Option<Conn> {
    for attempt in 0..config.max_attempts {
        if attempt > 0 {
            std::thread::sleep(backoff_delay(
                attempt - 1,
                config.backoff_base,
                config.backoff_max,
            ));
            t.reconnects += 1;
        }
        if let Ok(stream) = TcpStream::connect_timeout(&addr, config.request_timeout) {
            if stream
                .set_read_timeout(Some(config.request_timeout))
                .is_ok()
            {
                let _ = stream.set_nodelay(true);
                t.net.conns_accepted += 1;
                return Some(Conn {
                    stream,
                    rbuf: Vec::with_capacity(256),
                });
            }
        }
    }
    None
}

/// Reads until the status for `seq` arrives, the deadline passes, or
/// the connection fails. `None` means the request is lost (the cause is
/// already tallied); the caller must drop the connection.
fn await_status(
    c: &mut Conn,
    decoder: &Decoder,
    seq: u64,
    sent_at: Instant,
    timeout: Duration,
    t: &mut ClientReport,
) -> Option<Status> {
    let mut chunk = [0u8; 1024];
    loop {
        // Decode anything already buffered first.
        match decoder.decode(&c.rbuf) {
            Ok(Some((frame, used))) => {
                c.rbuf.drain(..used);
                t.net.frames_in += 1;
                match frame {
                    Frame::Status { request_id, status } if request_id == seq => {
                        return Some(status);
                    }
                    // We never pipeline, so any other frame here —
                    // stale status, pong, or a request frame — is a
                    // protocol violation by the server.
                    _ => {
                        t.net.protocol_errors += 1;
                        return None;
                    }
                }
            }
            Ok(None) => {}
            Err(_) => {
                t.net.protocol_errors += 1;
                return None;
            }
        }
        if sent_at.elapsed() >= timeout {
            t.timeouts += 1;
            return None;
        }
        match c.stream.read(&mut chunk) {
            Ok(0) => {
                // Mid-request disconnect: an answer we will never get.
                t.disconnects += 1;
                return None;
            }
            Ok(n) => {
                t.net.bytes_in += n as u64;
                c.rbuf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                t.timeouts += 1;
                return None;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                t.disconnects += 1;
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_base() {
        let base = Duration::from_millis(10);
        let max = Duration::from_secs(1);
        assert_eq!(backoff_delay(0, base, max), Duration::from_millis(10));
        assert_eq!(backoff_delay(1, base, max), Duration::from_millis(20));
        assert_eq!(backoff_delay(2, base, max), Duration::from_millis(40));
        assert_eq!(backoff_delay(3, base, max), Duration::from_millis(80));
    }

    #[test]
    fn backoff_caps_at_max() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(100);
        assert_eq!(backoff_delay(4, base, max), max); // 160ms capped
        assert_eq!(backoff_delay(31, base, max), max);
        assert_eq!(backoff_delay(32, base, max), max); // shift saturates
        assert_eq!(backoff_delay(u32::MAX, base, max), max);
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn open_loop_refuses_a_rate_that_is_not_positive() {
        // Nothing listens on port 1; the assert fires before any connect.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let _ = run_client(
            addr,
            TxFactory::new(webmm_workload::phpbb(), 1024, 1),
            &NetClientConfig {
                mode: LoadMode::Open {
                    rate_tx_per_sec: 0.0,
                },
                ..NetClientConfig::default()
            },
        );
    }

    #[test]
    fn backoff_zero_base_stays_zero() {
        let z = Duration::ZERO;
        assert_eq!(backoff_delay(5, z, Duration::from_secs(1)), z);
    }
}
