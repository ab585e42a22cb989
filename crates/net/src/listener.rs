//! The connection front-end: acceptor, handler pool, graceful drain.
//!
//! [`NetServer::bind`] puts a real TCP face on a running
//! [`Server`]: one acceptor thread hands accepted sockets to a fixed
//! pool of connection-handler threads through a bounded hand-off queue
//! (connections beyond the backlog cap are refused, counted, and
//! closed — admission control applies to *connections* before it ever
//! applies to transactions). Each handler serves one keep-alive
//! connection at a time with reused buffers (see `conn.rs`).
//!
//! The bound address is exported ([`NetServer::local_addr`]) so callers
//! can bind `127.0.0.1:0` and let the OS pick a free port — parallel
//! tests never collide.
//!
//! **Graceful drain** ([`NetServer::finish`]): set the draining flag,
//! stop the acceptor (a loopback self-connect unblocks `accept`), close
//! the hand-off queue (still-queued sockets are dropped and counted),
//! shut down the *read* side of every in-flight connection — handlers
//! wake from `read` with EOF, flush any responses they owe, and exit —
//! then drain the inner server. The accounting identity
//! `submitted == completed + shed` is asserted by the inner server, and
//! [`NetReport::reconciles`] extends it across the wire: every response
//! status the front-end issued is reconciled against the queue's
//! admission counters.
//!
//! **Counting.** Each front-end thread (every handler, and the acceptor)
//! counts its events once, into its own cache-line-aligned
//! [`FrontEndBlock`] of relaxed atomics. [`NetServer::finish`] builds
//! the [`NetReport`] by summing the blocks after the threads are joined,
//! and when the inner server has telemetry, [`NetServer::bind`] hands
//! the same blocks to it: every live `ObsSample` carries their sum as
//! `front_end`, and the closing sample equals the report.

use crate::conn::{serve_conn, ConnBuffers, ConnShared};
use crate::frame::{Decoder, DEFAULT_MAX_FRAME, DEFAULT_MAX_OPS};
use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use webmm_obs::{bump, FrontEndBlock, FrontEndCounters, NetCounters};
use webmm_server::{ObsSample, Server, ServerReport};

/// Configuration of the TCP front-end.
#[derive(Clone, Copy, Debug)]
pub struct NetServerConfig {
    /// Connection-handler threads. Each serves one connection at a time,
    /// so persistent-connection clients need `handlers >= connections`
    /// to avoid parking whole connections in the backlog.
    pub handlers: usize,
    /// Accepted-but-unserved connections held for a free handler;
    /// beyond this the acceptor refuses (closes) new sockets.
    pub backlog: usize,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// Cap on one frame's body length, bytes.
    pub max_frame: usize,
    /// Cap on ops carried by one submit frame.
    pub max_ops: usize,
    /// Cap on heap bytes one transaction may request; larger requests
    /// are refused with `TooLarge` before admission.
    pub max_tx_bytes: u64,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            handlers: 4,
            backlog: 64,
            idle_timeout: Duration::from_secs(5),
            max_frame: DEFAULT_MAX_FRAME,
            max_ops: DEFAULT_MAX_OPS,
            max_tx_bytes: 64 << 20,
        }
    }
}

/// The accepted-socket hand-off between acceptor and handlers.
struct Pending {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

/// State shared by acceptor and handlers.
struct Shared {
    ctx: ConnShared,
    pending: Mutex<Pending>,
    available: Condvar,
    backlog: usize,
    /// A read-shutdown clone of each handler's current socket, indexed
    /// by handler — drain uses it to wake handlers parked in `read`.
    active: Vec<Mutex<Option<TcpStream>>>,
    /// One counter block per front-end thread: the acceptor's at index
    /// 0, handler `h`'s at `h + 1`.
    counters: Arc<[FrontEndBlock]>,
}

/// A TCP serving tier wrapped around a running [`Server`].
pub struct NetServer {
    server: Server,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    handlers: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port) and
    /// starts serving the wire protocol in front of `server`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    ///
    /// # Panics
    ///
    /// Panics if `config.handlers` or `config.backlog` is zero.
    pub fn bind<A: ToSocketAddrs>(
        server: Server,
        addr: A,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        assert!(config.handlers > 0, "front-end needs at least one handler");
        assert!(config.backlog > 0, "backlog must be nonzero");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let pool = server.buffer_pool();
        let decoder = Decoder::new()
            .with_max_frame(config.max_frame)
            .with_max_ops(config.max_ops)
            .with_pool(Arc::clone(&pool));
        let shared = Arc::new(Shared {
            ctx: ConnShared {
                ingress: server.ingress(),
                pool,
                decoder,
                next_tx_id: AtomicU64::new(0),
                draining: AtomicBool::new(false),
                idle_timeout: config.idle_timeout,
                max_tx_bytes: config.max_tx_bytes,
            },
            pending: Mutex::new(Pending {
                conns: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            backlog: config.backlog,
            active: (0..config.handlers).map(|_| Mutex::new(None)).collect(),
            counters: (0..=config.handlers)
                .map(|_| FrontEndBlock::default())
                .collect(),
        });
        if let Some(t) = server.telemetry() {
            t.attach_front_end(Arc::clone(&shared.counters));
        }
        let handlers = (0..config.handlers)
            .map(|h| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("webmm-net-conn-{h}"))
                    .spawn(move || handler_loop(h, &shared))
                    .expect("spawn net handler")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("webmm-net-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn net acceptor")
        };
        Ok(NetServer {
            server,
            local_addr,
            shared,
            acceptor,
            handlers,
        })
    }

    /// The address the listener actually bound — hand this to clients
    /// when the bind address used port 0.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The inner transaction server (e.g. for queue depth or telemetry).
    #[must_use]
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Gracefully drains the whole tier and returns the merged report:
    /// stop accepting, wake and retire every connection handler (owed
    /// responses are flushed), then drain the inner server. See the
    /// module docs for the exact sequence.
    ///
    /// # Panics
    ///
    /// Panics if a front-end thread panicked, or if the inner server's
    /// accounting identity fails (see `Server::finish`).
    #[must_use]
    pub fn finish(self) -> NetReport {
        self.finish_with_obs().0
    }

    /// Like [`NetServer::finish`], but also returns the telemetry time
    /// series (empty without telemetry on the inner server).
    ///
    /// # Panics
    ///
    /// Same conditions as [`NetServer::finish`].
    #[must_use]
    pub fn finish_with_obs(self) -> (NetReport, Vec<ObsSample>) {
        self.shared.ctx.draining.store(true, Ordering::Release);
        {
            let mut pending = self.shared.pending.lock().expect("pending lock");
            pending.closed = true;
            // Accepted but never served: counted dropped, sockets closed.
            bump(
                &self.shared.counters[0].conns_dropped,
                pending.conns.len() as u64,
            );
            pending.conns.clear();
        }
        self.shared.available.notify_all();
        // Unblock the acceptor's blocking accept() with a self-connect.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        self.acceptor.join().expect("net acceptor panicked");
        // Wake handlers parked in read(): EOF their read side; they
        // flush what they owe and exit.
        for slot in &self.shared.active {
            if let Some(stream) = slot.lock().expect("active slot lock").as_ref() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        for h in self.handlers {
            h.join().expect("net handler panicked");
        }
        // Every front-end thread has joined: the sum is final, and the
        // closing sample the server takes next reads the same blocks.
        let fe = FrontEndCounters::sum(&self.shared.counters);
        let (server, samples) = self.server.finish_with_obs();
        let report = NetReport {
            net: fe.net,
            requests: fe.requests,
            pings: fe.pings,
            oversized: fe.oversized,
            accepted: fe.accepted,
            shed_accepted: fe.shed_accepted,
            rejected: fe.rejected,
            draining: fe.draining,
            server,
        };
        (report, samples)
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let t = &shared.counters[0];
    loop {
        if let Ok((stream, _)) = listener.accept() {
            if shared.ctx.draining.load(Ordering::Acquire) {
                // The drain self-connect, or a late arrival racing it.
                drop(stream);
                break;
            }
            bump(&t.conns_accepted, 1);
            let mut pending = shared.pending.lock().expect("pending lock");
            if pending.closed || pending.conns.len() >= shared.backlog {
                drop(pending);
                bump(&t.conns_dropped, 1);
                drop(stream);
            } else {
                pending.conns.push_back(stream);
                drop(pending);
                shared.available.notify_one();
            }
        } else {
            if shared.ctx.draining.load(Ordering::Acquire) {
                break;
            }
            // Transient accept errors (per-connection resets) are not
            // fatal to the acceptor.
            bump(&t.conns_dropped, 1);
        }
    }
}

fn handler_loop(handler: usize, shared: &Shared) {
    let t = &shared.counters[handler + 1];
    let mut bufs = ConnBuffers::new();
    loop {
        let stream = {
            let mut pending = shared.pending.lock().expect("pending lock");
            loop {
                if let Some(s) = pending.conns.pop_front() {
                    break Some(s);
                }
                if pending.closed {
                    break None;
                }
                pending = shared.available.wait(pending).expect("pending lock");
            }
        };
        let Some(stream) = stream else { break };
        // Register a clone so drain can EOF our read side mid-read.
        *shared.active[handler].lock().expect("active slot lock") = stream.try_clone().ok();
        t.conns_open.store(1, Ordering::Relaxed);
        serve_conn(stream, &shared.ctx, &mut bufs, t);
        t.conns_open.store(0, Ordering::Relaxed);
        *shared.active[handler].lock().expect("active slot lock") = None;
    }
}

/// Everything the TCP tier and the server behind it produced,
/// JSON-serializable.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct NetReport {
    /// Front-end traffic counters.
    pub net: NetCounters,
    /// Submit requests answered.
    pub requests: u64,
    /// Pings answered.
    pub pings: u64,
    /// Requests refused with `TooLarge` (never offered to the queue).
    pub oversized: u64,
    /// `Accepted` responses issued.
    pub accepted: u64,
    /// `AcceptedSheddingOldest` responses issued.
    pub shed_accepted: u64,
    /// `Rejected` responses issued.
    pub rejected: u64,
    /// `Draining` responses issued (never offered to the queue).
    pub draining: u64,
    /// The inner server's report (accounting identity already checked).
    pub server: ServerReport,
}

impl NetReport {
    /// The cross-tier accounting identity: every response status issued
    /// over the wire reconciles exactly with the ingress queue's
    /// admission counters —
    /// `accepted + shed_accepted + rejected == submitted`,
    /// `shed == rejected + shed_accepted`, and therefore
    /// `completed == accepted` (every shed-oldest victim was an earlier
    /// `Accepted` response). `Draining`/`TooLarge` refusals never reach
    /// the queue, so they appear in neither side of the identity.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.accepted + self.shed_accepted + self.rejected == self.server.submitted
            && self.server.shed == self.rejected + self.shed_accepted
            && self.server.submitted == self.server.completed + self.server.shed
    }

    /// Pretty-printed JSON rendering.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for this type).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("NetReport serializes")
    }
}
