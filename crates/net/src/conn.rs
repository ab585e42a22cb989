//! The per-connection serving loop.
//!
//! Each accepted socket is served by one handler thread at a time. The
//! handler reads straight into the free tail of its reassembly window,
//! decodes every complete frame pending there in place (a partial frame
//! waits for the next read — the decoder is built for split reads),
//! answers each request into a write buffer, and flushes once per read.
//! Decoding a `Submit` also sums the heap bytes it requests, so a
//! request's bytes are walked once between the socket and admission.
//! The window and the write buffer belong to the handler and are reused
//! across requests *and* across connections, and decoded op vectors
//! come from the server's [`TxBufferPool`] — the network path rides the
//! same recycled-buffer loop as the in-process generators.
//!
//! The window is never drained by copying: consumed bytes are skipped,
//! and an empty window rewinds to its start for free. A pending partial
//! frame slides to the front only when the tail is full, and the window
//! doubles only when one incomplete frame fills it — at most to
//! `max_frame + HEADER_LEN` bytes, since the decoder refuses a longer
//! announcement from the length prefix alone.
//!
//! Back-pressure falls out of the blocking design: under the `Block`
//! admission policy a full ingress queue stalls the handler inside
//! `submit`, the handler stops reading, the kernel's receive window
//! fills, and the client's `write` eventually blocks — TCP flow control
//! carries the queue's back-pressure all the way to the load generator.
//! Under `Reject`/`ShedOldest` the refusal travels back explicitly as a
//! [`Status`] response instead.
//!
//! Nothing a peer sends can panic this loop: malformed frames are typed
//! [`FrameError`](crate::FrameError)s that drop the connection (counted,
//! never resynchronized), and well-formed transactions whose requested
//! bytes exceed the configured cap are refused with
//! [`Status::TooLarge`] *before* admission, so a hostile `Malloc` can
//! not drive a worker heap into its out-of-memory panic.

use crate::frame::{encode, Decoder, Frame, Status, TxBody, HEADER_LEN};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use webmm_obs::{bump, FrontEndBlock};
use webmm_server::{Ingress, Transaction, TxBufferPool};

/// State shared by every connection handler of one [`NetServer`]
/// (`crate::NetServer`).
pub(crate) struct ConnShared {
    /// Submission handle into the inner server.
    pub ingress: Ingress,
    /// The inner server's op-buffer pool (decoded transactions draw
    /// from it; refused ones return to it).
    pub pool: Arc<TxBufferPool>,
    /// Frame decoder with the configured limits, pool attached.
    pub decoder: Decoder,
    /// Server-side transaction id source (load-generator role).
    pub next_tx_id: AtomicU64,
    /// Set by drain: stop taking new requests, close connections.
    pub draining: AtomicBool,
    /// Keep-alive idle limit per connection.
    pub idle_timeout: Duration,
    /// Cap on heap bytes one transaction may request.
    pub max_tx_bytes: u64,
}

/// Counts one issued response status.
fn count_status(t: &FrontEndBlock, status: Status) {
    let cell = match status {
        Status::Accepted => &t.accepted,
        Status::AcceptedSheddingOldest => &t.shed_accepted,
        Status::Rejected => &t.rejected,
        Status::Draining => &t.draining,
        Status::TooLarge => &t.oversized,
    };
    bump(cell, 1);
}

/// What the connection loop should do after a frame was handled.
enum Flow {
    Continue,
    /// Orderly close (Goodbye).
    CloseClean,
    /// Peer violated the protocol; drop the connection.
    CloseError,
}

/// Initial size of a handler's reassembly window: room for several of
/// the benchmark's frames (15–16 KB each) in one read.
const INITIAL_WINDOW: usize = 64 * 1024;

/// Reusable per-handler buffers, kept across connections so a busy
/// front-end allocates nothing per request in steady state.
pub(crate) struct ConnBuffers {
    /// Reassembly window, kept at full length: bytes `start..end` were
    /// read and not yet decoded, and `read` fills `end..`.
    window: Vec<u8>,
    start: usize,
    end: usize,
    wbuf: Vec<u8>,
}

impl ConnBuffers {
    pub(crate) fn new() -> Self {
        ConnBuffers {
            window: vec![0; INITIAL_WINDOW],
            start: 0,
            end: 0,
            wbuf: Vec::with_capacity(4 * 1024),
        }
    }

    /// The window's free tail, made non-empty first if the window is
    /// full: the pending bytes slide to the front, or — when one
    /// incomplete frame fills the whole window — the window doubles, up
    /// to `max_frame + HEADER_LEN` (such a frame announced at most
    /// `max_frame` body bytes, or the decoder would have refused it).
    fn tail(&mut self, max_frame: usize) -> &mut [u8] {
        if self.end == self.window.len() {
            if self.start > 0 {
                self.window.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                let grown = (2 * self.window.len()).min(max_frame.saturating_add(HEADER_LEN));
                debug_assert!(grown > self.window.len(), "a full window holds a frame");
                self.window.resize(grown, 0);
            }
        }
        &mut self.window[self.end..]
    }
}

/// Serves one connection to completion: keep-alive request/response
/// until the peer says goodbye, goes quiet past the idle timeout,
/// misbehaves, or the server drains. Every event is counted once, in
/// the handler's own block `t`.
pub(crate) fn serve_conn(
    mut stream: TcpStream,
    ctx: &ConnShared,
    bufs: &mut ConnBuffers,
    t: &FrontEndBlock,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(ctx.idle_timeout)).is_err() {
        bump(&t.conns_dropped, 1);
        return;
    }
    bufs.start = 0;
    bufs.end = 0;
    bufs.wbuf.clear();
    let max_frame = ctx.decoder.max_frame();
    loop {
        if ctx.draining.load(Ordering::Acquire) {
            // Every response owed so far was flushed after its read;
            // drain just stops reading new requests.
            break;
        }
        let n = match stream.read(bufs.tail(max_frame)) {
            Ok(0) => break, // peer closed, or drain shut our read side
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                break; // keep-alive idle timeout
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                bump(&t.conns_dropped, 1);
                return;
            }
        };
        bump(&t.bytes_in, n as u64);
        bufs.end += n;
        let mut flow = Flow::Continue;
        loop {
            match ctx.decoder.decode_sized(&bufs.window[bufs.start..bufs.end]) {
                Ok(Some((frame, used, requested))) => {
                    bufs.start += used;
                    bump(&t.frames_in, 1);
                    flow = handle_frame(frame, requested, ctx, t, &mut bufs.wbuf);
                    if !matches!(flow, Flow::Continue) {
                        break;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    bump(&t.protocol_errors, 1);
                    flow = Flow::CloseError;
                    break;
                }
            }
        }
        if bufs.start == bufs.end {
            bufs.start = 0;
            bufs.end = 0;
        }
        // Flush what we owe even on a close path, so in-flight responses
        // are never lost to a later protocol error in the same read.
        if !flush(&mut stream, &mut bufs.wbuf, t) {
            bump(&t.conns_dropped, 1);
            return;
        }
        match flow {
            Flow::Continue => {}
            Flow::CloseClean => break,
            Flow::CloseError => {
                bump(&t.conns_dropped, 1);
                return;
            }
        }
    }
    bump(&t.conns_closed, 1);
}

/// Writes the pending responses out; `false` on I/O failure.
fn flush(stream: &mut TcpStream, wbuf: &mut Vec<u8>, t: &FrontEndBlock) -> bool {
    if wbuf.is_empty() {
        return true;
    }
    let ok = stream.write_all(wbuf).is_ok();
    if ok {
        bump(&t.bytes_out, wbuf.len() as u64);
    }
    wbuf.clear();
    ok
}

/// Answers one decoded frame; `requested` is the heap bytes a `Submit`
/// body asks for, summed by the decoder.
fn handle_frame(
    frame: Frame,
    requested: u64,
    ctx: &ConnShared,
    t: &FrontEndBlock,
    wbuf: &mut Vec<u8>,
) -> Flow {
    match frame {
        Frame::Submit {
            request_id,
            affinity,
            body,
        } => {
            bump(&t.requests, 1);
            let status = submit(ctx, affinity, body, requested);
            count_status(t, status);
            encode(&Frame::Status { request_id, status }, wbuf);
            bump(&t.frames_out, 1);
            Flow::Continue
        }
        Frame::Ping => {
            bump(&t.pings, 1);
            encode(&Frame::Pong, wbuf);
            bump(&t.frames_out, 1);
            Flow::Continue
        }
        Frame::Goodbye => Flow::CloseClean,
        // Response frames arriving at the server are a protocol error.
        Frame::Status { .. } | Frame::Pong => {
            bump(&t.protocol_errors, 1);
            Flow::CloseError
        }
    }
}

/// Turns one submit body, which requests `requested` heap bytes, into
/// an admission outcome, enforcing the size cap and the drain state
/// before the ingress queue sees anything.
fn submit(ctx: &ConnShared, affinity: Option<u64>, body: TxBody, requested: u64) -> Status {
    let TxBody::Ops(ops) = body;
    // Front-door refusals recycle the op buffer exactly like completions
    // and sheds do.
    if requested > ctx.max_tx_bytes {
        ctx.pool.put(ops);
        return Status::TooLarge;
    }
    if ctx.draining.load(Ordering::Acquire) || ctx.ingress.is_closed() {
        ctx.pool.put(ops);
        return Status::Draining;
    }
    let tx = Transaction {
        id: ctx.next_tx_id.fetch_add(1, Ordering::Relaxed),
        ops,
    };
    let admission = match affinity {
        Some(key) => ctx.ingress.submit_affinity(key, tx),
        None => ctx.ingress.submit(tx),
    };
    Status::from_admission(admission)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DEFAULT_MAX_FRAME;
    use std::net::{Shutdown, TcpListener};
    use webmm_server::{Server, ServerConfig};
    use webmm_workload::WorkOp;

    /// Serves one loopback connection whose peer writes `bytes` and then
    /// waits for the handler to close; returns the handler's buffers and
    /// counters.
    fn serve(bytes: Vec<u8>) -> (ConnBuffers, FrontEndBlock) {
        let server = Server::start(ServerConfig {
            workers: 1,
            static_bytes: 1 << 16,
            ..ServerConfig::default()
        });
        let pool = server.buffer_pool();
        let ctx = ConnShared {
            ingress: server.ingress(),
            pool: Arc::clone(&pool),
            decoder: Decoder::new().with_pool(pool),
            next_tx_id: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            idle_timeout: Duration::from_secs(10),
            max_tx_bytes: u64::MAX,
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let peer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            // A handler that drops the connection early cuts this write
            // short; that is the case under test, not a failure.
            let _ = s.write_all(&bytes);
            let _ = s.shutdown(Shutdown::Write);
            let _ = s.read_to_end(&mut Vec::new());
        });
        let (stream, _) = listener.accept().expect("accept");
        let mut bufs = ConnBuffers::new();
        let t = FrontEndBlock::default();
        serve_conn(stream, &ctx, &mut bufs, &t);
        peer.join().expect("peer thread");
        let report = server.finish();
        assert_eq!(report.completed, t.accepted.load(Ordering::Relaxed));
        (bufs, t)
    }

    /// A `Submit` frame of `mallocs` 64-byte allocations and an `EndTx`.
    fn submit_frame(request_id: u64, mallocs: u64, out: &mut Vec<u8>) {
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
            out,
        );
    }

    #[test]
    fn a_length_prefix_above_max_frame_is_refused_without_growing_the_window() {
        let announced = u32::try_from(DEFAULT_MAX_FRAME + 1).expect("fits the prefix");
        let mut bytes = announced.to_le_bytes().to_vec();
        bytes.resize(HEADER_LEN + 3 * INITIAL_WINDOW, 0x01);
        let (bufs, t) = serve(bytes);
        assert_eq!(bufs.window.len(), INITIAL_WINDOW);
        assert_eq!(t.protocol_errors.load(Ordering::Relaxed), 1);
        assert_eq!(t.conns_dropped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_frame_larger_than_the_window_doubles_it() {
        let mut bytes = Vec::new();
        submit_frame(1, 5_000, &mut bytes);
        assert!(bytes.len() > INITIAL_WINDOW && bytes.len() < 2 * INITIAL_WINDOW);
        encode(&Frame::Goodbye, &mut bytes);
        let (bufs, t) = serve(bytes);
        assert_eq!(bufs.window.len(), 2 * INITIAL_WINDOW);
        assert_eq!(t.accepted.load(Ordering::Relaxed), 1);
        assert_eq!(t.conns_closed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn frames_straddling_the_window_end_slide_instead_of_growing() {
        // Three 40 KB frames: whenever the window is full it holds a
        // whole frame, so a partial one behind it slides to the front.
        let mut bytes = Vec::new();
        for id in 1..=3 {
            submit_frame(id, 2_300, &mut bytes);
        }
        encode(&Frame::Goodbye, &mut bytes);
        let (bufs, t) = serve(bytes);
        assert_eq!(bufs.window.len(), INITIAL_WINDOW);
        assert_eq!(t.accepted.load(Ordering::Relaxed), 3);
        assert_eq!(t.conns_closed.load(Ordering::Relaxed), 1);
    }
}
