//! The per-connection serving loop.
//!
//! Each accepted socket is served by one handler thread at a time:
//! read a chunk, decode every complete frame in the reassembly buffer
//! (partial frames wait for the next chunk — the decoder is built for
//! split reads), answer each request into a write buffer, flush once per
//! chunk. The read and write buffers belong to the handler and are
//! reused across requests *and* across connections, and decoded op
//! vectors come from the server's [`TxBufferPool`] — the network path
//! rides the same recycled-buffer loop as the in-process generators.
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

use crate::frame::{encode, Decoder, Frame, Status, TxBody};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use webmm_obs::{bump, FrontEndBlock};
use webmm_server::{Ingress, Transaction, TxBufferPool};
use webmm_workload::WorkOp;

/// State shared by every connection handler of one [`NetServer`]
/// (`crate::NetServer`).
pub(crate) struct ConnShared {
    /// Submission handle into the inner server.
    pub ingress: Ingress,
    /// The inner server's op-buffer pool (decoded and expanded
    /// transactions draw from it; refused ones return to it).
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

/// Reusable per-handler buffers, kept across connections so a busy
/// front-end allocates nothing per request in steady state.
pub(crate) struct ConnBuffers {
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    chunk: Box<[u8; 16 * 1024]>,
}

impl ConnBuffers {
    pub(crate) fn new() -> Self {
        ConnBuffers {
            rbuf: Vec::with_capacity(16 * 1024),
            wbuf: Vec::with_capacity(4 * 1024),
            chunk: Box::new([0u8; 16 * 1024]),
        }
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
    bufs.rbuf.clear();
    bufs.wbuf.clear();
    loop {
        if ctx.draining.load(Ordering::Acquire) {
            // Every response owed so far was flushed after its chunk;
            // drain just stops reading new requests.
            break;
        }
        let n = match stream.read(&mut bufs.chunk[..]) {
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
        bufs.rbuf.extend_from_slice(&bufs.chunk[..n]);
        let mut consumed = 0usize;
        let mut flow = Flow::Continue;
        loop {
            match ctx.decoder.decode(&bufs.rbuf[consumed..]) {
                Ok(Some((frame, used))) => {
                    consumed += used;
                    bump(&t.frames_in, 1);
                    flow = handle_frame(frame, ctx, t, &mut bufs.wbuf);
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
        bufs.rbuf.drain(..consumed);
        // Flush what we owe even on a close path, so in-flight responses
        // are never lost to a later protocol error in the same chunk.
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

fn handle_frame(frame: Frame, ctx: &ConnShared, t: &FrontEndBlock, wbuf: &mut Vec<u8>) -> Flow {
    match frame {
        Frame::Submit {
            request_id,
            affinity,
            body,
        } => {
            bump(&t.requests, 1);
            let status = submit(ctx, affinity, body);
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

/// Turns one submit body into an admission outcome, enforcing the size
/// cap and the drain state before the ingress queue sees anything.
fn submit(ctx: &ConnShared, affinity: Option<u64>, body: TxBody) -> Status {
    if body.requested_bytes() > ctx.max_tx_bytes {
        recycle(ctx, body);
        return Status::TooLarge;
    }
    if ctx.draining.load(Ordering::Acquire) || ctx.ingress.is_closed() {
        recycle(ctx, body);
        return Status::Draining;
    }
    let ops = match body {
        TxBody::Count { ops: n, size } => {
            let mut v = ctx.pool.get();
            v.reserve(n as usize + 1);
            for i in 0..n {
                v.push(WorkOp::Malloc {
                    id: u64::from(i),
                    size: u64::from(size),
                });
            }
            v.push(WorkOp::EndTx);
            v
        }
        TxBody::Ops(v) => v,
    };
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

/// Returns a refused body's op buffer to the pool (front-door refusals
/// recycle exactly like completions and sheds do).
fn recycle(ctx: &ConnShared, body: TxBody) {
    if let TxBody::Ops(ops) = body {
        ctx.pool.put(ops);
    }
}
