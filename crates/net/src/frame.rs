//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every frame on the wire is a little-endian `u32` *body length*
//! followed by exactly that many body bytes; the first body byte is a
//! type tag. Requests carry a client-assigned `request_id` that the
//! server echoes in the response, so a client can detect desync after a
//! timeout or reconnect. A transaction travels as its explicit
//! [`WorkOp`] sequence: one tag byte plus 0, 1 or 2 LE `u64` fields per
//! op, so a record is 1, 9, 10 or 17 bytes.
//!
//! Decoding is **incremental and total**: [`Decoder::decode`] looks at
//! the front of a byte buffer and returns `Ok(None)` ("need more
//! bytes"), `Ok(Some((frame, consumed)))`, or a typed [`FrameError`] —
//! never a panic, whatever the bytes. A complete body that runs out of
//! bytes mid-field or mid-op is *corrupt* (the length prefix delimits
//! it), which is how truncation inside a frame is told apart from a
//! partial read. Op counts are validated against the body length before
//! any buffer is sized, so a hostile length field cannot force an
//! allocation, and a `Malloc` or `Realloc` of zero bytes — a request no
//! worker heap can serve — is refused as [`FrameError::ZeroSize`].
//!
//! The op list is the bulk of every `Submit` (a phpBB transaction is
//! about 1,350 ops) and both ends of a tcp round trip walk it, so it is
//! **table-driven**: decoding an op is one lookup of its record length
//! by tag, one length check and two loads at fixed offsets; encoding is
//! two stores into a 17-byte window and an advance by the record
//! length. Header fields go through a checked field-by-field reader.
//! The server's decode pass also sums the heap bytes the ops request
//! (the [`TxBody::requested_bytes`] quantity its size cap checks), so
//! the op list is walked once between the socket and admission.
//!
//! When a [`TxBufferPool`] is attached, decoded op vectors are drawn
//! from it — the network path joins the same recycled-buffer loop the
//! in-process load generators use.

use std::fmt;
use std::sync::Arc;
use webmm_server::{Admission, TxBufferPool};
use webmm_workload::WorkOp;

/// Bytes of the length prefix in front of every frame body.
pub const HEADER_LEN: usize = 4;

/// Default cap on one frame's body length.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Default cap on ops carried by one `Submit` frame.
pub const DEFAULT_MAX_OPS: usize = 1 << 16;

// Frame type tags. Requests have the high bit clear, responses set.
const TAG_SUBMIT: u8 = 0x01;
const TAG_PING: u8 = 0x02;
const TAG_GOODBYE: u8 = 0x03;
const TAG_STATUS: u8 = 0x81;
const TAG_PONG: u8 = 0x82;

/// Body kind of a `Submit`: an inline op list, the one kind there is.
const BODY_OPS: u8 = 0x01;

// WorkOp tags.
const OP_MALLOC: u8 = 0;
const OP_FREE: u8 = 1;
const OP_REALLOC: u8 = 2;
const OP_TOUCH: u8 = 3;
const OP_COMPUTE: u8 = 4;
const OP_STATIC_TOUCH: u8 = 5;
const OP_END_TX: u8 = 6;

/// Protocol status code carried by a [`Frame::Status`] response — the
/// admission outcomes of the ingress queue, plus the two refusals the
/// network tier itself issues (`Draining`, `TooLarge`). `Rejected` and
/// `Draining` are this protocol's HTTP-429/503 equivalents.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Status {
    /// The transaction was admitted and will be served.
    Accepted,
    /// Admitted, displacing the oldest queued transaction
    /// ([`Admission::AcceptedSheddingOldest`]).
    AcceptedSheddingOldest,
    /// Turned away by admission control (queue full under the reject
    /// policy, or the ingress queue already closed).
    Rejected,
    /// The server is draining: the request was never offered to the
    /// ingress queue and does not appear in its `submitted` count.
    Draining,
    /// The request's transaction exceeds the server's size limits and
    /// was refused at the front door, before admission.
    TooLarge,
}

impl Status {
    /// The wire code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Status::Accepted => 0,
            Status::AcceptedSheddingOldest => 1,
            Status::Rejected => 2,
            Status::Draining => 3,
            Status::TooLarge => 4,
        }
    }

    /// Parses a wire code.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Status> {
        match code {
            0 => Some(Status::Accepted),
            1 => Some(Status::AcceptedSheddingOldest),
            2 => Some(Status::Rejected),
            3 => Some(Status::Draining),
            4 => Some(Status::TooLarge),
            _ => None,
        }
    }

    /// Maps an ingress [`Admission`] outcome onto its wire status.
    #[must_use]
    pub fn from_admission(admission: Admission) -> Status {
        match admission {
            Admission::Accepted => Status::Accepted,
            Admission::AcceptedSheddingOldest => Status::AcceptedSheddingOldest,
            Admission::Rejected => Status::Rejected,
        }
    }
}

/// The transaction payload of a [`Frame::Submit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxBody {
    /// An explicit op sequence, executed verbatim.
    Ops(Vec<WorkOp>),
}

impl TxBody {
    /// Total heap bytes this body will request from a worker
    /// (malloc plus realloc sizes) — the quantity the server's
    /// `max_tx_bytes` limit is checked against. Saturates at `u64::MAX`,
    /// so sizes chosen to wrap the sum cannot slip under the limit.
    #[must_use]
    pub fn requested_bytes(&self) -> u64 {
        let TxBody::Ops(ops) = self;
        ops.iter()
            .map(|op| match *op {
                WorkOp::Malloc { size, .. } => size,
                WorkOp::Realloc { new_size, .. } => new_size,
                _ => 0,
            })
            .fold(0, u64::saturating_add)
    }
}

/// One protocol frame, either direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: offer one transaction.
    Submit {
        /// Client-assigned id echoed by the response.
        request_id: u64,
        /// Optional affinity key: transactions with the same key land on
        /// the same ingress shard (same worker heap).
        affinity: Option<u64>,
        /// The transaction payload.
        body: TxBody,
    },
    /// Client → server: keep-alive / health probe.
    Ping,
    /// Client → server: clean close announcement.
    Goodbye,
    /// Server → client: admission outcome for `request_id`.
    Status {
        /// Echo of the request's id.
        request_id: u64,
        /// Admission outcome.
        status: Status,
    },
    /// Server → client: reply to [`Frame::Ping`].
    Pong,
}

/// Typed decoding failure. Every variant is a protocol violation by the
/// peer; none of them panics the decoder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix announces a body larger than the cap.
    Oversized {
        /// Announced body length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// Zero-length body (every frame needs at least a type tag).
    EmptyFrame,
    /// Unknown frame type tag.
    BadTag(u8),
    /// Unknown status code in a `Status` frame.
    BadStatus(u8),
    /// Unknown op tag inside a `Submit` body.
    BadOpTag(u8),
    /// A boolean field held something other than 0 or 1.
    BadBool(u8),
    /// A complete body ended mid-field or mid-op — truncation *inside*
    /// the length-delimited frame, i.e. corruption (a partial read is
    /// `Ok(None)`, not this). Inside the op list the unit is the whole
    /// op record: `need` is its wire length (tag included) and `have`
    /// the bytes left from its tag on.
    Corrupt {
        /// Bytes the next field or op record needed.
        need: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The body declared more ops than it can possibly hold (or more
    /// than the configured cap) — rejected before sizing any buffer.
    TooManyOps {
        /// Declared op count.
        ops: usize,
        /// Maximum admissible here.
        max: usize,
    },
    /// Decoding finished with unconsumed bytes inside the body.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
    /// A `Malloc` or `Realloc` inside a `Submit` body asks for zero
    /// bytes, which no worker heap serves.
    ZeroSize,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds cap of {max}")
            }
            FrameError::EmptyFrame => write!(f, "zero-length frame body"),
            FrameError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            FrameError::BadStatus(s) => write!(f, "unknown status code {s}"),
            FrameError::BadOpTag(t) => write!(f, "unknown op tag {t}"),
            FrameError::BadBool(b) => write!(f, "boolean field holds {b}"),
            FrameError::Corrupt { need, have } => {
                write!(f, "corrupt frame: field needs {need} bytes, {have} left")
            }
            FrameError::TooManyOps { ops, max } => {
                write!(f, "frame declares {ops} ops, at most {max} admissible")
            }
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame body")
            }
            FrameError::ZeroSize => write!(f, "allocation of zero bytes"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends `frame`'s wire encoding (length prefix plus body) to `out`.
pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0u8; HEADER_LEN]); // length backpatched below
    match frame {
        Frame::Submit {
            request_id,
            affinity,
            body,
        } => {
            out.push(TAG_SUBMIT);
            out.extend_from_slice(&request_id.to_le_bytes());
            match affinity {
                Some(key) => {
                    out.push(1);
                    out.extend_from_slice(&key.to_le_bytes());
                }
                None => out.push(0),
            }
            let TxBody::Ops(ops) = body;
            out.push(BODY_OPS);
            out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            encode_ops(ops, out);
        }
        Frame::Ping => out.push(TAG_PING),
        Frame::Goodbye => out.push(TAG_GOODBYE),
        Frame::Status { request_id, status } => {
            out.push(TAG_STATUS);
            out.extend_from_slice(&request_id.to_le_bytes());
            out.push(status.code());
        }
        Frame::Pong => out.push(TAG_PONG),
    }
    let body_len = (out.len() - at - HEADER_LEN) as u32;
    out[at..at + HEADER_LEN].copy_from_slice(&body_len.to_le_bytes());
}

/// Wire length of each op record (tag byte included), indexed by op
/// tag; 0 marks an unknown tag. Decoding an op costs one lookup here and
/// one length check against the rest of the body.
const OP_LEN: [u8; 256] = {
    let mut t = [0u8; 256];
    t[OP_MALLOC as usize] = 17;
    t[OP_FREE as usize] = 9;
    t[OP_REALLOC as usize] = 17;
    t[OP_TOUCH as usize] = 10;
    t[OP_COMPUTE as usize] = 9;
    t[OP_STATIC_TOUCH as usize] = 17;
    t[OP_END_TX as usize] = 1;
    t
};

/// The longest op record: a tag and two `u64` fields.
const MAX_OP_LEN: usize = 17;

/// An op as its wire record `(tag, a, b)`: `a` sits at offset 1 and `b`
/// at offset 9, each as far as the tag's [`OP_LEN`] reaches (`Touch`
/// keeps only the low byte of `b`, its flag).
fn op_record(op: WorkOp) -> (u8, u64, u64) {
    match op {
        WorkOp::Malloc { id, size } => (OP_MALLOC, id, size),
        WorkOp::Free { id } => (OP_FREE, id, 0),
        WorkOp::Realloc { id, new_size } => (OP_REALLOC, id, new_size),
        WorkOp::Touch { id, write } => (OP_TOUCH, id, u64::from(write)),
        WorkOp::Compute { instr } => (OP_COMPUTE, instr, 0),
        WorkOp::StaticTouch { offset, len } => (OP_STATIC_TOUCH, offset, len),
        WorkOp::EndTx => (OP_END_TX, 0, 0),
    }
}

/// Appends the op records of `ops`. The worst case is reserved once;
/// each op is stored whole into a 17-byte window and the cursor advances
/// by its record length, so the next op overwrites the unused tail and
/// one truncation at the end drops the last one's.
fn encode_ops(ops: &[WorkOp], out: &mut Vec<u8>) {
    let mut at = out.len();
    out.resize(at + MAX_OP_LEN * ops.len(), 0);
    for &op in ops {
        let (tag, a, b) = op_record(op);
        let w = &mut out[at..at + MAX_OP_LEN];
        w[0] = tag;
        w[1..9].copy_from_slice(&a.to_le_bytes());
        w[9..17].copy_from_slice(&b.to_le_bytes());
        at += usize::from(OP_LEN[usize::from(tag)]);
    }
    out.truncate(at);
}

/// Decodes `count` op records from the front of `body` into `ops` and
/// returns the bytes they took with the heap bytes the ops request (the
/// [`TxBody::requested_bytes`] sum, taken in the same pass). Per op: one
/// [`OP_LEN`] lookup on the tag, one length check, two fixed-offset
/// `u64` loads, a masked saturating add and a push. A zero-byte
/// `Malloc` or `Realloc` sets a flag in its own match arm and is
/// [`FrameError::ZeroSize`] once the whole list has decoded.
fn decode_ops(
    body: &[u8],
    count: usize,
    ops: &mut Vec<WorkOp>,
) -> Result<(usize, u64), FrameError> {
    let mut rest = body;
    let mut requested = 0u64;
    let mut zero_size = false;
    for _ in 0..count {
        let Some(&tag) = rest.first() else {
            return Err(FrameError::Corrupt { need: 1, have: 0 });
        };
        let len = usize::from(OP_LEN[usize::from(tag)]);
        if len == 0 {
            return Err(FrameError::BadOpTag(tag));
        }
        if rest.len() < len {
            return Err(FrameError::Corrupt {
                need: len,
                have: rest.len(),
            });
        }
        // The fields sit at offsets 1 and 9 of a 17-byte window that
        // starts at the record: the bytes after a short record are read
        // and ignored. Only the last 16 bytes of a body need a padded
        // copy to make the window.
        let pad: [u8; MAX_OP_LEN];
        let w = if let Some(w) = rest.first_chunk::<MAX_OP_LEN>() {
            w
        } else {
            let mut p = [0u8; MAX_OP_LEN];
            p[..len].copy_from_slice(&rest[..len]);
            pad = p;
            &pad
        };
        // The flag byte counts only in a Touch. Testing it as a product,
        // not with `&&`, leaves one rarely taken branch instead of adding
        // one that turns on the tag.
        let flag = u8::from(tag == OP_TOUCH) * w[9];
        if flag > 1 {
            return Err(FrameError::BadBool(flag));
        }
        let a = u64::from_le_bytes(w[1..9].try_into().expect("8 bytes"));
        let b = u64::from_le_bytes(w[9..17].try_into().expect("8 bytes"));
        // `b` is a requested size only in a Malloc or a Realloc: an
        // all-ones mask taken from the tag keeps it, and the sum turns
        // on no branch.
        let sized = u64::from(tag == OP_MALLOC) | u64::from(tag == OP_REALLOC);
        requested = requested.saturating_add(b & sized.wrapping_neg());
        ops.push(match tag {
            OP_MALLOC => {
                zero_size |= b == 0;
                WorkOp::Malloc { id: a, size: b }
            }
            OP_FREE => WorkOp::Free { id: a },
            OP_REALLOC => {
                zero_size |= b == 0;
                WorkOp::Realloc { id: a, new_size: b }
            }
            OP_TOUCH => WorkOp::Touch {
                id: a,
                write: w[9] == 1,
            },
            OP_COMPUTE => WorkOp::Compute { instr: a },
            OP_STATIC_TOUCH => WorkOp::StaticTouch { offset: a, len: b },
            // OP_LEN is nonzero only for the tags above and OP_END_TX.
            _ => WorkOp::EndTx,
        });
        rest = &rest[len..];
    }
    if zero_size {
        return Err(FrameError::ZeroSize);
    }
    Ok((body.len() - rest.len(), requested))
}

/// Bounds-checked reader over one frame body.
struct Body<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Body<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let have = self.buf.len() - self.at;
        if have < n {
            return Err(FrameError::Corrupt { need: n, have });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(FrameError::BadBool(b)),
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
}

/// Incremental frame decoder with configurable limits and an optional
/// buffer pool for decoded op vectors.
#[derive(Clone, Default)]
pub struct Decoder {
    max_frame: Option<usize>,
    max_ops: Option<usize>,
    pool: Option<Arc<TxBufferPool>>,
}

impl Decoder {
    /// A decoder with the default limits ([`DEFAULT_MAX_FRAME`],
    /// [`DEFAULT_MAX_OPS`]) and no pool.
    #[must_use]
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Caps the admissible body length.
    #[must_use]
    pub fn with_max_frame(mut self, max: usize) -> Self {
        self.max_frame = Some(max);
        self
    }

    /// Caps the ops one `Submit` may carry.
    #[must_use]
    pub fn with_max_ops(mut self, max: usize) -> Self {
        self.max_ops = Some(max);
        self
    }

    /// Draws decoded op vectors from `pool` instead of allocating.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<TxBufferPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    pub(crate) fn max_frame(&self) -> usize {
        self.max_frame.unwrap_or(DEFAULT_MAX_FRAME)
    }

    /// Tries to decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` holds only part of a frame (read
    /// more and retry), `Ok(Some((frame, consumed)))` on success — the
    /// caller drains `consumed` bytes — and a [`FrameError`] when the
    /// peer violated the protocol (the connection should be dropped;
    /// resynchronization is not attempted).
    ///
    /// # Errors
    ///
    /// Every [`FrameError`] variant; never panics, for any input.
    pub fn decode(&self, buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
        Ok(self
            .decode_sized(buf)?
            .map(|(frame, used, _)| (frame, used)))
    }

    /// [`Decoder::decode`], also returning the heap bytes the frame's
    /// transaction requests: [`TxBody::requested_bytes`] of a `Submit`
    /// body, summed while its ops are decoded, and 0 for every other
    /// frame.
    pub(crate) fn decode_sized(
        &self,
        buf: &[u8],
    ) -> Result<Option<(Frame, usize, u64)>, FrameError> {
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if len == 0 {
            return Err(FrameError::EmptyFrame);
        }
        if len > self.max_frame() {
            return Err(FrameError::Oversized {
                len,
                max: self.max_frame(),
            });
        }
        if buf.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let mut body = Body {
            buf: &buf[HEADER_LEN..HEADER_LEN + len],
            at: 0,
        };
        let (frame, requested) = self.decode_body(&mut body)?;
        if body.remaining() > 0 {
            return Err(FrameError::TrailingBytes {
                extra: body.remaining(),
            });
        }
        Ok(Some((frame, HEADER_LEN + len, requested)))
    }

    /// Decodes one body into its frame and the heap bytes it requests.
    fn decode_body(&self, body: &mut Body<'_>) -> Result<(Frame, u64), FrameError> {
        match body.u8()? {
            TAG_SUBMIT => {
                let request_id = body.u64()?;
                let affinity = if body.bool()? {
                    Some(body.u64()?)
                } else {
                    None
                };
                let kind = body.u8()?;
                if kind != BODY_OPS {
                    return Err(FrameError::BadTag(kind));
                }
                let count = body.u32()? as usize;
                // Every op costs at least one tag byte, so a count beyond
                // the remaining body is a lie — reject it before sizing
                // any buffer from it.
                let max = self.max_ops.unwrap_or(DEFAULT_MAX_OPS);
                if count > body.remaining() || count > max {
                    return Err(FrameError::TooManyOps {
                        ops: count,
                        max: max.min(body.remaining()),
                    });
                }
                let mut ops = match &self.pool {
                    Some(pool) => pool.get(),
                    None => Vec::new(),
                };
                ops.reserve(count);
                let (used, requested) = decode_ops(&body.buf[body.at..], count, &mut ops)?;
                body.at += used;
                let frame = Frame::Submit {
                    request_id,
                    affinity,
                    body: TxBody::Ops(ops),
                };
                Ok((frame, requested))
            }
            TAG_PING => Ok((Frame::Ping, 0)),
            TAG_GOODBYE => Ok((Frame::Goodbye, 0)),
            TAG_STATUS => {
                let request_id = body.u64()?;
                let code = body.u8()?;
                let status = Status::from_code(code).ok_or(FrameError::BadStatus(code))?;
                Ok((Frame::Status { request_id, status }, 0))
            }
            TAG_PONG => Ok((Frame::Pong, 0)),
            t => Err(FrameError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(frame: &Frame) {
        let mut buf = Vec::new();
        encode(frame, &mut buf);
        let (back, used) = Decoder::new().decode(&buf).unwrap().unwrap();
        assert_eq!(back, *frame);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn all_frame_shapes_round_trip() {
        round_trip(&Frame::Ping);
        round_trip(&Frame::Pong);
        round_trip(&Frame::Goodbye);
        round_trip(&Frame::Status {
            request_id: u64::MAX,
            status: Status::Draining,
        });
        round_trip(&Frame::Submit {
            request_id: 8,
            affinity: Some(0xDEAD),
            body: TxBody::Ops(vec![
                WorkOp::Malloc { id: 1, size: 64 },
                WorkOp::Touch { id: 1, write: true },
                WorkOp::Realloc {
                    id: 1,
                    new_size: 128,
                },
                WorkOp::Free { id: 1 },
                WorkOp::Compute { instr: 900 },
                WorkOp::StaticTouch {
                    offset: 16,
                    len: 32,
                },
                WorkOp::EndTx,
            ]),
        });
    }

    #[test]
    fn partial_reads_ask_for_more() {
        let mut buf = Vec::new();
        encode(
            &Frame::Status {
                request_id: 3,
                status: Status::Accepted,
            },
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert_eq!(Decoder::new().decode(&buf[..cut]).unwrap(), None, "{cut}");
        }
    }

    #[test]
    fn two_frames_back_to_back_decode_in_order() {
        let mut buf = Vec::new();
        encode(&Frame::Ping, &mut buf);
        encode(&Frame::Goodbye, &mut buf);
        let d = Decoder::new();
        let (f1, used) = d.decode(&buf).unwrap().unwrap();
        assert_eq!(f1, Frame::Ping);
        let (f2, used2) = d.decode(&buf[used..]).unwrap().unwrap();
        assert_eq!(f2, Frame::Goodbye);
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn oversized_announcement_is_rejected_before_buffering() {
        let mut buf = (8u32 << 20).to_le_bytes().to_vec();
        buf.push(TAG_PING);
        assert!(matches!(
            Decoder::new().decode(&buf),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn lying_op_count_is_rejected_before_allocation() {
        // Announce u32::MAX ops with a near-empty body.
        let mut body = vec![TAG_SUBMIT];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(0); // no affinity
        body.push(1); // inline ops
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&body);
        assert!(matches!(
            Decoder::new().decode(&buf),
            Err(FrameError::TooManyOps { .. })
        ));
    }

    #[test]
    fn zero_length_and_bad_tags_are_typed_errors() {
        let buf = 0u32.to_le_bytes().to_vec();
        assert_eq!(Decoder::new().decode(&buf), Err(FrameError::EmptyFrame));
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.push(0x77);
        assert_eq!(Decoder::new().decode(&buf), Err(FrameError::BadTag(0x77)));
        // A `Submit` body kind other than inline ops (kind 0 was a retired
        // server-expanded `{ ops: u32, size: u32 }` body).
        let mut body = vec![TAG_SUBMIT];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&[0, 0]); // no affinity, body kind 0
        body.extend_from_slice(&(1u32 << 20).to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&body);
        assert_eq!(buf.len(), 23);
        assert_eq!(Decoder::new().decode(&buf), Err(FrameError::BadTag(0)));
    }

    #[test]
    fn zero_byte_mallocs_and_reallocs_are_refused() {
        let zero_malloc = WorkOp::Malloc { id: 0, size: 0 };
        let zero_realloc = WorkOp::Realloc { id: 3, new_size: 0 };
        for ops in [
            vec![zero_malloc, WorkOp::EndTx],
            vec![MALLOC, zero_realloc, WorkOp::EndTx],
            vec![MALLOC, WorkOp::Free { id: 3 }, zero_malloc],
        ] {
            assert_eq!(
                Decoder::new().decode(&submit_wire(&ops)),
                Err(FrameError::ZeroSize),
                "{ops:?}"
            );
        }
        // A zero in any other op's second field is not a size.
        let ok = submit_wire(&[
            WorkOp::Touch {
                id: 0,
                write: false,
            },
            WorkOp::StaticTouch { offset: 0, len: 0 },
            WorkOp::Compute { instr: 0 },
            WorkOp::EndTx,
        ]);
        assert!(Decoder::new().decode(&ok).unwrap().is_some());
    }

    #[test]
    fn trailing_bytes_inside_a_frame_are_rejected() {
        let mut body = vec![TAG_PING, 0xAB];
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.append(&mut body);
        assert_eq!(
            Decoder::new().decode(&buf),
            Err(FrameError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn requested_bytes_sums_malloc_and_realloc() {
        let body = TxBody::Ops(vec![
            WorkOp::Malloc { id: 1, size: 100 },
            WorkOp::Realloc {
                id: 1,
                new_size: 50,
            },
            WorkOp::Free { id: 1 },
            WorkOp::EndTx,
        ]);
        assert_eq!(body.requested_bytes(), 150);
    }

    #[test]
    fn requested_bytes_saturates_instead_of_wrapping() {
        let body = TxBody::Ops(vec![
            WorkOp::Malloc {
                id: 1,
                size: 1 << 63,
            },
            WorkOp::Malloc {
                id: 2,
                size: 1 << 63,
            },
            WorkOp::Realloc { id: 1, new_size: 5 },
        ]);
        assert_eq!(body.requested_bytes(), u64::MAX);
    }

    /// A nonzero size that is small, arbitrary, or half of 2^64 (two of
    /// which saturate the sum).
    fn size() -> impl Strategy<Value = u64> {
        prop_oneof![1u64..4096, 1..=u64::MAX, Just(1u64 << 63)]
    }

    fn any_op() -> impl Strategy<Value = WorkOp> {
        prop_oneof![
            (any::<u64>(), size()).prop_map(|(id, size)| WorkOp::Malloc { id, size }),
            any::<u64>().prop_map(|id| WorkOp::Free { id }),
            (any::<u64>(), size()).prop_map(|(id, new_size)| WorkOp::Realloc { id, new_size }),
            (any::<u64>(), any::<bool>()).prop_map(|(id, write)| WorkOp::Touch { id, write }),
            any::<u64>().prop_map(|instr| WorkOp::Compute { instr }),
            (any::<u64>(), size()).prop_map(|(offset, len)| WorkOp::StaticTouch { offset, len }),
            Just(WorkOp::EndTx),
        ]
    }

    fn any_submit_wire() -> impl Strategy<Value = Vec<u8>> {
        let body = proptest::collection::vec(any_op(), 0..24).prop_map(TxBody::Ops);
        (any::<u64>(), any::<bool>(), any::<u64>(), body).prop_map(
            |(request_id, has_affinity, key, body)| {
                let mut wire = Vec::new();
                let frame = Frame::Submit {
                    request_id,
                    affinity: has_affinity.then_some(key),
                    body,
                };
                encode(&frame, &mut wire);
                wire
            },
        )
    }

    /// The size `decode_sized` returns with a frame against the
    /// `requested_bytes` oracle; `false` when `wire` is not a `Submit`.
    fn size_matches_oracle(wire: &[u8]) -> bool {
        let Ok(Some((frame, used, requested))) = Decoder::new().decode_sized(wire) else {
            return false;
        };
        assert_eq!(used, wire.len());
        let Frame::Submit { body, .. } = frame else {
            assert_eq!(requested, 0, "only a Submit requests bytes");
            return false;
        };
        assert_eq!(requested, body.requested_bytes(), "{body:?}");
        true
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The size summed in the decode pass is the oracle's, for
        /// every decodable `Submit` — as encoded, and after one byte of
        /// it is overwritten.
        #[test]
        fn decode_pass_size_equals_requested_bytes(
            wire in any_submit_wire(),
            at_seed in any::<u64>(),
            byte in any::<u8>(),
        ) {
            prop_assert!(size_matches_oracle(&wire));
            let mut hit = wire.clone();
            hit[(at_seed % wire.len() as u64) as usize] = byte;
            // The overwritten frame may no longer decode, or no longer be
            // a `Submit`; when it is one, its size must still match.
            size_matches_oracle(&hit);
        }
    }

    #[test]
    fn decode_pass_size_saturates_like_the_oracle() {
        let wire = submit_wire(&[
            WorkOp::Malloc {
                id: 1,
                size: 1 << 63,
            },
            WorkOp::Malloc {
                id: 2,
                size: 1 << 63,
            },
            WorkOp::EndTx,
        ]);
        let (_, _, requested) = Decoder::new().decode_sized(&wire).unwrap().unwrap();
        assert_eq!(requested, u64::MAX);
        assert!(size_matches_oracle(&wire));
    }

    /// Wire offset of the op count in a `Submit` without affinity:
    /// header, frame tag, request id, affinity flag, body kind.
    const COUNT_AT: usize = HEADER_LEN + 1 + 8 + 1 + 1;

    /// The wire encoding of a `Submit` carrying `ops`, no affinity.
    fn submit_wire(ops: &[WorkOp]) -> Vec<u8> {
        let mut wire = Vec::new();
        encode(
            &Frame::Submit {
                request_id: 9,
                affinity: None,
                body: TxBody::Ops(ops.to_vec()),
            },
            &mut wire,
        );
        wire
    }

    /// Rewrites the length prefix to match the bytes after it.
    fn fix_len(wire: &mut [u8]) {
        let len = (wire.len() - HEADER_LEN) as u32;
        wire[..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    }

    const MALLOC: WorkOp = WorkOp::Malloc { id: 3, size: 48 };

    fn every_op_kind() -> [WorkOp; 7] {
        [
            MALLOC,
            WorkOp::Free { id: 3 },
            WorkOp::Realloc {
                id: 3,
                new_size: 96,
            },
            WorkOp::Touch { id: 3, write: true },
            WorkOp::Compute { instr: 77 },
            WorkOp::StaticTouch { offset: 8, len: 8 },
            WorkOp::EndTx,
        ]
    }

    #[test]
    fn unknown_tag_as_the_last_op_is_bad_op_tag() {
        for bad in [7u8, 0x80, 0xFF] {
            let mut wire = submit_wire(&[MALLOC, WorkOp::EndTx]);
            *wire.last_mut().expect("EndTx tag") = bad;
            assert_eq!(Decoder::new().decode(&wire), Err(FrameError::BadOpTag(bad)));
        }
    }

    #[test]
    fn bad_bool_in_a_touch_is_rejected_last_or_not() {
        let touch = WorkOp::Touch { id: 3, write: true };
        // Final op (the padded tail of the body), then an op with a full
        // 17-byte window behind it.
        let last = submit_wire(&[MALLOC, touch]);
        let flag_of_last = last.len() - 1;
        let first = submit_wire(&[touch, MALLOC]);
        let flag_of_first = COUNT_AT + 4 + 9;
        for (mut wire, at) in [(last, flag_of_last), (first, flag_of_first)] {
            assert_eq!(wire[at], 1, "the flag byte");
            wire[at] = 2;
            assert_eq!(Decoder::new().decode(&wire), Err(FrameError::BadBool(2)));
        }
    }

    #[test]
    fn every_cut_inside_the_final_op_is_corrupt() {
        for last in every_op_kind() {
            let full = submit_wire(&[MALLOC, last]);
            let len = full.len() - submit_wire(&[MALLOC]).len();
            for keep in 0..len {
                let mut wire = full[..full.len() - len + keep].to_vec();
                fix_len(&mut wire);
                let need = if keep == 0 { 1 } else { len };
                assert_eq!(
                    Decoder::new().decode(&wire),
                    Err(FrameError::Corrupt { need, have: keep }),
                    "{last:?} cut to {keep} of {len} bytes"
                );
            }
        }
    }

    #[test]
    fn op_count_beyond_the_ops_present_is_corrupt() {
        let mut wire = submit_wire(&[MALLOC, WorkOp::Free { id: 3 }]);
        wire[COUNT_AT..COUNT_AT + 4].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            Decoder::new().decode(&wire),
            Err(FrameError::Corrupt { need: 1, have: 0 })
        );
    }

    #[test]
    fn bytes_after_the_last_op_are_trailing() {
        for extra in [vec![0u8], vec![OP_END_TX; 3], vec![0xFF; 17]] {
            let mut wire = submit_wire(&every_op_kind());
            wire.extend_from_slice(&extra);
            fix_len(&mut wire);
            assert_eq!(
                Decoder::new().decode(&wire),
                Err(FrameError::TrailingBytes { extra: extra.len() })
            );
        }
    }
}
