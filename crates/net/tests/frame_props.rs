//! Property tests for the wire protocol.
//!
//! The decoder sits on the trust boundary: everything on the other side
//! of the socket is adversarial. These properties pin down its contract
//! from both sides —
//!
//! * **total on valid input**: any encodable frame round-trips exactly,
//!   whole streams of frames survive arbitrary re-chunking, and a
//!   1-byte-at-a-time split-read torture yields `Ok(None)` at every
//!   prefix and the frame at the end;
//! * **total on hostile input**: arbitrary bytes, truncated bodies with
//!   lying length prefixes, and oversized announcements all come back as
//!   typed [`FrameError`]s — the decoder never panics and never
//!   allocates proportionally to an unvalidated length field;
//! * **same format as the reference**: the codec's op loop is
//!   table-driven, so [`reference`] keeps the plain field-by-field
//!   encoder and decoder it must agree with — byte for byte on encode,
//!   result for result on decode (valid, truncated, bit-flipped and
//!   arbitrary input) — and one golden frame pins the format without
//!   either implementation.

use proptest::prelude::*;
use webmm_net::frame::{DEFAULT_MAX_FRAME, DEFAULT_MAX_OPS, HEADER_LEN};
use webmm_net::{encode, Decoder, Frame, FrameError, Status, TxBody};
use webmm_workload::WorkOp;

/// The wire format written out one field at a time, with a bounds check
/// and a `Result` per field: the oracle for the table-driven codec.
mod reference {
    use super::*;

    pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
        let at = out.len();
        out.extend_from_slice(&[0u8; HEADER_LEN]);
        match frame {
            Frame::Submit {
                request_id,
                affinity,
                body,
            } => {
                out.push(0x01);
                out.extend_from_slice(&request_id.to_le_bytes());
                match affinity {
                    Some(key) => {
                        out.push(1);
                        out.extend_from_slice(&key.to_le_bytes());
                    }
                    None => out.push(0),
                }
                let TxBody::Ops(ops) = body;
                out.push(1);
                out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
                for op in ops {
                    encode_op(*op, out);
                }
            }
            Frame::Ping => out.push(0x02),
            Frame::Goodbye => out.push(0x03),
            Frame::Status { request_id, status } => {
                out.push(0x81);
                out.extend_from_slice(&request_id.to_le_bytes());
                out.push(status.code());
            }
            Frame::Pong => out.push(0x82),
        }
        let body_len = (out.len() - at - HEADER_LEN) as u32;
        out[at..at + HEADER_LEN].copy_from_slice(&body_len.to_le_bytes());
    }

    fn encode_op(op: WorkOp, out: &mut Vec<u8>) {
        match op {
            WorkOp::Malloc { id, size } => {
                out.push(0);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&size.to_le_bytes());
            }
            WorkOp::Free { id } => {
                out.push(1);
                out.extend_from_slice(&id.to_le_bytes());
            }
            WorkOp::Realloc { id, new_size } => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&new_size.to_le_bytes());
            }
            WorkOp::Touch { id, write } => {
                out.push(3);
                out.extend_from_slice(&id.to_le_bytes());
                out.push(u8::from(write));
            }
            WorkOp::Compute { instr } => {
                out.push(4);
                out.extend_from_slice(&instr.to_le_bytes());
            }
            WorkOp::StaticTouch { offset, len } => {
                out.push(5);
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            WorkOp::EndTx => out.push(6),
        }
    }

    struct Body<'a> {
        buf: &'a [u8],
        at: usize,
    }

    impl Body<'_> {
        fn take(&mut self, n: usize) -> Result<&[u8], FrameError> {
            let have = self.buf.len() - self.at;
            if have < n {
                return Err(FrameError::Corrupt { need: n, have });
            }
            self.at += n;
            Ok(&self.buf[self.at - n..self.at])
        }

        fn u8(&mut self) -> Result<u8, FrameError> {
            Ok(self.take(1)?[0])
        }

        fn u32(&mut self) -> Result<u32, FrameError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
        }

        fn u64(&mut self) -> Result<u64, FrameError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
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

    pub fn decode(buf: &[u8], max_ops: usize) -> Result<Option<(Frame, usize)>, FrameError> {
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if len == 0 {
            return Err(FrameError::EmptyFrame);
        }
        if len > DEFAULT_MAX_FRAME {
            return Err(FrameError::Oversized {
                len,
                max: DEFAULT_MAX_FRAME,
            });
        }
        if buf.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let mut body = Body {
            buf: &buf[HEADER_LEN..HEADER_LEN + len],
            at: 0,
        };
        let frame = decode_body(&mut body, max_ops)?;
        if body.remaining() > 0 {
            return Err(FrameError::TrailingBytes {
                extra: body.remaining(),
            });
        }
        Ok(Some((frame, HEADER_LEN + len)))
    }

    fn decode_body(body: &mut Body<'_>, max_ops: usize) -> Result<Frame, FrameError> {
        match body.u8()? {
            0x01 => {
                let request_id = body.u64()?;
                let affinity = if body.bool()? {
                    Some(body.u64()?)
                } else {
                    None
                };
                let kind = body.u8()?;
                if kind != 1 {
                    return Err(FrameError::BadTag(kind));
                }
                let count = body.u32()? as usize;
                if count > body.remaining() || count > max_ops {
                    return Err(FrameError::TooManyOps {
                        ops: count,
                        max: max_ops.min(body.remaining()),
                    });
                }
                let mut ops = Vec::with_capacity(count);
                for _ in 0..count {
                    ops.push(decode_op(body)?);
                }
                // A zero-byte allocation is refused once the whole op
                // list has decoded.
                let zero_size = ops.iter().any(|op| {
                    matches!(
                        op,
                        WorkOp::Malloc { size: 0, .. } | WorkOp::Realloc { new_size: 0, .. }
                    )
                });
                if zero_size {
                    return Err(FrameError::ZeroSize);
                }
                Ok(Frame::Submit {
                    request_id,
                    affinity,
                    body: TxBody::Ops(ops),
                })
            }
            0x02 => Ok(Frame::Ping),
            0x03 => Ok(Frame::Goodbye),
            0x81 => {
                let request_id = body.u64()?;
                let code = body.u8()?;
                let status = Status::from_code(code).ok_or(FrameError::BadStatus(code))?;
                Ok(Frame::Status { request_id, status })
            }
            0x82 => Ok(Frame::Pong),
            t => Err(FrameError::BadTag(t)),
        }
    }

    fn decode_op(body: &mut Body<'_>) -> Result<WorkOp, FrameError> {
        match body.u8()? {
            0 => Ok(WorkOp::Malloc {
                id: body.u64()?,
                size: body.u64()?,
            }),
            1 => Ok(WorkOp::Free { id: body.u64()? }),
            2 => Ok(WorkOp::Realloc {
                id: body.u64()?,
                new_size: body.u64()?,
            }),
            3 => Ok(WorkOp::Touch {
                id: body.u64()?,
                write: body.bool()?,
            }),
            4 => Ok(WorkOp::Compute { instr: body.u64()? }),
            5 => Ok(WorkOp::StaticTouch {
                offset: body.u64()?,
                len: body.u64()?,
            }),
            6 => Ok(WorkOp::EndTx),
            t => Err(FrameError::BadOpTag(t)),
        }
    }
}

type Decoded = Result<Option<(Frame, usize)>, FrameError>;

/// The codec and the reference agree on `buf`: the same `Ok`, or errors
/// of the same variant with the same payload — except `Corrupt`, whose
/// `need`/`have` count the codec's op record rather than one field.
fn agree(buf: &[u8], max_ops: usize) {
    let got: Decoded = Decoder::new().with_max_ops(max_ops).decode(buf);
    let want: Decoded = reference::decode(buf, max_ops);
    let same = match (&got, &want) {
        (Err(FrameError::Corrupt { .. }), Err(FrameError::Corrupt { .. })) => true,
        _ => got == want,
    };
    prop_assert!(same, "codec {:?} vs reference {:?}", got, want);
}

/// Any op a valid frame may carry: allocation sizes are nonzero.
fn work_op() -> impl Strategy<Value = WorkOp> {
    prop_oneof![
        (any::<u64>(), 1u64..(1 << 32)).prop_map(|(id, size)| WorkOp::Malloc { id, size }),
        any::<u64>().prop_map(|id| WorkOp::Free { id }),
        (any::<u64>(), 1u64..(1 << 32)).prop_map(|(id, new_size)| WorkOp::Realloc { id, new_size }),
        (any::<u64>(), any::<bool>()).prop_map(|(id, write)| WorkOp::Touch { id, write }),
        any::<u64>().prop_map(|instr| WorkOp::Compute { instr }),
        (any::<u64>(), any::<u64>()).prop_map(|(offset, len)| WorkOp::StaticTouch { offset, len }),
        Just(WorkOp::EndTx),
    ]
}

fn tx_body() -> impl Strategy<Value = TxBody> {
    collection::vec(work_op(), 0..40).prop_map(TxBody::Ops)
}

fn submit() -> impl Strategy<Value = Frame> {
    (any::<u64>(), any::<bool>(), any::<u64>(), tx_body()).prop_map(
        |(request_id, has_affinity, key, body)| Frame::Submit {
            request_id,
            affinity: has_affinity.then_some(key),
            body,
        },
    )
}

fn frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        4 => submit(),
        1 => Just(Frame::Ping),
        1 => Just(Frame::Goodbye),
        2 => (any::<u64>(), 0u8..5u8).prop_map(|(request_id, code)| Frame::Status {
            request_id,
            status: Status::from_code(code).expect("codes 0..5 are valid"),
        }),
        1 => Just(Frame::Pong),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// encode → decode is the identity, and decode consumes exactly the
    /// encoded bytes.
    #[test]
    fn any_frame_round_trips(f in frame()) {
        let mut buf = Vec::new();
        encode(&f, &mut buf);
        let (back, used) = Decoder::new()
            .decode(&buf)
            .expect("valid encoding decodes")
            .expect("complete frame decodes");
        prop_assert_eq!(back, f);
        prop_assert_eq!(used, buf.len());
    }

    /// Split-read torture: arriving one byte at a time, every proper
    /// prefix is `Ok(None)` ("need more") and the full buffer yields the
    /// frame — no prefix is ever an error, because a partial read is not
    /// a protocol violation.
    #[test]
    fn one_byte_at_a_time_is_need_more_until_complete(f in frame()) {
        let mut wire = Vec::new();
        encode(&f, &mut wire);
        let d = Decoder::new();
        let mut rbuf = Vec::new();
        for (i, b) in wire.iter().enumerate() {
            rbuf.push(*b);
            let step = d.decode(&rbuf).expect("prefixes of valid frames never error");
            if i + 1 < wire.len() {
                prop_assert_eq!(step, None, "premature decode at byte {}", i);
            } else {
                let (back, used) = step.expect("complete at the last byte");
                prop_assert_eq!(back, f);
                prop_assert_eq!(used, wire.len());
            }
        }
    }

    /// A whole stream of frames survives arbitrary re-chunking: however
    /// the bytes are sliced, the reassembly loop recovers exactly the
    /// original frame sequence.
    #[test]
    fn frame_streams_survive_rechunking(
        frames in collection::vec(frame(), 1..8),
        chunks in collection::vec(1usize..9, 1..64),
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            encode(f, &mut wire);
        }
        let d = Decoder::new();
        let mut rbuf: Vec<u8> = Vec::new();
        let mut out = Vec::new();
        let mut fed = 0;
        let mut chunk_iter = chunks.iter().cycle();
        while fed < wire.len() {
            let n = (*chunk_iter.next().expect("cycle")).min(wire.len() - fed);
            rbuf.extend_from_slice(&wire[fed..fed + n]);
            fed += n;
            while let Some((f, used)) = d.decode(&rbuf).expect("valid stream") {
                out.push(f);
                rbuf.drain(..used);
            }
        }
        prop_assert!(rbuf.is_empty(), "no bytes may be left over");
        prop_assert_eq!(out, frames);
    }

    /// Truncation *inside* the length-delimited body — a lying length
    /// prefix claiming a shorter body over real frame bytes — is a typed
    /// error, never a success and never a panic.
    #[test]
    fn truncated_bodies_are_typed_errors(f in submit(), cut_seed in any::<u64>()) {
        let mut wire = Vec::new();
        encode(&f, &mut wire);
        let body_len = wire.len() - HEADER_LEN;
        // Submit bodies are always at least 2 bytes (tag + fields).
        prop_assert!(body_len >= 2);
        let cut = 1 + (cut_seed as usize) % (body_len - 1); // 1..body_len
        wire[..HEADER_LEN].copy_from_slice(&(cut as u32).to_le_bytes());
        let got = Decoder::new().decode(&wire[..HEADER_LEN + cut]);
        prop_assert!(got.is_err(), "cut at {} of {} must not decode: {:?}", cut, body_len, got);
    }

    /// Arbitrary bytes never panic the decoder, and whatever it claims
    /// to consume actually exists in the buffer.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..512)) {
        if let Ok(Some((_, used))) = Decoder::new().decode(&bytes) {
            prop_assert!(used <= bytes.len());
            prop_assert!(used >= HEADER_LEN);
        }
    }

    /// A length prefix above the configured cap is refused as
    /// `Oversized` before any body byte is examined or buffered,
    /// whatever follows it.
    #[test]
    fn oversized_announcements_are_refused_up_front(
        extra in 1u32..1000,
        junk in collection::vec(any::<u8>(), 0..32),
    ) {
        let max = 1024usize;
        let mut wire = (max as u32 + extra).to_le_bytes().to_vec();
        wire.extend_from_slice(&junk);
        let got = Decoder::new().with_max_frame(max).decode(&wire);
        prop_assert_eq!(
            got,
            Err(FrameError::Oversized { len: max + extra as usize, max })
        );
    }

    /// The encoder writes exactly the reference's bytes, appending after
    /// whatever the buffer already holds.
    #[test]
    fn encode_is_byte_identical_to_the_reference(
        frames in collection::vec(frame(), 1..4),
        prefix in collection::vec(any::<u8>(), 0..8),
    ) {
        let (mut got, mut want) = (prefix.clone(), prefix);
        for f in &frames {
            encode(f, &mut got);
            reference::encode(f, &mut want);
        }
        prop_assert_eq!(got, want);
    }

    /// A lying length prefix cuts a valid frame anywhere, and the
    /// decoders agree on the outcome.
    #[test]
    fn cut_frames_decode_like_the_reference(f in frame(), cut_seed in any::<u64>()) {
        let mut wire = Vec::new();
        encode(&f, &mut wire);
        let body_len = wire.len() - HEADER_LEN;
        let cut = 1 + (cut_seed as usize) % body_len; // 1..=body_len
        wire[..HEADER_LEN].copy_from_slice(&(cut as u32).to_le_bytes());
        agree(&wire[..HEADER_LEN + cut], DEFAULT_MAX_OPS);
    }

    /// One byte of a valid frame replaced by any other value — a bad
    /// tag, a bad flag, a shorter or longer op, a wrong count or length
    /// — and the decoders agree on the outcome.
    #[test]
    fn flipped_bytes_decode_like_the_reference(
        f in submit(),
        at_seed in any::<u64>(),
        flip in 1u8..=255,
        max_ops in prop_oneof![Just(DEFAULT_MAX_OPS), 0usize..40],
    ) {
        let mut wire = Vec::new();
        encode(&f, &mut wire);
        let at = (at_seed as usize) % wire.len();
        wire[at] ^= flip;
        agree(&wire, max_ops);
    }

    /// Arbitrary bytes — raw, and as the op list of a well-formed
    /// `Submit` header with a correct length prefix — decode alike.
    #[test]
    fn arbitrary_bytes_decode_like_the_reference(
        bytes in collection::vec(any::<u8>(), 0..256),
        count in 0u32..48,
    ) {
        agree(&bytes, DEFAULT_MAX_OPS);
        let mut body = vec![0x01];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&[0, 1]); // no affinity, inline ops
        body.extend_from_slice(&count.to_le_bytes());
        body.extend_from_slice(&bytes);
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        agree(&wire, DEFAULT_MAX_OPS);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// A zero-byte `Malloc` or `Realloc` anywhere in an otherwise valid
    /// op list is `ZeroSize`, in the codec as in the reference.
    #[test]
    fn zero_byte_allocations_are_refused_like_the_reference(
        ops in collection::vec(work_op(), 0..40),
        at_seed in any::<u64>(),
        id in any::<u64>(),
        realloc in any::<bool>(),
    ) {
        let mut ops = ops;
        let zero = if realloc {
            WorkOp::Realloc { id, new_size: 0 }
        } else {
            WorkOp::Malloc { id, size: 0 }
        };
        ops.insert((at_seed as usize) % (ops.len() + 1), zero);
        let mut wire = Vec::new();
        encode(
            &Frame::Submit { request_id: 1, affinity: None, body: TxBody::Ops(ops) },
            &mut wire,
        );
        prop_assert_eq!(Decoder::new().decode(&wire), Err(FrameError::ZeroSize));
        agree(&wire, DEFAULT_MAX_OPS);
    }
}

/// A `Submit` carrying every op kind, as it travels on the wire. Any
/// change to these bytes is a protocol change, whichever side made it.
#[test]
fn golden_submit_frame_is_pinned() {
    let frame = Frame::Submit {
        request_id: 0x0102_0304_0506_0708,
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
    };
    let golden = concat!(
        "67000000",         // body length 103
        "01",               // Submit
        "0807060504030201", // request id
        "01",
        "adde000000000000", // affinity Some(0xDEAD)
        "01",
        "07000000", // inline ops, 7 of them
        "00",
        "0100000000000000",
        "4000000000000000", // Malloc 1, 64
        "03",
        "0100000000000000",
        "01", // Touch 1, write
        "02",
        "0100000000000000",
        "8000000000000000", // Realloc 1, 128
        "01",
        "0100000000000000", // Free 1
        "04",
        "8403000000000000", // Compute 900
        "05",
        "1000000000000000",
        "2000000000000000", // StaticTouch 16, 32
        "06",               // EndTx
    );
    let mut wire = Vec::new();
    encode(&frame, &mut wire);
    let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, golden);
    let (back, used) = Decoder::new()
        .decode(&wire)
        .expect("golden frame decodes")
        .expect("golden frame is complete");
    assert_eq!(back, frame);
    assert_eq!(used, wire.len());
}
