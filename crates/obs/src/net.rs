//! Network-tier observation: the shared traffic counters and the
//! front-end's per-thread counter blocks.
//!
//! `webmm-net` puts a real TCP tier in front of the serving harness;
//! both of its halves — the connection front-end and the load-generator
//! client — describe their traffic with the same [`NetCounters`] block,
//! so server-side and client-side JSON reports stay field-compatible
//! and reconciliation tests can diff them directly.
//!
//! The front-end counts every event once, into the [`FrontEndBlock`] of
//! the thread that saw it. Its drain report and every live `ObsSample`
//! are both [`FrontEndCounters::sum`]s of the same blocks, so the live
//! view and the report cannot disagree about what was counted.

use std::sync::atomic::{AtomicU64, Ordering};

/// One side's view of network traffic. For the server front-end,
/// `conns_accepted` counts accepted sockets; for the client, established
/// connections (reconnects included).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NetCounters {
    /// Connections brought up.
    pub conns_accepted: u64,
    /// Connections wound down in an orderly way (goodbye, EOF, idle
    /// timeout, drain).
    pub conns_closed: u64,
    /// Connections discarded abnormally: refused at the backlog cap,
    /// killed by an I/O error, or thrown away mid-drain.
    pub conns_dropped: u64,
    /// Payload bytes read off sockets.
    pub bytes_in: u64,
    /// Payload bytes written to sockets.
    pub bytes_out: u64,
    /// Whole frames decoded.
    pub frames_in: u64,
    /// Whole frames encoded and sent.
    pub frames_out: u64,
    /// Protocol violations observed (malformed frames, unexpected frame
    /// kinds, response/request id mismatches).
    pub protocol_errors: u64,
}

impl NetCounters {
    /// Folds `other` into `self` (summing every field) — how per-handler
    /// tallies merge into one report.
    pub fn merge(&mut self, other: &NetCounters) {
        self.conns_accepted += other.conns_accepted;
        self.conns_closed += other.conns_closed;
        self.conns_dropped += other.conns_dropped;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.protocol_errors += other.protocol_errors;
    }
}

/// The live counter block of one front-end thread (a connection
/// handler, or the acceptor), written with relaxed atomic adds and
/// aligned to a cache line so no two threads' writes share one. Each
/// cell counts what the [`FrontEndCounters`] field of the same name
/// reports; reports and live samples both read it through
/// [`FrontEndCounters::sum`].
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct FrontEndBlock {
    pub conns_accepted: AtomicU64,
    pub conns_closed: AtomicU64,
    pub conns_dropped: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    pub frames_in: AtomicU64,
    pub frames_out: AtomicU64,
    pub protocol_errors: AtomicU64,
    pub requests: AtomicU64,
    pub pings: AtomicU64,
    pub accepted: AtomicU64,
    pub shed_accepted: AtomicU64,
    pub rejected: AtomicU64,
    pub draining: AtomicU64,
    pub oversized: AtomicU64,
    pub conns_open: AtomicU64,
}

/// Adds `n` to one front-end cell. Relaxed: a counter publishes no other
/// data, and readers only sum.
#[inline]
pub fn bump(cell: &AtomicU64, n: u64) {
    cell.fetch_add(n, Ordering::Relaxed);
}

/// The front-end's counters at one instant: the fields of `NetReport`
/// that the tier itself counts, plus the connections open right now.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FrontEndCounters {
    /// Traffic counters (shared schema with the client side).
    pub net: NetCounters,
    /// Submit requests answered.
    pub requests: u64,
    /// Pings answered.
    pub pings: u64,
    /// `Accepted` responses issued.
    pub accepted: u64,
    /// `AcceptedSheddingOldest` responses issued.
    pub shed_accepted: u64,
    /// `Rejected` responses issued.
    pub rejected: u64,
    /// `Draining` responses issued.
    pub draining: u64,
    /// `TooLarge` responses issued.
    pub oversized: u64,
    /// Connections being served (0 once the tier has drained).
    pub conns_open: u64,
}

impl FrontEndCounters {
    /// Sums every block's cells. Each cell is read atomically, the set of
    /// them is not: a mid-run sum may catch one thread between two
    /// related counts. Once the front-end threads are joined, it is exact.
    #[must_use]
    pub fn sum(blocks: &[FrontEndBlock]) -> Self {
        let total = |cell: fn(&FrontEndBlock) -> &AtomicU64| {
            blocks
                .iter()
                .map(|b| cell(b).load(Ordering::Relaxed))
                .sum::<u64>()
        };
        FrontEndCounters {
            net: NetCounters {
                conns_accepted: total(|b| &b.conns_accepted),
                conns_closed: total(|b| &b.conns_closed),
                conns_dropped: total(|b| &b.conns_dropped),
                bytes_in: total(|b| &b.bytes_in),
                bytes_out: total(|b| &b.bytes_out),
                frames_in: total(|b| &b.frames_in),
                frames_out: total(|b| &b.frames_out),
                protocol_errors: total(|b| &b.protocol_errors),
            },
            requests: total(|b| &b.requests),
            pings: total(|b| &b.pings),
            accepted: total(|b| &b.accepted),
            shed_accepted: total(|b| &b.shed_accepted),
            rejected: total(|b| &b.rejected),
            draining: total(|b| &b.draining),
            oversized: total(|b| &b.oversized),
            conns_open: total(|b| &b.conns_open),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_adds_each_cell_into_its_own_field() {
        assert_eq!(std::mem::align_of::<FrontEndBlock>(), 64);
        let blocks = [FrontEndBlock::default(), FrontEndBlock::default()];
        bump(&blocks[0].bytes_in, 3);
        bump(&blocks[1].bytes_in, 4);
        bump(&blocks[1].protocol_errors, 1);
        bump(&blocks[0].oversized, 2);
        bump(&blocks[1].conns_open, 1);
        let expected = FrontEndCounters {
            net: NetCounters {
                bytes_in: 7,
                protocol_errors: 1,
                ..NetCounters::default()
            },
            oversized: 2,
            conns_open: 1,
            ..FrontEndCounters::default()
        };
        assert_eq!(FrontEndCounters::sum(&blocks), expected);
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = NetCounters {
            conns_accepted: 1,
            conns_closed: 2,
            conns_dropped: 3,
            bytes_in: 4,
            bytes_out: 5,
            frames_in: 6,
            frames_out: 7,
            protocol_errors: 8,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(
            a,
            NetCounters {
                conns_accepted: 2,
                conns_closed: 4,
                conns_dropped: 6,
                bytes_in: 8,
                bytes_out: 10,
                frames_in: 12,
                frames_out: 14,
                protocol_errors: 16,
            }
        );
    }
}
