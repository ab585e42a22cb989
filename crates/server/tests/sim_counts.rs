//! Golden simulated work: the executor's instruction and event counts are
//! pinned, so a change to the native substrate (dispatch, inlining, the
//! memory image, bookkeeping arithmetic) cannot silently change what the
//! simulation charges.
//!
//! Every allocator kind replays the same fixed phpBB stream (scale 1/256,
//! seed 7, 100 transactions: the benchmark's inputs) on a fresh
//! [`TxExecutor`]. The expected values were recorded from the `Box<dyn
//! Allocator>` executor that preceded static dispatch. A change that
//! means to alter the simulated work must re-record them and say why.

use webmm_alloc::{Allocator, AllocatorKind, Footprint, OpStats};
use webmm_server::{ServerConfig, TxExecutor, TxFactory};
use webmm_workload::phpbb;

const SCALE: u32 = 256;
const SEED: u64 = 7;
const TX: usize = 100;

/// Payload bytes the stream touches; allocator-independent.
const BYTES_TOUCHED: u64 = 5_683_420;

struct Golden {
    kind: AllocatorKind,
    sim_instructions: u64,
    stats: OpStats,
    footprint: Footprint,
}

const fn stats(frees: u64, free_alls: u64) -> OpStats {
    OpStats {
        mallocs: 18_300,
        frees,
        reallocs: 300,
        free_alls,
        bytes_requested: 1_016_483,
    }
}

const fn footprint(heap_bytes: u64, metadata_bytes: u64, peak_tx_alloc_bytes: u64) -> Footprint {
    Footprint {
        heap_bytes,
        metadata_bytes,
        peak_tx_alloc_bytes,
    }
}

const GOLDEN: [Golden; 8] = [
    Golden {
        kind: AllocatorKind::PhpDefault,
        sim_instructions: 9_799_791,
        stats: stats(16_862, 100),
        footprint: footprint(262_144, 2_256, 4_408),
    },
    Golden {
        kind: AllocatorKind::Region,
        sim_instructions: 8_367_600,
        stats: stats(0, 100),
        footprint: footprint(268_435_456, 64, 14_296),
    },
    Golden {
        kind: AllocatorKind::Obstack,
        sim_instructions: 8_423_337,
        stats: stats(0, 100),
        footprint: footprint(65_536, 80, 14_296),
    },
    Golden {
        kind: AllocatorKind::DdMalloc,
        sim_instructions: 8_814_084,
        stats: stats(16_862, 100),
        footprint: footprint(983_040, 82_464, 5_440),
    },
    Golden {
        kind: AllocatorKind::Dl,
        sim_instructions: 10_176_965,
        stats: stats(18_300, 0),
        footprint: footprint(1_048_576, 2_256, 4_408),
    },
    Golden {
        kind: AllocatorKind::Hoard,
        sim_instructions: 9_314_982,
        stats: stats(18_300, 0),
        footprint: footprint(73_728, 664, 6_040),
    },
    Golden {
        kind: AllocatorKind::TcMalloc,
        sim_instructions: 9_047_693,
        stats: stats(18_300, 0),
        footprint: footprint(884_736, 17_832, 4_304),
    },
    Golden {
        kind: AllocatorKind::Reaps,
        sim_instructions: 10_157_745,
        stats: stats(16_862, 100),
        footprint: footprint(262_144, 2_256, 4_408),
    },
];

#[test]
fn every_kind_does_the_pinned_simulated_work() {
    assert_eq!(
        GOLDEN.map(|g| g.kind),
        AllocatorKind::ALL,
        "one golden row per kind"
    );
    for g in &GOLDEN {
        let mut factory = TxFactory::new(phpbb(), SCALE, SEED);
        let mut exec = TxExecutor::new(0, g.kind, ServerConfig::default().static_bytes);
        for _ in 0..TX {
            exec.execute(&factory.next_tx().ops);
        }
        let kind = g.kind;
        assert_eq!(exec.sim_instructions(), g.sim_instructions, "{kind}");
        assert_eq!(exec.report().bytes_touched, BYTES_TOUCHED, "{kind}");
        assert_eq!(exec.report().orphan_ops, 0, "{kind}");
        assert_eq!(exec.heap().stats(), g.stats, "{kind}");
        assert_eq!(exec.heap().footprint(), g.footprint, "{kind}");
    }
}
