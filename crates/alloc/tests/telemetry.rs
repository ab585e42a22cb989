//! Cross-family `HeapTelemetry` sanity checks.
//!
//! Every [`Allocator`] carries the [`webmm_obs::HeapTelemetry`] supertrait,
//! so a [`Heap`](webmm_alloc::Heap) answers `heap_snapshot()` whatever
//! the family. These tests drive each of the eight families through the same
//! malloc/free/freeAll script and assert the snapshot invariants the
//! sampler relies on: mirrors answer from Rust-side state only (no port
//! access, hence zero simulated instructions), live/free occupancy moves
//! with the workload, and freeAll calls are counted for bulk-free families.

use webmm_alloc::{Allocator, AllocatorKind, HeapTelemetry};
use webmm_sim::PlainPort;

/// A lazily-created allocator has an all-zero heap snapshot.
#[test]
fn fresh_snapshot_is_empty() {
    for kind in AllocatorKind::ALL {
        let a = kind.build(0);
        let s = a.heap_snapshot();
        assert!(!s.allocator.is_empty(), "{kind:?} must name itself");
        assert_eq!(s.heap_bytes, 0, "{kind:?} heap before first malloc");
        assert_eq!(s.live_objects(), 0, "{kind:?} live before first malloc");
        assert_eq!(s.free_all_count, 0, "{kind:?} freeAll count");
    }
}

/// After a burst of allocations every family reports a non-empty heap,
/// live occupancy, and a snapshot that serializes to JSON.
#[test]
fn snapshot_tracks_allocation_burst() {
    for kind in AllocatorKind::ALL {
        let mut port = PlainPort::new();
        let mut a = kind.build(0);
        let objs: Vec<_> = (0..64)
            .map(|i| a.malloc(&mut port, 24 + (i % 5) * 40).unwrap())
            .collect();
        let s = a.heap_snapshot();
        assert!(s.heap_bytes > 0, "{kind:?} heap after mallocs");
        assert!(s.touched_bytes > 0, "{kind:?} touched after mallocs");
        assert!(s.tx_live_bytes > 0, "{kind:?} tx-live after mallocs");
        assert!(s.peak_tx_bytes >= s.tx_live_bytes, "{kind:?} peak >= live");
        assert!(s.segments > 0, "{kind:?} segments after mallocs");
        assert_eq!(s.live_objects(), 64, "{kind:?} live object count");
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"heap_bytes\""), "{kind:?} serializes");

        // Per-object free moves objects from live to free lists (region
        // and obstack free by rewinding only, so their mirrors hold).
        // Check free-list occupancy mid-drain — alternating frees keep
        // blocks from coalescing back into the wilderness — then confirm
        // the live count reaches zero after the full drain.
        if a.alloc_traits().per_object_free {
            for o in objs.iter().step_by(2) {
                a.free(&mut port, *o);
            }
            let s = a.heap_snapshot();
            assert!(s.free_list_len > 0, "{kind:?} free lists mid-drain");
            assert_eq!(s.live_objects(), 32, "{kind:?} live mid-drain");
            for o in objs.iter().skip(1).step_by(2) {
                a.free(&mut port, *o);
            }
            assert_eq!(a.heap_snapshot().live_objects(), 0, "{kind:?} drained");
        }
    }
}

/// Snapshots never touch simulated memory: the instruction counter is
/// byte-for-byte identical with and without telemetry reads. This is the
/// observability analogue of DDmalloc's no-per-object-header rule.
#[test]
fn snapshot_does_not_perturb_simulated_cost() {
    for kind in AllocatorKind::ALL {
        let run = |observe: bool| {
            let mut port = PlainPort::new();
            let mut a = kind.build(0);
            for i in 0..128 {
                let o = a.malloc(&mut port, 16 + (i % 9) * 24).unwrap();
                if observe {
                    let _ = a.heap_snapshot();
                }
                if a.alloc_traits().per_object_free && i % 3 == 0 {
                    a.free(&mut port, o);
                }
            }
            port.instructions()
        };
        assert_eq!(run(false), run(true), "{kind:?} snapshot must be free");
    }
}

/// Bulk-free families count freeAll calls and accumulate wall cost; the
/// reset also clears transaction-scoped occupancy.
#[test]
fn free_all_resets_occupancy_and_accumulates_cost() {
    for kind in AllocatorKind::ALL {
        let mut port = PlainPort::new();
        let mut a = kind.build(0);
        if !a.alloc_traits().bulk_free {
            continue; // glibc/Hoard/TCmalloc panic on freeAll by design
        }
        for _ in 0..32 {
            a.malloc(&mut port, 128).unwrap();
        }
        a.free_all(&mut port);
        let s = a.heap_snapshot();
        assert_eq!(s.free_all_count, 1, "{kind:?} freeAll counted");
        assert_eq!(s.tx_live_bytes, 0, "{kind:?} tx-live after freeAll");
        assert_eq!(
            s.classes.iter().map(|c| c.live).sum::<u64>(),
            0,
            "{kind:?} live occupancy after freeAll"
        );
        a.malloc(&mut port, 128).unwrap();
        a.free_all(&mut port);
        assert_eq!(a.heap_snapshot().free_all_count, 2, "{kind:?} count");
    }
}
