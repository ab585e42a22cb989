//! Heap telemetry: live introspection of allocator internals.
//!
//! The paper's Fig. 9 argues that "memory consumption" means something
//! different under every allocator — a region's touched high-water mark,
//! DDmalloc's segment count, a boundary-tag heap's free-list mass. The
//! [`HeapTelemetry`] trait makes each family report its own internals in
//! one shared vocabulary so the serving harness can sample a worker's
//! heap mid-run and the dashboard can compare families side by side.
//!
//! Implementations answer from Rust-side mirror counters, *not* by
//! walking simulated memory: allocator metadata lives behind a
//! [`MemoryPort`](../../webmm_sim) and walking it would both need a port
//! handle and perturb the very instruction counts the study measures.
//! Keeping mirrors is the observability analogue of the paper's
//! no-per-object-header rule — the measured heap stays untouched.

/// Occupancy of one size class (or span/superblock class) at snapshot
/// time.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ClassOccupancy {
    /// Class index within the allocator's own class table.
    pub class: u32,
    /// Object size this class serves, in bytes.
    pub object_size: u64,
    /// Objects currently live (allocated, not yet freed).
    pub live: u64,
    /// Entries on this class's free list, ready for reuse.
    pub free: u64,
}

/// Point-in-time view of one worker heap's internals.
///
/// Families fill the fields that exist for them and leave the rest zero /
/// empty: a bump allocator has no free lists, a boundary-tag heap has no
/// size classes. [`HeapSnapshot::default`] is the all-zero snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HeapSnapshot {
    /// Allocator name, as in `webmm_alloc::Allocator::name` (e.g. `"ddmalloc"`).
    pub allocator: String,
    /// Bytes reserved from the (simulated) OS.
    pub heap_bytes: u64,
    /// High-water mark of bytes actually touched — the paper's honest
    /// footprint measure for lazily-committed memory.
    pub touched_bytes: u64,
    /// Bytes of allocator metadata (headers, maps, directories).
    pub metadata_bytes: u64,
    /// Payload bytes allocated in the current transaction so far.
    pub tx_live_bytes: u64,
    /// Largest in-transaction allocation total seen by this heap — how
    /// far a single transaction has ever stretched it.
    pub peak_tx_bytes: u64,
    /// Segments / chunks / superblocks / spans currently held, in the
    /// family's own unit.
    pub segments: u64,
    /// Total entries across all free lists (0 where none exist).
    pub free_list_len: u64,
    /// Bytes those free-list entries cover — the reusable-but-held mass a
    /// defragmenting allocator carries between transactions.
    pub free_bytes: u64,
    /// Bulk `freeAll` calls served so far.
    pub free_all_count: u64,
    /// Per-class occupancy, empty for classless families.
    pub classes: Vec<ClassOccupancy>,
}

impl HeapSnapshot {
    /// Sum of live objects across all classes.
    pub fn live_objects(&self) -> u64 {
        self.classes.iter().map(|c| c.live).sum()
    }
}

/// Live introspection hook every allocator family implements.
///
/// This is a supertrait of `webmm_alloc::Allocator`, so any boxed
/// allocator can be snapshotted without downcasting. The snapshot must be
/// answerable from the allocator's own Rust-side state — no port access,
/// no simulated-memory walks — so taking one is cheap and side-effect
/// free.
pub trait HeapTelemetry {
    /// Reports this heap's internals right now.
    fn heap_snapshot(&self) -> HeapSnapshot;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_snapshot_is_empty() {
        let s = HeapSnapshot::default();
        assert_eq!(s.allocator, "");
        assert_eq!(s.live_objects(), 0);
        assert!(s.classes.is_empty());
    }

    #[test]
    fn live_objects_sums_classes() {
        let s = HeapSnapshot {
            classes: vec![
                ClassOccupancy {
                    class: 0,
                    object_size: 8,
                    live: 3,
                    free: 1,
                },
                ClassOccupancy {
                    class: 1,
                    object_size: 16,
                    live: 4,
                    free: 0,
                },
            ],
            ..HeapSnapshot::default()
        };
        assert_eq!(s.live_objects(), 7);
    }

    #[test]
    fn snapshot_roundtrips_through_serde() {
        let s = HeapSnapshot {
            allocator: "ddmalloc".into(),
            heap_bytes: 1 << 20,
            touched_bytes: 4096,
            segments: 3,
            classes: vec![ClassOccupancy {
                class: 2,
                object_size: 32,
                live: 5,
                free: 7,
            }],
            ..HeapSnapshot::default()
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: HeapSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
