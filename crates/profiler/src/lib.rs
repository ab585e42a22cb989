//! # webmm-profiler: the paper's measurement lenses
//!
//! Turns [`RunResult`]s from [`webmm_runtime`] into the quantities the
//! paper reports:
//!
//! * CPU-time-per-transaction breakdowns into *memory management* and
//!   *others* (Figures 1, 6 and 11) — [`breakdown`];
//! * percentage changes in hardware events versus the default allocator
//!   (Figure 8) — [`event_deltas`];
//! * memory consumption under the paper's per-allocator definitions
//!   (Figure 9) — [`memory_consumption`];
//! * plain-text table and bar-chart renderers for the harness binaries —
//!   [`report`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;

// `webmm-server` reaches the op interpreter through this crate: a direct
// edge to `webmm-runtime` would rewrite `perfbench/Cargo.lock`.
pub use webmm_runtime::{EndTx, OpInterpreter};

use serde::Serialize;
use webmm_runtime::RunResult;

/// CPU cycles per transaction split the way Figures 1, 6 and 11 split
/// them: time inside `malloc`/`free`/`realloc`/`freeAll` versus everything
/// else.
#[derive(Clone, Debug, Serialize)]
pub struct Breakdown {
    /// Allocator display name.
    pub allocator: String,
    /// Cycles per transaction in memory management.
    pub mm_cycles: f64,
    /// Cycles per transaction in the rest of the program.
    pub other_cycles: f64,
}

impl Breakdown {
    /// Total cycles per transaction.
    pub fn total(&self) -> f64 {
        self.mm_cycles + self.other_cycles
    }

    /// Memory management share of CPU time (0..1).
    pub fn mm_share(&self) -> f64 {
        self.mm_cycles / self.total()
    }
}

/// Extracts the Figure 6-style breakdown from a run.
pub fn breakdown(result: &RunResult) -> Breakdown {
    Breakdown {
        allocator: result.allocator.clone(),
        mm_cycles: result.throughput.mm_cycles_per_tx,
        other_cycles: result.throughput.app_cycles_per_tx,
    }
}

/// Percentage change of each Figure 8 event, relative to a baseline run
/// (the default allocator of the PHP runtime in the paper).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct EventDeltas {
    /// Total instructions (%).
    pub instructions: f64,
    /// L1 instruction-cache misses (%).
    pub l1i_misses: f64,
    /// L1 data-cache misses (%).
    pub l1d_misses: f64,
    /// D-TLB misses (%).
    pub dtlb_misses: f64,
    /// L2 cache misses (%).
    pub l2_misses: f64,
    /// Bus transactions (%).
    pub bus_txns: f64,
}

impl EventDeltas {
    /// The Figure 8 display order: `(label, value)` pairs.
    pub fn series(&self) -> [(&'static str, f64); 6] {
        [
            ("total instructions", self.instructions),
            ("L1I cache miss", self.l1i_misses),
            ("L1D cache miss", self.l1d_misses),
            ("D-TLB miss", self.dtlb_misses),
            ("L2 cache miss", self.l2_misses),
            ("bus transaction", self.bus_txns),
        ]
    }
}

fn pct_change(ours: f64, base: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    (ours / base - 1.0) * 100.0
}

/// Computes Figure 8's per-transaction event changes of `result` against
/// `baseline` (same workload, same machine, same core count).
///
/// # Panics
///
/// Panics if the two runs used different workloads or machines.
pub fn event_deltas(result: &RunResult, baseline: &RunResult) -> EventDeltas {
    assert_eq!(
        result.workload, baseline.workload,
        "delta across different workloads"
    );
    assert_eq!(
        result.machine, baseline.machine,
        "delta across different machines"
    );
    let per_tx = |r: &RunResult, f: &dyn Fn(&webmm_sim::EventCounts) -> u64| {
        let t = r.total_events().total();
        f(&t) as f64 / (r.measured_tx as f64 * r.events.len() as f64)
    };
    EventDeltas {
        instructions: pct_change(
            per_tx(result, &|e| e.instructions),
            per_tx(baseline, &|e| e.instructions),
        ),
        l1i_misses: pct_change(
            per_tx(result, &|e| e.l1i_misses),
            per_tx(baseline, &|e| e.l1i_misses),
        ),
        l1d_misses: pct_change(
            per_tx(result, &|e| e.l1d_misses),
            per_tx(baseline, &|e| e.l1d_misses),
        ),
        dtlb_misses: pct_change(
            per_tx(result, &|e| e.dtlb_misses),
            per_tx(baseline, &|e| e.dtlb_misses),
        ),
        l2_misses: pct_change(
            per_tx(result, &|e| e.l2_misses),
            per_tx(baseline, &|e| e.l2_misses),
        ),
        bus_txns: pct_change(
            per_tx(result, &|e| e.bus_txns),
            per_tx(baseline, &|e| e.bus_txns),
        ),
    }
}

/// Memory consumption under the paper's Figure 9 definitions:
///
/// * default allocator — "the amount of memory allocated from the
///   underlying memory allocator" (heap bytes from the OS);
/// * DDmalloc — "the total amount of memory used for allocated segments
///   and the metadata";
/// * region-based — "the total amount of memory allocated during a
///   transaction" (the 256 MB reservations are *not* consumption);
/// * other allocators — heap bytes from the OS, like the default.
pub fn memory_consumption(result: &RunResult) -> u64 {
    match result.allocator_id.as_str() {
        "ddmalloc" => result.footprint.heap_bytes + result.footprint.metadata_bytes,
        "region" | "obstack" => result.footprint.peak_tx_alloc_bytes,
        _ => result.footprint.heap_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webmm_alloc::AllocatorKind;
    use webmm_runtime::{run, RunConfig};
    use webmm_sim::MachineConfig;
    use webmm_workload::phpbb;

    fn quick(kind: AllocatorKind) -> RunResult {
        let machine = MachineConfig::xeon_clovertown();
        run(
            &machine,
            &RunConfig::new(kind, phpbb())
                .scale(64)
                .cores(1)
                .window(1, 2),
        )
    }

    #[test]
    fn breakdown_shares_are_sane() {
        let b = breakdown(&quick(AllocatorKind::PhpDefault));
        assert!(b.total() > 0.0);
        assert!(
            b.mm_share() > 0.02 && b.mm_share() < 0.6,
            "mm share {}",
            b.mm_share()
        );
    }

    #[test]
    fn region_reduces_mm_time_most() {
        // Figure 6: region cuts mm time ~85%, DDmalloc ~56-65%.
        let base = breakdown(&quick(AllocatorKind::PhpDefault));
        let reg = breakdown(&quick(AllocatorKind::Region));
        let dd = breakdown(&quick(AllocatorKind::DdMalloc));
        let reg_cut = 1.0 - reg.mm_cycles / base.mm_cycles;
        let dd_cut = 1.0 - dd.mm_cycles / base.mm_cycles;
        assert!(
            reg_cut > dd_cut,
            "region must cut more ({reg_cut} vs {dd_cut})"
        );
        assert!(reg_cut > 0.7, "region mm cut {reg_cut}");
        assert!((0.3..0.9).contains(&dd_cut), "dd mm cut {dd_cut}");
    }

    #[test]
    fn deltas_of_self_are_zero() {
        let r = quick(AllocatorKind::PhpDefault);
        let d = event_deltas(&r, &r);
        for (label, v) in d.series() {
            assert!(v.abs() < 1e-9, "{label} = {v}");
        }
    }

    #[test]
    fn region_moves_fewer_instructions() {
        let base = quick(AllocatorKind::PhpDefault);
        let reg = quick(AllocatorKind::Region);
        let d = event_deltas(&reg, &base);
        assert!(d.instructions < -5.0, "instructions {}", d.instructions);
    }

    #[test]
    fn memory_consumption_definitions() {
        let base = memory_consumption(&quick(AllocatorKind::PhpDefault));
        let dd = memory_consumption(&quick(AllocatorKind::DdMalloc));
        let reg = quick(AllocatorKind::Region);
        let reg_mem = memory_consumption(&reg);
        assert!(base > 0 && dd > 0 && reg_mem > 0);
        // Region's metric must be per-transaction allocation, not the
        // 256 MB chunk reservation.
        assert!(reg_mem < 256 * 1024 * 1024);
        assert_eq!(reg_mem, reg.footprint.peak_tx_alloc_bytes);
    }

    #[test]
    #[should_panic(expected = "different workloads")]
    fn deltas_reject_mismatched_workloads() {
        let machine = MachineConfig::xeon_clovertown();
        let a = run(
            &machine,
            &RunConfig::new(AllocatorKind::PhpDefault, phpbb())
                .scale(64)
                .cores(1)
                .window(0, 1),
        );
        let b = run(
            &machine,
            &RunConfig::new(AllocatorKind::PhpDefault, webmm_workload::specweb())
                .scale(64)
                .cores(1)
                .window(0, 1),
        );
        event_deltas(&a, &b);
    }
}
