//! The multicore measurement engine.
//!
//! Runs one process per hardware context, interleaving their operation
//! streams through the shared [`MemHierarchy`] in small slices so that L2
//! capacity sharing, prefetcher interaction, and mutual cache pollution
//! are simulated rather than modeled. After a warm-up window the engine
//! snapshots each context's hardware counters over a measurement window of
//! whole transactions; the bus-contention fixed point
//! ([`crate::throughput`]) then turns events into cycles and throughput.

use crate::process::{AllocatorSpec, Process, StepEvent};
use crate::throughput::{solve, Throughput};
use serde::Serialize;
use webmm_alloc::{AllocatorKind, DdConfig, Footprint};
use webmm_sim::{CategorizedCounts, MachineConfig, MemHierarchy};
use webmm_workload::WorkloadSpec;

/// Operations executed per context before rotating to the next (the
/// interleaving granularity; fine enough that contexts genuinely share the
/// caches, coarse enough to keep the simulation fast).
const SLICE_OPS: u32 = 32;

/// Configuration of one measurement run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Allocator under test.
    pub allocator: AllocatorSpec,
    /// Workload to serve.
    pub workload: WorkloadSpec,
    /// Per-transaction op counts are divided by this (1 = paper scale).
    pub scale: u32,
    /// How many of the machine's cores to use (the paper's Figure 7 core
    /// sweep); every hardware thread of an active core runs a process.
    pub active_cores: u32,
    /// Transactions per context discarded as warm-up.
    pub warmup_tx: u64,
    /// Transactions per context measured.
    pub measure_tx: u64,
    /// Restart processes every N transactions (Ruby study).
    pub restart_every: Option<u64>,
    /// Whether the runtime calls `freeAll` at transaction end (the Ruby
    /// study disables it even for DDmalloc).
    pub use_free_all: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl RunConfig {
    /// A conventional configuration: `kind` on `workload` using all eight
    /// cores, scale 16, 2 warm-up + 6 measured transactions.
    pub fn new(kind: AllocatorKind, workload: WorkloadSpec) -> Self {
        RunConfig {
            allocator: AllocatorSpec::new(kind),
            workload,
            scale: 16,
            active_cores: 8,
            warmup_tx: 2,
            measure_tx: 6,
            restart_every: None,
            use_free_all: true,
            seed: 0x5EED,
        }
    }

    /// Sets the workload scale divisor.
    pub fn scale(mut self, scale: u32) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the number of active cores.
    pub fn cores(mut self, cores: u32) -> Self {
        self.active_cores = cores;
        self
    }

    /// Sets warm-up and measured transaction counts per context.
    pub fn window(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup_tx = warmup;
        self.measure_tx = measure;
        self
    }

    /// Sets Ruby-style periodic process restart.
    pub fn restart_every(mut self, n: Option<u64>) -> Self {
        self.restart_every = n;
        self
    }

    /// Disables the transaction-end `freeAll` (the §4.4 Ruby runtime).
    pub fn no_free_all(mut self) -> Self {
        self.use_free_all = false;
        self
    }

    /// Overrides the DDmalloc configuration (ablation studies).
    pub fn dd_config(mut self, cfg: DdConfig) -> Self {
        self.allocator.dd_override = Some(cfg);
        self
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct RunResult {
    /// Machine name.
    pub machine: String,
    /// Allocator display name (paper wording).
    pub allocator: String,
    /// Allocator id.
    pub allocator_id: String,
    /// Workload name.
    pub workload: String,
    /// Scale divisor used.
    pub scale: u32,
    /// Active cores.
    pub active_cores: u32,
    /// Hardware contexts that ran processes.
    pub contexts: usize,
    /// Event totals per context over its measurement window.
    pub events: Vec<CategorizedCounts>,
    /// Measured transactions per context.
    pub measured_tx: u64,
    /// Largest per-process footprint seen.
    pub footprint: Footprint,
    /// Solved throughput and cycle breakdown.
    pub throughput: Throughput,
}

impl RunResult {
    /// Sum of per-context event totals.
    pub fn total_events(&self) -> CategorizedCounts {
        let mut acc = CategorizedCounts::new();
        for e in &self.events {
            acc += *e;
        }
        acc
    }

    /// Average events per transaction, across all contexts (f64 fields via
    /// closure access on the summed counters).
    pub fn events_per_tx(&self, f: impl Fn(&CategorizedCounts) -> u64) -> f64 {
        let total = self.total_events();
        f(&total) as f64 / (self.measured_tx as f64 * self.events.len() as f64)
    }
}

/// Scales the machine for a `scale`-times-reduced workload: the L2
/// capacity shrinks with the per-transaction footprint so that the
/// footprint-to-cache ratios — which decide who pollutes and who fits —
/// match the full-scale machine. This is standard cache-sampling
/// methodology; L1s and TLBs are left alone because they serve the
/// *churn* working set, which does not grow with transaction length.
fn scaled_machine(machine: &MachineConfig, scale: u32) -> MachineConfig {
    assert!(
        scale.is_power_of_two(),
        "scale must be a power of two (cache sampling)"
    );
    if scale == 1 {
        return machine.clone();
    }
    let mut m = machine.clone();
    // Floor: 64 KB of L2 per hardware context sharing the array. Working
    // sets that do NOT scale with transaction length (allocator metadata,
    // the churn set of recycled objects) need the same headroom they have
    // at full scale; only footprints that grow with the transaction
    // (region streams, survivor tails) should feel the scaled capacity.
    // Repeated halving keeps the set count a power of two for any
    // associativity.
    let sharers = u64::from(machine.cores_per_l2 * machine.threads_per_core);
    // 96 KB of L2 per sharing context. Working sets whose reuse distance
    // does NOT scale with transaction length — the churn set of recycled
    // objects, whose re-reference gap is a fixed number of allocations
    // interleaved across all sharers — need the same headroom they have at
    // full scale; only footprints that grow with the transaction (survivor
    // tails, region streams) should feel the scaled capacity.
    let floor = 96 * 1024 * sharers;
    let min_geometry = u64::from(machine.l2.assoc) * machine.l2.line_bytes * 16;
    let mut size = machine.l2.size_bytes;
    let mut remaining = scale;
    while remaining > 1 && size / 2 >= floor && size / 2 >= min_geometry {
        size /= 2;
        remaining /= 2;
    }
    // The D-TLB is deliberately NOT scaled: its penalty feeds the cycle
    // model directly, and shrinking it makes every allocator's scaled heap
    // miss in ways the full-scale machines do not. The cost is that
    // Xeon's TLB covers scaled footprints entirely, so the large-page
    // ablation under-reports its full-scale throughput effect (the D-TLB
    // miss reduction itself still shows; see EXPERIMENTS.md).
    m.l2 = if machine.l2.hashed_index {
        webmm_sim::CacheConfig::new_hashed(size, machine.l2.line_bytes, machine.l2.assoc)
    } else {
        webmm_sim::CacheConfig::new(size, machine.l2.line_bytes, machine.l2.assoc)
    };
    m
}

/// Runs one configuration on one machine.
///
/// The workload scale divisor also scales the L2 (see `scaled_machine`)
/// and the shared static area, keeping the architectural ratios of the
/// full-size experiment.
///
/// # Panics
///
/// Panics if `active_cores` exceeds the machine's core count, if `scale`
/// is not a power of two, or if an allocator reports out-of-memory mid-run
/// (configuration error).
pub fn run(machine: &MachineConfig, cfg: &RunConfig) -> RunResult {
    assert!(
        cfg.active_cores >= 1 && cfg.active_cores <= machine.cores,
        "active_cores {} out of range 1..={}",
        cfg.active_cores,
        machine.cores
    );
    let machine = &scaled_machine(machine, cfg.scale);
    let mut workload = cfg.workload.clone();
    workload.static_bytes = (workload.static_bytes / u64::from(cfg.scale)).max(64 * 1024);
    // The paper maps DDmalloc's heap with 4 MB pages where the OS supports
    // it transparently (Niagara/Solaris), unless an ablation overrides.
    let mut allocator = cfg.allocator.clone();
    if allocator.kind == AllocatorKind::DdMalloc
        && allocator.dd_override.is_none()
        && machine.os_large_pages
    {
        allocator.dd_override = Some(DdConfig {
            large_pages: true,
            ..DdConfig::default()
        });
    }
    let contexts = (cfg.active_cores * machine.threads_per_core) as usize;
    let mut hier = MemHierarchy::new(machine);
    let mut procs: Vec<Process> = (0..contexts)
        .map(|ctx| {
            Process::with_free_all(
                ctx as u32,
                allocator.clone(),
                workload.clone(),
                cfg.scale,
                cfg.seed,
                cfg.restart_every,
                cfg.use_free_all,
            )
        })
        .collect();

    // Phase 1: warm-up. Interleave until every context has finished its
    // warm-up transactions.
    let mut warm_done = vec![false; contexts];
    while !warm_done.iter().all(|&d| d) {
        for ctx in 0..contexts {
            if warm_done[ctx] {
                continue; // stop early: warm-up needs no interference fairness
            }
            for _ in 0..SLICE_OPS {
                match procs[ctx].step(&mut hier, ctx) {
                    StepEvent::TxDoneRestarted => hier.flush_core(ctx),
                    StepEvent::TxDone => {}
                    StepEvent::Op => continue,
                }
                if procs[ctx].transactions() >= cfg.warmup_tx {
                    warm_done[ctx] = true;
                    break;
                }
            }
        }
    }

    // Phase 2: measurement. Counters restart from zero; every context runs
    // until it completes `measure_tx` more transactions, and keeps running
    // (for interference) until all are done — but its own counters are
    // snapshotted the moment it finishes.
    hier.reset_counters();
    let target: Vec<u64> = procs
        .iter()
        .map(|p| p.transactions() + cfg.measure_tx)
        .collect();
    let mut snapshot: Vec<Option<CategorizedCounts>> = vec![None; contexts];
    while snapshot.iter().any(|s| s.is_none()) {
        for ctx in 0..contexts {
            // Contexts that already finished keep executing (their cache
            // pollution is part of the measured contexts' environment);
            // only unfinished contexts still get snapshotted below.
            for _ in 0..SLICE_OPS {
                if procs[ctx].step(&mut hier, ctx) == StepEvent::TxDoneRestarted {
                    hier.flush_core(ctx);
                }
            }
            if snapshot[ctx].is_none() && procs[ctx].transactions() >= target[ctx] {
                snapshot[ctx] = Some(*hier.counters(ctx));
            }
        }
    }
    let events: Vec<CategorizedCounts> = snapshot
        .into_iter()
        .map(|s| s.expect("all contexts measured"))
        .collect();

    let footprint = procs
        .iter()
        .map(Process::peak_footprint)
        .max_by_key(|f| f.heap_bytes + f.metadata_bytes)
        .unwrap_or_default();

    let throughput = solve(machine, &events, cfg.measure_tx, cfg.active_cores);

    RunResult {
        machine: machine.name.clone(),
        allocator: procs[0].allocator_name().to_string(),
        allocator_id: cfg.allocator.kind.id().to_string(),
        workload: cfg.workload.name.to_string(),
        scale: cfg.scale,
        active_cores: cfg.active_cores,
        contexts,
        events,
        measured_tx: cfg.measure_tx,
        footprint,
        throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webmm_workload::phpbb;

    #[test]
    fn single_core_run_produces_sane_numbers() {
        let machine = MachineConfig::xeon_clovertown();
        let cfg = RunConfig::new(AllocatorKind::DdMalloc, phpbb())
            .scale(64)
            .cores(1)
            .window(1, 2);
        let r = run(&machine, &cfg);
        assert_eq!(r.contexts, 1);
        assert!(r.throughput.tx_per_sec > 0.0);
        assert!(r.throughput.cycles_per_tx > 0.0);
        assert!(r.events[0].total().instructions > 100_000);
        assert!(r.footprint.heap_bytes > 0);
    }

    #[test]
    fn more_cores_more_throughput() {
        let machine = MachineConfig::xeon_clovertown();
        let mk = |cores| {
            let cfg = RunConfig::new(AllocatorKind::DdMalloc, phpbb())
                .scale(64)
                .cores(cores)
                .window(1, 2);
            run(&machine, &cfg).throughput.tx_per_sec
        };
        let one = mk(1);
        let four = mk(4);
        assert!(
            four > 2.0 * one,
            "4 cores ({four}) must beat 1 core ({one}) by >2x"
        );
    }

    #[test]
    fn niagara_uses_four_threads_per_core() {
        let machine = MachineConfig::niagara_t1();
        let cfg = RunConfig::new(AllocatorKind::DdMalloc, phpbb())
            .scale(64)
            .cores(2)
            .window(1, 1);
        let r = run(&machine, &cfg);
        assert_eq!(r.contexts, 8);
    }

    #[test]
    fn deterministic_given_seed() {
        let machine = MachineConfig::xeon_clovertown();
        let cfg = RunConfig::new(AllocatorKind::PhpDefault, phpbb())
            .scale(64)
            .cores(2)
            .window(1, 1);
        let a = run(&machine, &cfg);
        let b = run(&machine, &cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.throughput.tx_per_sec, b.throughput.tx_per_sec);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_too_many_cores() {
        let machine = MachineConfig::xeon_clovertown();
        let cfg = RunConfig::new(AllocatorKind::DdMalloc, phpbb()).cores(9);
        run(&machine, &cfg);
    }
}
