//! Touched-footprint time series over one transaction: the Figure 9
//! space story, watched live through [`HeapTelemetry`].
//!
//! Figure 9 reports end-of-run memory-consumption ratios; this bin shows
//! *how they get there*. It replays a single transaction op-by-op against
//! the region allocator and DDmalloc (plus the Zend default as baseline),
//! through the runtime's `OpInterpreter` with the native worker's
//! end-of-transaction policy (`EndTx::EmptyHeap`), sampling
//! `heap_snapshot()` every few operations. The region
//! allocator's touched footprint is monotone — no per-object free means
//! every short-lived object stays hot until `freeAll` — while DDmalloc's
//! free lists absorb and recycle the churn, so its touched curve flattens
//! once the per-class working sets saturate.
//!
//! ```text
//! cargo run --release -p webmm-bench --bin obs_footprint -- \
//!     [--workload phpbb] [--scale 8] [--seed 42] [--every 64] \
//!     [--out BENCH_obs_footprint.json]
//! ```

use webmm_alloc::{Allocator, AllocatorKind, HeapTelemetry};
use webmm_profiler::report::{bytes, heading, table};
use webmm_runtime::{EndTx, OpInterpreter};
use webmm_sim::{MemoryPort, PageSize, PlainPort};
use webmm_workload::{by_name, TxStream, WorkOp};

/// One sampled point of the footprint curve.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct FootprintPoint {
    /// Operation index within the transaction at which the snapshot was
    /// taken (`u64::MAX`-free; the post-`freeAll` sample reuses the last
    /// op index).
    op: u64,
    /// Objects live in the heap at this point.
    live: u64,
    /// Bytes of heap the allocator has touched (written) so far.
    touched_bytes: u64,
    /// Bytes of heap reserved from the OS.
    heap_bytes: u64,
    /// Bytes sitting on free lists — reusable-but-held mass.
    free_bytes: u64,
}

/// One allocator's full curve.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct FootprintSeries {
    allocator: String,
    workload: String,
    scale: u32,
    series: Vec<FootprintPoint>,
}

fn point(op: u64, interp: &OpInterpreter) -> FootprintPoint {
    let snap = interp.heap().heap_snapshot();
    FootprintPoint {
        op,
        live: snap.live_objects(),
        touched_bytes: snap.touched_bytes,
        heap_bytes: snap.heap_bytes,
        free_bytes: snap.free_bytes,
    }
}

/// Replays one transaction against a fresh heap, snapshotting every
/// `every` ops, then ends it as a native worker does (emptying the heap)
/// and takes a closing sample.
fn run_one(
    kind: AllocatorKind,
    workload: &str,
    scale: u32,
    seed: u64,
    every: u64,
) -> FootprintSeries {
    // Exact paper name first ("phpBB"), then case-insensitive substring
    // ("phpbb", "sugar") for CLI convenience.
    let spec = by_name(workload)
        .or_else(|| {
            let needle = workload.to_lowercase();
            webmm_workload::php_workloads()
                .into_iter()
                .find(|w| w.name.to_lowercase().contains(&needle))
        })
        .unwrap_or_else(|| {
            eprintln!("unknown workload `{workload}`");
            std::process::exit(2);
        });
    let mut port = PlainPort::new();
    let static_base = port.os_alloc(spec.static_bytes.max(4096), 4096, PageSize::Base);
    let mut stream = TxStream::new(spec, scale, seed);
    let mut interp = OpInterpreter::new(kind.build(0), static_base, (), EndTx::EmptyHeap);
    let mut series = vec![point(0, &interp)];
    let mut op_idx = 0u64;
    loop {
        let op = stream.next_op();
        op_idx += 1;
        if op == WorkOp::EndTx {
            break;
        }
        interp.step(&mut port, op);
        if op_idx.is_multiple_of(every) {
            series.push(point(op_idx, &interp));
        }
    }
    series.push(point(op_idx, &interp));
    interp.step(&mut port, WorkOp::EndTx);
    series.push(point(op_idx, &interp));
    FootprintSeries {
        allocator: interp.heap().name().to_string(),
        workload: workload.to_string(),
        scale,
        series,
    }
}

fn main() {
    let mut workload = "phpbb".to_string();
    let mut scale = 8u32;
    let mut seed = 42u64;
    let mut every = 64u64;
    let mut out = "BENCH_obs_footprint.json".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--workload" => workload = value(),
            "--scale" => scale = value().parse().expect("--scale takes a divisor"),
            "--seed" => seed = value().parse().expect("--seed takes a u64"),
            "--every" => every = value().parse().expect("--every takes an op count"),
            "--out" => out = value(),
            other => {
                eprintln!("unknown flag `{other}`");
                eprintln!(
                    "usage: obs_footprint [--workload NAME] [--scale N] [--seed N] \
                     [--every N] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    let every = every.max(1);

    let kinds = [
        AllocatorKind::PhpDefault,
        AllocatorKind::Region,
        AllocatorKind::DdMalloc,
    ];
    let runs: Vec<FootprintSeries> = kinds
        .iter()
        .map(|&k| run_one(k, &workload, scale, seed, every))
        .collect();

    print!(
        "{}",
        heading(&format!(
            "Touched footprint over one {workload} transaction (scale 1/{scale}, sample every {every} ops)"
        ))
    );
    let mut rows = vec![vec![
        "op".to_string(),
        format!("{} touched", runs[0].allocator),
        format!("{} touched", runs[1].allocator),
        format!("{} touched", runs[2].allocator),
        "region live".to_string(),
        "ddmalloc free bytes".to_string(),
    ]];
    // The three series sample at the same op indices until their (equal
    // length) transaction ends; print up to 14 evenly spaced rows.
    let n = runs.iter().map(|r| r.series.len()).min().unwrap_or(0);
    let step = (n / 13).max(1);
    let mut idxs: Vec<usize> = (0..n).step_by(step).collect();
    if idxs.last() != Some(&(n - 1)) {
        idxs.push(n - 1);
    }
    for i in idxs {
        rows.push(vec![
            format!("{}", runs[0].series[i].op),
            bytes(runs[0].series[i].touched_bytes),
            bytes(runs[1].series[i].touched_bytes),
            bytes(runs[2].series[i].touched_bytes),
            format!("{}", runs[1].series[i].live),
            bytes(runs[2].series[i].free_bytes),
        ]);
    }
    print!("{}", table(&rows));

    let last_tx = |r: &FootprintSeries| r.series[r.series.len() - 2].touched_bytes.max(1);
    println!(
        "\nend-of-tx touched: region {:.2}x of default, ddmalloc {:.2}x of default",
        last_tx(&runs[1]) as f64 / last_tx(&runs[0]) as f64,
        last_tx(&runs[2]) as f64 / last_tx(&runs[0]) as f64,
    );
    println!("(last row is the post-freeAll sample: occupancy drops to zero, touched stays.)");

    let json = serde_json::to_string_pretty(&runs).expect("series serialize");
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("wrote {} series to {out}", runs.len());
}
