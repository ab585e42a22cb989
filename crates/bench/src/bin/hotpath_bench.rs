//! Hot-path microbenchmarks: each zero-allocation optimization isolated.
//!
//! The serving-loop rework (dense object tables, tx-buffer recycling,
//! amortized timing) shows up in `native_shootout` as one combined
//! throughput delta; this harness measures each ingredient alone so a
//! regression in one cannot hide behind an improvement in another:
//!
//! * **object_table** — replaying identical workload op sequences against
//!   the generation-stamped [`ObjectTable`] and against the
//!   `HashMap<u64, _>` it replaced (ns/op);
//! * **tx_buffers** — building transactions out of pool-recycled op
//!   buffers vs a fresh `Vec` per transaction (ns/tx);
//! * **timestamps** — the dequeue-side clock discipline: one
//!   `Instant::now()` per drained batch vs one per transaction (ns/tx);
//! * **serving** — a mini end-to-end run through the server, checking
//!   the accounting identity `submitted == completed + shed` and that the
//!   buffer pool actually recycles at steady state.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p webmm-bench --bin hotpath_bench -- \
//!     [--tx 20000] [--batch 32] [--seed 42] [--out BENCH_hotpath.json]
//! ```

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use webmm_profiler::report::{heading, table};
use webmm_server::{drive_closed, Server, ServerConfig, TxBufferPool, TxFactory};
use webmm_workload::{phpbb, ObjectTable, WorkOp};

/// Everything one invocation measured, as written to `BENCH_hotpath.json`.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct HotpathReport {
    /// Transactions per measured section.
    tx: u64,
    /// Batch size used by the timestamp section (mirrors the server's
    /// default drain batch).
    batch: u64,
    parallelism: u64,
    object_table: TableSection,
    tx_buffers: BufferSection,
    timestamps: TimestampSection,
    serving: ServingSection,
}

/// Dense table vs `HashMap` on identical op sequences.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct TableSection {
    /// Map-touching ops replayed per structure.
    ops: u64,
    dense_ns_per_op: f64,
    hashmap_ns_per_op: f64,
    /// `hashmap / dense` — above 1.0 means the dense table is faster.
    speedup: f64,
}

/// Pool-recycled vs freshly allocated transaction op buffers.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct BufferSection {
    /// Ops copied into each buffer.
    ops_per_tx: u64,
    pooled_ns_per_tx: f64,
    fresh_ns_per_tx: f64,
    /// `fresh / pooled` — above 1.0 means recycling is faster.
    speedup: f64,
    /// Recycled-buffer hits observed by the pool during the pooled run
    /// (must be ~all gets: the loop returns every buffer it takes).
    recycled: u64,
    fresh_allocations: u64,
}

/// One timestamp per drained batch vs one per transaction.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct TimestampSection {
    per_batch_ns_per_tx: f64,
    per_tx_ns_per_tx: f64,
    /// `per_tx / per_batch` — above 1.0 means batching the clock wins.
    speedup: f64,
}

/// One mini serving run.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct ServingSection {
    submitted: u64,
    completed: u64,
    shed: u64,
    /// `submitted == completed + shed` (also asserted at runtime).
    identity_holds: bool,
    tx_per_sec: f64,
    /// Buffer-pool traffic: recycled must dominate fresh at steady state.
    pool_recycled: u64,
    pool_fresh: u64,
    pool_returned: u64,
}

struct Args {
    tx: u64,
    batch: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        tx: 20_000,
        batch: 32,
        seed: 42,
        out: "BENCH_hotpath.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--tx" => args.tx = value().parse().expect("--tx takes a count"),
            "--batch" => args.batch = value().parse().expect("--batch takes a count"),
            "--seed" => args.seed = value().parse().expect("--seed takes a u64"),
            "--out" => args.out = value(),
            other => {
                eprintln!("unknown flag `{other}`");
                eprintln!("usage: hotpath_bench [--tx N] [--batch N] [--seed N] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    assert!(args.tx > 0, "--tx must be nonzero");
    assert!(args.batch > 0, "--batch must be nonzero");
    args
}

/// Pre-generates `tx` whole transactions' op sequences from the phpBB
/// stream, so every measured loop replays identical, realistic traffic.
fn generate_ops(tx: u64, seed: u64) -> Vec<Vec<WorkOp>> {
    let mut factory = TxFactory::new(phpbb(), 1024, seed);
    (0..tx).map(|_| factory.next_tx().ops).collect()
}

/// Replays the transactions against the dense table, timing only the map
/// traffic (the structure under test); returns (ns total, map ops).
fn replay_dense(txs: &[Vec<WorkOp>]) -> (u64, u64) {
    let mut table: ObjectTable<(u64, u64)> = ObjectTable::with_capacity(1024);
    let mut ops = 0u64;
    let start = Instant::now();
    for tx in txs {
        for op in tx {
            match *op {
                WorkOp::Malloc { id, size } => {
                    table.insert(id, (id, size));
                    ops += 1;
                }
                WorkOp::Free { id } => {
                    black_box(table.remove(id));
                    ops += 1;
                }
                WorkOp::Realloc { id, new_size } => {
                    if let Some((addr, _)) = table.get(id) {
                        table.insert(id, (addr, new_size));
                    }
                    ops += 1;
                }
                WorkOp::Touch { id, .. } => {
                    black_box(table.get(id));
                    ops += 1;
                }
                WorkOp::EndTx => {
                    table.clear();
                    ops += 1;
                }
                _ => {}
            }
        }
    }
    let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    black_box(table.len());
    (ns, ops)
}

/// The `HashMap` baseline the dense table replaced, on the same traffic.
fn replay_hashmap(txs: &[Vec<WorkOp>]) -> (u64, u64) {
    let mut map: HashMap<u64, (u64, u64)> = HashMap::with_capacity(1024);
    let mut ops = 0u64;
    let start = Instant::now();
    for tx in txs {
        for op in tx {
            match *op {
                WorkOp::Malloc { id, size } => {
                    map.insert(id, (id, size));
                    ops += 1;
                }
                WorkOp::Free { id } => {
                    black_box(map.remove(&id));
                    ops += 1;
                }
                WorkOp::Realloc { id, new_size } => {
                    if let Some(&(addr, _)) = map.get(&id) {
                        map.insert(id, (addr, new_size));
                    }
                    ops += 1;
                }
                WorkOp::Touch { id, .. } => {
                    black_box(map.get(&id));
                    ops += 1;
                }
                WorkOp::EndTx => {
                    map.clear();
                    ops += 1;
                }
                _ => {}
            }
        }
    }
    let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    black_box(map.len());
    (ns, ops)
}

/// Measurement passes per section: alternating repeats with the minimum
/// taken, so a scheduler hiccup in one pass cannot decide a comparison
/// (this host may have a single CPU).
const PASSES: usize = 3;

fn bench_object_table(txs: &[Vec<WorkOp>]) -> TableSection {
    // Warm both structures once, then measure alternately.
    replay_dense(&txs[..txs.len().min(64)]);
    replay_hashmap(&txs[..txs.len().min(64)]);
    let mut dense_ns = u64::MAX;
    let mut hash_ns = u64::MAX;
    let mut ops = 0;
    for _ in 0..PASSES {
        let (d, n) = replay_dense(txs);
        let (h, hash_ops) = replay_hashmap(txs);
        assert_eq!(n, hash_ops, "both replays must see identical traffic");
        dense_ns = dense_ns.min(d);
        hash_ns = hash_ns.min(h);
        ops = n;
    }
    let dense = dense_ns as f64 / ops as f64;
    let hash = hash_ns as f64 / ops as f64;
    TableSection {
        ops,
        dense_ns_per_op: dense,
        hashmap_ns_per_op: hash,
        speedup: hash / dense.max(f64::MIN_POSITIVE),
    }
}

fn bench_tx_buffers(txs: &[Vec<WorkOp>]) -> BufferSection {
    let template = &txs[0];
    let rounds = txs.len() as u64;

    // Both loops replicate `TxFactory::next_tx` exactly: ops arrive one at
    // a time from the stream, so they are pushed one at a time. What
    // differs is where the buffer comes from.
    let pool = TxBufferPool::new(1, 4);
    pool.put(Vec::with_capacity(16));
    let mut pooled_ns = u64::MAX;
    let mut fresh_ns = u64::MAX;
    for _ in 0..PASSES {
        // Pooled: every buffer taken is returned, so after the first
        // round the pool always has one to recycle — with its capacity
        // grown once and kept.
        let start = Instant::now();
        for _ in 0..rounds {
            let mut buf = pool.get();
            for op in template {
                buf.push(*op);
            }
            black_box(buf.len());
            pool.put(buf);
        }
        pooled_ns = pooled_ns.min(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);

        // Fresh: the pre-rework cost — `Vec::new()` regrown from empty
        // and dropped, every transaction.
        let start = Instant::now();
        for _ in 0..rounds {
            let mut buf: Vec<WorkOp> = Vec::new();
            for op in template {
                buf.push(*op);
            }
            black_box(buf.len());
            drop(buf);
        }
        fresh_ns = fresh_ns.min(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    let stats = pool.stats();

    let pooled = pooled_ns as f64 / rounds as f64;
    let fresh = fresh_ns as f64 / rounds as f64;
    BufferSection {
        ops_per_tx: template.len() as u64,
        pooled_ns_per_tx: pooled,
        fresh_ns_per_tx: fresh,
        speedup: fresh / pooled.max(f64::MIN_POSITIVE),
        recycled: stats.recycled,
        fresh_allocations: stats.fresh,
    }
}

fn bench_timestamps(tx: u64, batch: u64) -> TimestampSection {
    let mut per_batch_ns = u64::MAX;
    let mut per_tx_ns = u64::MAX;
    for _ in 0..PASSES {
        // Per-batch discipline: one clock read per batch for queue-wait,
        // one per transaction for completion — what the worker loop now
        // does.
        let start = Instant::now();
        let mut acc = 0u64;
        let mut remaining = tx;
        while remaining > 0 {
            let n = batch.min(remaining);
            let batch_start = Instant::now();
            for _ in 0..n {
                let done = Instant::now();
                acc = acc.wrapping_add(done.duration_since(batch_start).as_nanos() as u64);
            }
            remaining -= n;
        }
        black_box(acc);
        per_batch_ns =
            per_batch_ns.min(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);

        // Per-tx discipline: the pre-rework two clock reads per
        // transaction.
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..tx {
            let dequeued = Instant::now();
            let done = Instant::now();
            acc = acc.wrapping_add(done.duration_since(dequeued).as_nanos() as u64);
        }
        black_box(acc);
        per_tx_ns = per_tx_ns.min(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    let per_batch = per_batch_ns as f64 / tx as f64;
    let per_tx = per_tx_ns as f64 / tx as f64;
    TimestampSection {
        per_batch_ns_per_tx: per_batch,
        per_tx_ns_per_tx: per_tx,
        speedup: per_tx / per_batch.max(f64::MIN_POSITIVE),
    }
}

fn bench_serving(tx: u64, batch: usize, seed: u64) -> ServingSection {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 128,
        batch,
        static_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    drive_closed(&server, TxFactory::new(phpbb(), 1024, seed), tx, 4);
    let report = server.finish();
    let identity = report.submitted == report.completed + report.shed;
    assert!(
        identity,
        "accounting identity broken: {} != {} + {}",
        report.submitted, report.completed, report.shed
    );
    ServingSection {
        submitted: report.submitted,
        completed: report.completed,
        shed: report.shed,
        identity_holds: identity,
        tx_per_sec: report.tx_per_sec,
        pool_recycled: report.pool.recycled,
        pool_fresh: report.pool.fresh,
        pool_returned: report.pool.returned,
    }
}

fn main() {
    let args = parse_args();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    print!(
        "{}",
        heading(&format!(
            "Hot-path microbenchmarks: {} tx/section, batch {}, host parallelism {}",
            args.tx, args.batch, parallelism
        ))
    );

    let txs = generate_ops(args.tx, args.seed);
    let object_table = bench_object_table(&txs);
    let tx_buffers = bench_tx_buffers(&txs);
    let timestamps = bench_timestamps(args.tx, args.batch as u64);
    let serving = bench_serving(args.tx, args.batch, args.seed);

    let mut rows = vec![vec![
        "section".to_string(),
        "optimized".to_string(),
        "baseline".to_string(),
        "speedup".to_string(),
    ]];
    rows.push(vec![
        "object_table (ns/op)".to_string(),
        format!("{:8.2}", object_table.dense_ns_per_op),
        format!("{:8.2}", object_table.hashmap_ns_per_op),
        format!("{:5.2}x", object_table.speedup),
    ]);
    rows.push(vec![
        "tx_buffers (ns/tx)".to_string(),
        format!("{:8.2}", tx_buffers.pooled_ns_per_tx),
        format!("{:8.2}", tx_buffers.fresh_ns_per_tx),
        format!("{:5.2}x", tx_buffers.speedup),
    ]);
    rows.push(vec![
        "timestamps (ns/tx)".to_string(),
        format!("{:8.2}", timestamps.per_batch_ns_per_tx),
        format!("{:8.2}", timestamps.per_tx_ns_per_tx),
        format!("{:5.2}x", timestamps.speedup),
    ]);
    print!("{}", table(&rows));

    let s = &serving;
    println!(
        "serving: {} submitted = {} completed + {} shed; \
         {:.1} tx/s; pool {} recycled / {} fresh",
        s.submitted, s.completed, s.shed, s.tx_per_sec, s.pool_recycled, s.pool_fresh
    );

    let report = HotpathReport {
        tx: args.tx,
        batch: args.batch as u64,
        parallelism,
        object_table,
        tx_buffers,
        timestamps,
        serving,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("\nwrote {}", args.out);
}
