//! Serving benchmark for the webmm native stack.
//!
//! ```text
//! webmm-perfbench --workload open|tcp --seed N --seconds S --trace 0|1 [--part K]
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds this package
//! first. Every workload serves phpBB transactions generated from `--seed`
//! through the worker pool of `webmm-server`, once per allocator family of
//! the paper's PHP study (php-default, region, ddmalloc):
//!
//! * `open` — in-process Poisson arrivals at a fixed rate below capacity:
//!   service latency as independent users would see it;
//! * `tcp` — closed-loop clients on persistent loopback connections
//!   through the `webmm-net` front-end: saturation throughput of the same
//!   pool behind the wire protocol.
//!
//! The transactions are generated before anything is timed and replayed
//! in order, so the generator's own cost never limits the rate. The
//! measured time is split into rounds; each round serves one segment per
//! allocator, rotating which goes first. Throughput is the median over
//! segments; latency percentiles are exact, over every transaction of
//! every segment: in-process from the server's span record of each
//! completion (measured from when the transaction was due),
//! over TCP from the client's own clock. Every run checks what the server
//! reports against an independent model of the workload. The last line of
//! standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`); see
//! `perfbench/README.md`.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webmm_alloc::AllocatorKind;
use webmm_net::{encode, Decoder, Frame, NetServer, NetServerConfig, Status, TxBody};
use webmm_obs::TxSpan;
use webmm_server::{
    ObsConfig, ObsSample, Server, ServerConfig, ServerReport, ServerTelemetry, Transaction,
    TxExecutor, TxFactory,
};
use webmm_workload::{phpbb, WorkOp};

/// Divisor of the paper's phpBB transaction size (46,965 mallocs per
/// transaction / 256 = 183 mallocs).
const SCALE: u32 = 256;
/// Distinct transactions generated per run and replayed in order.
const INPUT_TX: u64 = 100;
/// Client connections (and front-end handler threads) of the TCP
/// workload; see [`Workload::workers`].
const TCP_CONNECTIONS: usize = 1;
/// Mean arrival rate of the open workload, transactions per second.
const OPEN_RATE: f64 = 1000.0;
/// How long before an open-loop arrival is due the generator stops
/// sleeping and spins.
const SPIN: Duration = Duration::from_micros(150);
/// Measured rounds; each serves one segment per allocator.
const ROUNDS: u32 = 2;
/// Set-up cycles per allocator behind `setup_s`.
const SETUP_CYCLES: u32 = 2;
/// Transactions per allocator in the correctness check: every input.
const VERIFY_TX: u64 = INPUT_TX;
/// Per-worker span ring (covers a whole segment).
const TRACE_SPANS: usize = 1 << 17;
/// A response slower than this counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Open,
    Tcp,
}

impl Workload {
    /// Worker threads of the server under test, one heap each. Busy
    /// threads are kept to the two vCPUs the benchmark was tuned on: with
    /// more, runs measured the guest scheduler's placement, not the
    /// server (two workers behind two connections spread twice as far
    /// between runs as one behind one). In process the generator mostly
    /// sleeps, so two workers fit; over TCP the client and its handler
    /// take turns on one vCPU, leaving the other to one worker.
    fn workers(self) -> usize {
        match self {
            Workload::Open => 2,
            Workload::Tcp => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Which of the consecutive processes of one run this is: varies the
    /// open workload's arrival draws and which allocator goes first.
    part: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: webmm-perfbench --workload open|tcp --seed N --seconds S --trace 0|1 \
         [--part K]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut part = Some(0);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => {
                workload = match value.as_str() {
                    "open" => Some(Workload::Open),
                    "tcp" => Some(Workload::Tcp),
                    _ => usage(),
                }
            }
            "--seed" => seed = value.parse().ok(),
            "--part" => part = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace, part) {
        (Some(workload), Some(seed), Some(seconds), Some(trace), Some(part)) => Args {
            workload,
            seed,
            seconds,
            trace,
            part,
        },
        _ => usage(),
    }
}

/// SplitMix64: the benchmark's own deterministic source of arrival times,
/// independent of the generators under test.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn uniform(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no values");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `v` (nearest rank); 0 for no samples.
fn quantile(mut v: Vec<u64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// The server under test. With `spans`, workers record every
/// transaction's enqueue, dequeue and completion times into rings the
/// benchmark reads after the drain: the server's only exact record of
/// when each transaction completed.
fn server_config(workload: Workload, kind: AllocatorKind, spans: bool) -> ServerConfig {
    ServerConfig {
        kind,
        workers: workload.workers(),
        obs: spans.then(|| ObsConfig {
            run: kind.id().to_string(),
            trace_capacity: TRACE_SPANS,
            ..ObsConfig::default()
        }),
        ..ServerConfig::default()
    }
}

fn net_config() -> NetServerConfig {
    NetServerConfig {
        handlers: TCP_CONNECTIONS,
        ..NetServerConfig::default()
    }
}

/// Correctness failures found so far; any one makes `correct` false.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.0.push(msg);
        }
    }

    /// Invariants every drained server must satisfy: every offered
    /// transaction completed, nothing was shed, every heap was empty after
    /// every transaction, and no op referenced an object the worker did
    /// not hold.
    fn server(&mut self, kind: AllocatorKind, report: &ServerReport, offered: u64) {
        self.expect(
            report.submitted == offered && report.completed == offered && report.shed == 0,
            || {
                format!(
                    "{kind}: offered {offered}, submitted {}, completed {}, shed {}",
                    report.submitted, report.completed, report.shed
                )
            },
        );
        for w in &report.per_worker {
            self.expect(w.max_live_after_tx == 0 && w.orphan_ops == 0, || {
                format!(
                    "{kind}: worker {} left {} objects live, {} orphan ops",
                    w.worker, w.max_live_after_tx, w.orphan_ops
                )
            });
        }
    }
}

/// Reference model of the bytes a worker touches serving `ops`, written
/// from the workload's definition independently of the executor: a
/// malloc writes its bytes, a touch reads the object's current size, a
/// growing realloc writes the growth, a static touch reads its length,
/// and a transaction boundary forgets every object.
fn model_bytes_touched(ops: &[WorkOp]) -> u64 {
    let mut live: HashMap<u64, u64> = HashMap::new();
    let mut bytes = 0u64;
    for op in ops {
        match *op {
            WorkOp::Malloc { id, size } => {
                live.insert(id, size);
                bytes += size;
            }
            WorkOp::Free { id } => {
                live.remove(&id);
            }
            WorkOp::Realloc { id, new_size } => {
                if let Some(size) = live.get_mut(&id) {
                    bytes += new_size.saturating_sub(*size);
                    *size = new_size;
                }
            }
            WorkOp::Touch { id, .. } => bytes += live.get(&id).copied().unwrap_or(0),
            WorkOp::Compute { .. } => {}
            WorkOp::StaticTouch { len, .. } => bytes += len,
            WorkOp::EndTx => live.clear(),
        }
    }
    bytes
}

/// The benchmark's inputs: the first `INPUT_TX` transactions of the
/// phpBB stream for one seed, replayed in order (wrapping around).
struct Inputs {
    txs: Vec<Vec<WorkOp>>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let mut factory = TxFactory::new(phpbb(), SCALE, seed);
        Inputs {
            txs: (0..INPUT_TX).map(|_| factory.next_tx().ops).collect(),
        }
    }

    fn get(&self, seq: u64) -> &[WorkOp] {
        &self.txs[(seq % self.txs.len() as u64) as usize]
    }

    /// Transaction `seq` of the replay, its ops copied into `ops`.
    fn fill(&self, seq: u64, ops: &mut Vec<WorkOp>) {
        ops.clear();
        ops.extend_from_slice(self.get(seq));
    }

    /// Transaction `seq` in a buffer from the server's recycling pool.
    fn tx(&self, server: &Server, seq: u64) -> Transaction {
        let mut ops = server.buffer_pool().get();
        self.fill(seq, &mut ops);
        Transaction { id: seq, ops }
    }

    /// Model bytes touched by transactions `0..n` of the replay.
    fn model_bytes(&self, n: u64) -> u64 {
        (0..n).map(|seq| model_bytes_touched(self.get(seq))).sum()
    }
}

/// What one serving segment produced.
struct Segment {
    tx_per_s: f64,
    /// Exact per-transaction latencies, nanoseconds.
    latency_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    report: ServerReport,
    spans: Vec<TxSpan>,
    samples: Vec<ObsSample>,
    /// Open loop: how late each arrival was submitted, nanoseconds.
    lag_ns: Vec<u64>,
    /// TCP: bytes both ways on the wire.
    wire_bytes: u64,
}

/// Serves `inputs` on `kind` for `length` (or, with `limit`, exactly
/// that many transactions) and checks the drained server's books.
/// `schedule` seeds the open workload's arrival times.
fn segment(
    workload: Workload,
    kind: AllocatorKind,
    inputs: &Inputs,
    length: Duration,
    limit: Option<u64>,
    schedule: u64,
    checks: &mut Checks,
) -> Segment {
    let server = Server::start(server_config(workload, kind, true));
    let telemetry = Arc::clone(server.telemetry().expect("server spans are on"));
    let start = Instant::now();
    if workload == Workload::Tcp {
        return tcp_segment(
            server,
            telemetry,
            kind,
            inputs,
            start + length,
            limit,
            checks,
        );
    }
    // When each transaction was due, on the span clock, indexed by
    // transaction id.
    let mut issued_ns = Vec::new();
    let mut lag_ns = Vec::new();
    let arrivals = limit.unwrap_or((OPEN_RATE * length.as_secs_f64()).round() as u64);
    open_loop(
        &server,
        inputs,
        start,
        arrivals,
        schedule,
        &mut issued_ns,
        &mut lag_ns,
    );
    let offered = issued_ns.len() as u64;
    let (report, samples) = server.finish_with_obs();
    checks.server(kind, &report, offered);
    let spans = telemetry.dump_spans();
    checks.expect(spans.len() as u64 == report.completed, || {
        format!(
            "{kind}: span rings kept {} of {} completions",
            spans.len(),
            report.completed
        )
    });
    // Throughput runs to the last completion: the offered count is
    // fixed, so only the time taken varies.
    let last_ns = spans.iter().map(|s| s.complete_ns).max().unwrap_or(0);
    let busy_s = last_ns.saturating_sub(telemetry.tracer.ns_of(start)) as f64 / 1e9;
    let latency_ns = spans
        .iter()
        .filter_map(|s| {
            Some(
                s.complete_ns
                    .saturating_sub(*issued_ns.get(s.tx_id as usize)?),
            )
        })
        .collect();
    Segment {
        tx_per_s: report.completed as f64 / busy_s,
        latency_ns,
        attempted: offered,
        failed: offered - report.completed.min(offered),
        report,
        spans,
        samples,
        lag_ns,
        wire_bytes: 0,
    }
}

/// `arrivals` Poisson arrivals at `OPEN_RATE`, noting when each was due
/// and how late its submission was. The times are drawn uniformly over
/// the window the count fills, which is a Poisson process conditioned on
/// its count: the offered rate is exact, while arrivals still cluster and
/// leave gaps.
fn open_loop(
    server: &Server,
    inputs: &Inputs,
    start: Instant,
    arrivals: u64,
    schedule: u64,
    issued_ns: &mut Vec<u64>,
    lag_ns: &mut Vec<u64>,
) {
    let tracer = &server.telemetry().expect("server spans are on").tracer;
    let window = arrivals as f64 / OPEN_RATE;
    let mut times = SplitMix(schedule);
    let mut due: Vec<f64> = (0..arrivals).map(|_| times.uniform() * window).collect();
    due.sort_by(f64::total_cmp);
    for (seq, due) in (0..).zip(due) {
        // Built before its due time, so building never delays it.
        let tx = inputs.tx(server, seq);
        let at = start + Duration::from_secs_f64(due);
        // Sleep to just short of the due time, then spin: a plain sleep
        // overshoots by tens of microseconds, which would count as
        // latency against the server.
        let now = Instant::now();
        if at > now + SPIN {
            std::thread::sleep(at - now - SPIN);
        }
        while Instant::now() < at {
            std::hint::spin_loop();
        }
        issued_ns.push(tracer.ns_of(at));
        lag_ns.push(Instant::now().saturating_duration_since(at).as_nanos() as u64);
        server.submit(tx);
    }
}

/// What one benchmark-side TCP connection saw.
#[derive(Default)]
struct ConnOutcome {
    sent: u64,
    accepted: u64,
    failed: u64,
    latency_ns: Vec<u64>,
}

fn tcp_segment(
    server: Server,
    telemetry: Arc<ServerTelemetry>,
    kind: AllocatorKind,
    inputs: &Inputs,
    deadline: Instant,
    limit: Option<u64>,
    checks: &mut Checks,
) -> Segment {
    let start = Instant::now();
    let net = NetServer::bind(server, "127.0.0.1:0", net_config()).expect("bind loopback");
    let addr = net.local_addr();
    let next = AtomicU64::new(0);
    let limit = limit.unwrap_or(u64::MAX);
    let mut out = ConnOutcome::default();
    std::thread::scope(|scope| {
        let conns: Vec<_> = (0..TCP_CONNECTIONS as u64)
            .map(|c| {
                let next = &next;
                scope.spawn(move || tcp_connection(addr, c, inputs, next, deadline, limit))
            })
            .collect();
        for c in conns {
            let o = c.join().expect("client connection thread");
            out.sent += o.sent;
            out.accepted += o.accepted;
            out.failed += o.failed;
            out.latency_ns.extend(o.latency_ns);
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (net_report, samples) = net.finish_with_obs();
    checks.expect(
        net_report.reconciles() && net_report.accepted == out.accepted,
        || format!("{kind}: wire statuses do not reconcile: {net_report:?}"),
    );
    checks.server(kind, &net_report.server, out.accepted);
    Segment {
        tx_per_s: out.accepted as f64 / elapsed,
        latency_ns: out.latency_ns,
        attempted: out.sent,
        failed: out.failed,
        wire_bytes: net_report.net.bytes_in + net_report.net.bytes_out,
        report: net_report.server,
        spans: telemetry.dump_spans(),
        samples,
        lag_ns: Vec::new(),
    }
}

/// One persistent connection in a closed loop: send a transaction, wait
/// for its status, repeat until the deadline or the shared sequence
/// reaches `limit`. Latency is timed from the request's first byte
/// written to its status decoded.
fn tcp_connection(
    addr: SocketAddr,
    conn: u64,
    inputs: &Inputs,
    next: &AtomicU64,
    deadline: Instant,
    limit: u64,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        out.failed += 1;
        return out;
    };
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(REQUEST_TIMEOUT)).is_err()
    {
        out.failed += 1;
        return out;
    }
    let decoder = Decoder::new();
    let (mut wbuf, mut rbuf, mut chunk) = (Vec::new(), Vec::new(), vec![0u8; 4096]);
    let mut ops = Vec::new();
    while Instant::now() < deadline {
        let seq = next.fetch_add(1, Ordering::Relaxed);
        if seq >= limit {
            break;
        }
        inputs.fill(seq, &mut ops);
        let frame = Frame::Submit {
            request_id: seq,
            affinity: Some(conn),
            body: TxBody::Ops(ops),
        };
        wbuf.clear();
        encode(&frame, &mut wbuf);
        let Frame::Submit {
            body: TxBody::Ops(body),
            ..
        } = frame
        else {
            unreachable!("built as a submit frame above")
        };
        ops = body;
        out.sent += 1;
        let sent = Instant::now();
        let status = stream
            .write_all(&wbuf)
            .ok()
            .and_then(|()| read_status(&mut stream, &decoder, &mut rbuf, &mut chunk, seq));
        match status {
            Some(Status::Accepted) => {
                out.accepted += 1;
                out.latency_ns.push(sent.elapsed().as_nanos() as u64);
            }
            Some(_) => out.failed += 1,
            None => {
                // Timeout, disconnect or a malformed reply: this
                // connection is done.
                out.failed += 1;
                return out;
            }
        }
    }
    wbuf.clear();
    encode(&Frame::Goodbye, &mut wbuf);
    let _ = stream.write_all(&wbuf);
    out
}

/// Reads until the status frame for `seq` is decoded; `None` on any
/// error, end of stream, timeout or unexpected frame.
fn read_status(
    stream: &mut TcpStream,
    decoder: &Decoder,
    rbuf: &mut Vec<u8>,
    chunk: &mut [u8],
    seq: u64,
) -> Option<Status> {
    loop {
        match decoder.decode(rbuf) {
            Ok(Some((frame, used))) => {
                rbuf.drain(..used);
                return match frame {
                    Frame::Status { request_id, status } if request_id == seq => Some(status),
                    _ => None,
                };
            }
            Ok(None) => {}
            Err(_) => return None,
        }
        match stream.read(chunk) {
            Ok(0) => return None,
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// One set-up cycle: bring the serving stack up, serve one transaction
/// through it, drain it again. Returns seconds.
fn setup_cycle(
    workload: Workload,
    kind: AllocatorKind,
    inputs: &Inputs,
    checks: &mut Checks,
) -> f64 {
    let start = Instant::now();
    let server = Server::start(server_config(workload, kind, false));
    let report = if workload == Workload::Tcp {
        let net = NetServer::bind(server, "127.0.0.1:0", net_config()).expect("bind loopback");
        let next = AtomicU64::new(0);
        let out = tcp_connection(
            net.local_addr(),
            0,
            inputs,
            &next,
            start + REQUEST_TIMEOUT,
            1,
        );
        checks.expect(out.accepted == 1, || {
            format!("{kind}: set-up request failed")
        });
        net.finish().server
    } else {
        server.submit(inputs.tx(&server, 0));
        server.finish()
    };
    let secs = start.elapsed().as_secs_f64();
    checks.server(kind, &report, 1);
    secs
}

/// Serves the first `VERIFY_TX` inputs and checks the bytes the workers
/// touched against the model.
fn verify(
    workload: Workload,
    kind: AllocatorKind,
    inputs: &Inputs,
    checks: &mut Checks,
) -> Segment {
    let s = segment(
        workload,
        kind,
        inputs,
        REQUEST_TIMEOUT * 4,
        Some(VERIFY_TX),
        0,
        checks,
    );
    let touched: u64 = s.report.per_worker.iter().map(|w| w.bytes_touched).sum();
    let expected = inputs.model_bytes(VERIFY_TX);
    checks.expect(s.report.completed == VERIFY_TX && touched == expected, || {
        format!(
            "{kind}: {} of {VERIFY_TX} served, workers touched {touched} bytes, model says {expected}",
            s.report.completed
        )
    });
    s
}

/// Single-thread timing of one layer call per transaction, in
/// microseconds per transaction: the median over three passes.
fn time_per_tx(mut pass: impl FnMut() -> u64) -> f64 {
    median(
        (0..3)
            .map(|_| {
                let start = Instant::now();
                let n = pass();
                start.elapsed().as_secs_f64() * 1e6 / n as f64
            })
            .collect(),
    )
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Metric-name prefix of an allocator family (`php-default` → `php_default`).
fn prefix(kind: AllocatorKind) -> String {
    kind.id().replace('-', "_")
}

fn main() {
    let args = parse_args();
    let kinds = AllocatorKind::PHP_STUDY;
    let inputs = Inputs::generate(args.seed);
    eprintln!(
        "inputs: {} transactions, {} ops",
        inputs.txs.len(),
        inputs.txs.iter().map(Vec::len).sum::<usize>()
    );
    let mut checks = Checks::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |s: &Segment| {
        attempted += s.attempted;
        failed += s.failed;
    };

    let mut setup = Vec::new();
    for cycle in 0..SETUP_CYCLES as usize {
        for j in 0..kinds.len() {
            let kind = kinds[(j + cycle) % kinds.len()];
            setup.push(setup_cycle(args.workload, kind, &inputs, &mut checks));
        }
    }
    let setup_s = median(setup);

    for &kind in &kinds {
        tally(&verify(args.workload, kind, &inputs, &mut checks));
    }

    let length = Duration::from_secs_f64(args.seconds / f64::from(ROUNDS) / kinds.len() as f64);
    for &kind in &kinds {
        let warm = segment(
            args.workload,
            kind,
            &inputs,
            length / 4,
            None,
            0,
            &mut checks,
        );
        tally(&warm);
    }
    let mut segments: Vec<Vec<Segment>> = kinds.iter().map(|_| Vec::new()).collect();
    // Every allocator of a round sees the same arrival times; rounds and
    // parts draw fresh ones, so a run averages over many schedules.
    let mut schedules = SplitMix(args.seed ^ args.part.wrapping_mul(0xa076_1d64_78bd_642f));
    let first = (args.part % kinds.len() as u64) as usize;
    for round in 0..ROUNDS as usize {
        let schedule = schedules.next();
        // The order rotates so drift in the host's speed spreads over
        // every allocator alike.
        for j in 0..kinds.len() {
            let i = (j + round + first) % kinds.len();
            let s = segment(
                args.workload,
                kinds[i],
                &inputs,
                length,
                None,
                schedule,
                &mut checks,
            );
            eprintln!(
                "round {round} {:<12} {:>10.1} tx/s  p50 {:>8.1} us  p90 {:>8.1} us",
                kinds[i].id(),
                s.tx_per_s,
                quantile(s.latency_ns.clone(), 0.50) / 1e3,
                quantile(s.latency_ns.clone(), 0.90) / 1e3,
            );
            tally(&s);
            segments[i].push(s);
        }
    }

    let mut metrics = Metrics(Vec::new());
    if args.trace {
        layer_metrics(&args, &inputs, &segments, &mut metrics, &mut checks);
    } else {
        for (i, &kind) in kinds.iter().enumerate() {
            let p = prefix(kind);
            let segs = &segments[i];
            let tx_per_s = median(segs.iter().map(|s| s.tx_per_s).collect());
            let latency_ns: Vec<u64> = segs
                .iter()
                .flat_map(|s| s.latency_ns.iter().copied())
                .collect();
            metrics.add(format!("{p}_tx_per_s"), tx_per_s, "1/s");
            // Only the median: tail percentiles of the open workload
            // spread too far between runs on a shared host (README.md).
            metrics.add(
                format!("{p}_p50_us"),
                quantile(latency_ns, 0.50) / 1e3,
                "us",
            );
        }
        metrics.add("setup_s", setup_s, "s");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        checks.0.is_empty(),
        metrics.json()
    );
}

/// Per-layer metrics of a traced run: spans the server recorded around
/// queueing and execution, heap snapshots, wire and pool counters, plus
/// single-thread timings of the generator, wire decoder and executor.
fn layer_metrics(
    args: &Args,
    inputs: &Inputs,
    segments: &[Vec<Segment>],
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let n = inputs.txs.len() as u64;
    m.add(
        "gen_us_per_tx",
        time_per_tx(|| {
            let mut factory = TxFactory::new(phpbb(), SCALE, args.seed);
            for _ in 0..n {
                black_box(factory.next_tx());
            }
            n
        }),
        "us",
    );
    let mut wire = Vec::new();
    for (seq, ops) in inputs.txs.iter().enumerate() {
        let frame = Frame::Submit {
            request_id: seq as u64,
            affinity: Some(0),
            body: TxBody::Ops(ops.clone()),
        };
        encode(&frame, &mut wire);
    }
    let decoder = Decoder::new();
    m.add(
        "decode_us_per_tx",
        time_per_tx(|| {
            let mut at = 0;
            while let Ok(Some((frame, used))) = decoder.decode(&wire[at..]) {
                black_box(frame);
                at += used;
            }
            checks.expect(at == wire.len(), || {
                "decoder stopped short of the input".into()
            });
            n
        }),
        "us",
    );
    let expected = inputs.model_bytes(n);
    for (i, &kind) in AllocatorKind::PHP_STUDY.iter().enumerate() {
        let p = prefix(kind);
        let mut instr = 0.0;
        let exec_us = time_per_tx(|| {
            let mut exec = TxExecutor::new(0, kind, ServerConfig::default().static_bytes);
            for ops in &inputs.txs {
                exec.execute(black_box(ops));
            }
            let touched = exec.report().bytes_touched;
            checks.expect(touched == expected, || {
                format!("{kind}: executor touched {touched} bytes, model says {expected}")
            });
            instr = exec.sim_instructions() as f64 / n as f64;
            n
        });
        m.add(format!("{p}_exec_us_per_tx"), exec_us, "us");
        m.add(format!("{p}_sim_instr_per_tx"), instr, "count");
        let segs = &segments[i];
        let spans = || segs.iter().flat_map(|s| &s.spans);
        m.add(
            format!("{p}_queue_us_p50"),
            quantile(spans().map(TxSpan::queue_ns).collect(), 0.5) / 1e3,
            "us",
        );
        m.add(
            format!("{p}_service_us_p50"),
            quantile(spans().map(TxSpan::service_ns).collect(), 0.5) / 1e3,
            "us",
        );
        let touched = segs
            .iter()
            .filter_map(|s| s.samples.last())
            .flat_map(|sample| &sample.workers)
            .map(|w| w.heap.touched_bytes as f64 / 1024.0)
            .fold(0.0, f64::max);
        m.add(format!("{p}_heap_touched_kib"), touched, "KiB");
    }
    let all = || segments.iter().flatten();
    let (recycled, fresh) = all().fold((0, 0), |(r, f), s| {
        (r + s.report.pool.recycled, f + s.report.pool.fresh)
    });
    m.add(
        "pool_recycle_ratio",
        recycled as f64 / (recycled + fresh).max(1) as f64,
        "ratio",
    );
    let served: u64 = all().map(|s| s.report.completed).sum();
    let wire_bytes: u64 = all().map(|s| s.wire_bytes).sum();
    m.add(
        "wire_bytes_per_tx",
        wire_bytes as f64 / served.max(1) as f64,
        "bytes",
    );
    let lags: Vec<u64> = all().flat_map(|s| s.lag_ns.iter().copied()).collect();
    m.add("arrival_lag_us_p99", quantile(lags, 0.99) / 1e3, "us");
}
