//! Live-telemetry integration tests for the native serving harness.
//!
//! The acceptance properties: attaching the observer must not change
//! what the server *does* (same-seed accounting identical with telemetry
//! on and off), and what the observer *says* must be well-formed (the
//! JSONL stream parses back into samples carrying queue depth, window
//! quantiles and per-worker size-class occupancy).

use std::time::{Duration, Instant};
use webmm_alloc::AllocatorKind;
use webmm_server::{
    drive_closed, AdmissionPolicy, ObsConfig, ObsSample, Server, ServerConfig, ServerReport,
    TxFactory,
};
use webmm_workload::phpbb;

const SEED: u64 = 0xC0FFEE;
const WORKERS: usize = 4;
const TOTAL_TX: u64 = 48;

fn serve(kind: AllocatorKind, obs: Option<ObsConfig>) -> (ServerReport, Vec<ObsSample>) {
    let server = Server::start(ServerConfig {
        kind,
        workers: WORKERS,
        queue_capacity: 16,
        policy: AdmissionPolicy::Block,
        static_bytes: 1 << 20,
        obs,
        ..ServerConfig::default()
    });
    drive_closed(&server, TxFactory::new(phpbb(), 1024, SEED), TOTAL_TX, 2);
    server.finish_with_obs()
}

fn fast_obs() -> ObsConfig {
    ObsConfig {
        interval: Duration::from_millis(2),
        ..ObsConfig::default()
    }
}

#[test]
fn telemetry_does_not_change_accounting() {
    for kind in AllocatorKind::PHP_STUDY {
        let (off, no_samples) = serve(kind, None);
        let (on, samples) = serve(kind, Some(fast_obs()));
        assert!(no_samples.is_empty(), "{kind}: no observer, no samples");
        assert!(!samples.is_empty(), "{kind}: observer must sample");
        assert_eq!(off.submitted, on.submitted, "{kind}");
        assert_eq!(off.completed, on.completed, "{kind}");
        assert_eq!(off.shed, on.shed, "{kind}");
        let bytes = |r: &ServerReport| r.per_worker.iter().map(|w| w.bytes_touched).sum::<u64>();
        assert_eq!(bytes(&off), bytes(&on), "{kind}: same op mix either way");
    }
}

#[test]
fn final_sample_reflects_settled_server() {
    let (report, samples) = serve(AllocatorKind::DdMalloc, Some(fast_obs()));
    let last = samples.last().expect("at least the closing sample");
    // The sampler takes its closing sample after the workers have joined,
    // so the last sample must agree with the final report.
    assert_eq!(last.queue_depth, 0);
    assert_eq!(last.submitted, report.submitted);
    assert_eq!(last.completed, report.completed);
    assert_eq!(last.shed, report.shed);
    // Every worker published a heap snapshot, and freeAll emptied them.
    // Each phpBB transaction ends in exactly one EndTx, which runs exactly
    // one freeAll, so a worker's freeAll count is its completion count —
    // which may be zero when other workers stole its whole shard.
    assert_eq!(last.workers.len(), WORKERS);
    let per_worker_completed: u64 = report.per_worker.iter().map(|w| w.completed).sum();
    assert_eq!(per_worker_completed, report.completed);
    // Each worker's last publication is the report it returned: the live
    // view and the drain report are one record, not two copies.
    for (sampled, returned) in last.workers.iter().zip(&report.per_worker) {
        assert_eq!(sampled.report.completed, returned.completed);
        assert_eq!(sampled.report.steals, returned.steals);
        assert_eq!(sampled.report.orphan_ops, returned.orphan_ops);
        assert_eq!(&sampled.report, returned, "worker {}", sampled.worker);
    }
    for w in &last.workers {
        let served = report
            .per_worker
            .iter()
            .find(|r| r.worker == w.worker)
            .expect("report covers every sampled worker");
        assert_eq!(w.heap.tx_live_bytes, 0, "worker {}", w.worker);
        assert_eq!(
            w.heap.free_all_count, served.completed,
            "worker {}",
            w.worker
        );
        assert!(!w.heap.classes.is_empty(), "worker {}", w.worker);
    }
    // Mid-run samples saw the sliding window populated. The window is
    // derived from the same publications as `completed`, so it can never
    // hold more completions than the sample counts.
    assert!(
        samples.iter().any(|s| s.window.count > 0),
        "some sample caught in-flight latency"
    );
    for s in &samples {
        assert!(s.window.count <= s.completed, "sample at {} ns", s.t_ns);
    }
}

#[test]
fn closing_window_of_a_short_run_is_the_report_latency() {
    // Eight 100 ms ticks make the window; a run shorter than that has
    // every completion inside it, so the closing window is the whole
    // run's latency, derived from the same histograms as the report.
    let (report, samples) = serve(
        AllocatorKind::DdMalloc,
        Some(ObsConfig {
            interval: Duration::from_millis(100),
            ..ObsConfig::default()
        }),
    );
    assert!(
        report.wall_ns < 800_000_000,
        "run of {} ns outlasts the window",
        report.wall_ns
    );
    let window = samples.last().expect("closing sample").window;
    let latency = report.latency;
    assert_eq!(window.count, latency.count);
    assert_eq!(window.mean_ns, latency.mean_ns);
    assert_eq!(window.min_ns, latency.min_ns);
    assert_eq!(window.p50_ns, latency.p50_ns);
    assert_eq!(window.p95_ns, latency.p95_ns);
    assert_eq!(window.p99_ns, latency.p99_ns);
    assert_eq!(window.p999_ns, latency.p999_ns);
    assert_eq!(window.max_ns, latency.max_ns);
}

#[test]
fn wall_time_excludes_the_samplers_last_sleep() {
    // Stopping the sampler interrupts its wait; a one-transaction run must
    // neither count the sampler's interval as serving time nor wait it out.
    let interval = Duration::from_secs(1);
    let server = Server::start(ServerConfig {
        workers: 1,
        obs: Some(ObsConfig {
            interval,
            ..ObsConfig::default()
        }),
        ..ServerConfig::default()
    });
    drive_closed(&server, TxFactory::new(phpbb(), 1024, SEED), 1, 1);
    let finishing = Instant::now();
    let report = server.finish();
    let finish_took = finishing.elapsed();
    assert!(
        finish_took < interval / 2,
        "finish took {finish_took:?}: it waited out the sampler's interval"
    );
    assert_eq!(report.completed, 1);
    assert!(
        u128::from(report.wall_ns) < interval.as_nanos() / 2,
        "wall_ns {} counts the sampler's sleep",
        report.wall_ns
    );
}

#[test]
fn jsonl_export_parses_round_trip() {
    let path = std::env::temp_dir().join(format!("webmm_obs_test_{}.jsonl", std::process::id()));
    let obs = ObsConfig {
        interval: Duration::from_millis(2),
        out: Some(path.clone()),
        run: "test-run".to_string(),
        ..ObsConfig::default()
    };
    let (_, samples) = serve(AllocatorKind::DdMalloc, Some(obs));
    let body = std::fs::read_to_string(&path).expect("sampler wrote the JSONL file");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), samples.len(), "one line per sample");
    assert!(!lines.is_empty());
    for (line, sample) in lines.iter().zip(&samples) {
        let parsed: ObsSample = serde_json::from_str(line).expect("line parses as ObsSample");
        assert_eq!(parsed.run, "test-run");
        assert_eq!(parsed.t_ns, sample.t_ns);
        assert_eq!(parsed.queue_depth, sample.queue_depth);
        assert_eq!(parsed.completed, sample.completed);
        assert_eq!(parsed.workers.len(), sample.workers.len());
    }
}

#[test]
fn tx_spans_cover_completions_and_sheds() {
    let server = Server::start(ServerConfig {
        kind: AllocatorKind::DdMalloc,
        workers: 2,
        queue_capacity: 2,
        policy: AdmissionPolicy::Reject,
        static_bytes: 1 << 20,
        obs: Some(fast_obs()),
        ..ServerConfig::default()
    });
    drive_closed(&server, TxFactory::new(phpbb(), 1024, SEED), 32, 8);
    // Dump after the drain: before it, workers may not have completed
    // (and so traced) anything yet.
    let telemetry = std::sync::Arc::clone(server.telemetry().expect("obs configured"));
    let report = server.finish();
    let spans = telemetry.dump_spans();
    assert_eq!(report.completed + report.shed, report.submitted);
    // Only completions are traced; sheds are counted per shard. Rings are
    // fixed-capacity: they hold the most recent spans, never more than
    // the true count.
    let completed_spans = spans.len() as u64;
    assert!(completed_spans > 0);
    assert!(completed_spans <= report.completed);
    for s in &spans {
        assert!(s.enqueue_ns <= s.dequeue_ns, "span {s:?}");
        assert!(s.dequeue_ns <= s.complete_ns, "span {s:?}");
    }
}
