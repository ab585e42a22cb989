//! Criterion micro-benchmarks of the wire codec (host time).
//!
//! Both ends of a tcp round trip walk every op of a `Submit` frame: the
//! client encodes it and the connection handler decodes it. The frames
//! here are the serving benchmark's: 100 phpBB transactions at scale
//! 1/256, seed 7 (about 1,350 ops and 15.7 KB per frame). One iteration
//! handles all 100 frames, so µs/iter ÷ 100 is µs per transaction.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use webmm_net::{encode, Decoder, Frame, TxBody};
use webmm_server::{TxBufferPool, TxFactory};
use webmm_workload::phpbb;

const TXS: u64 = 100;

fn frames() -> Vec<Frame> {
    let mut factory = TxFactory::new(phpbb(), 256, 7);
    (0..TXS)
        .map(|seq| Frame::Submit {
            request_id: seq,
            affinity: Some(0),
            body: TxBody::Ops(factory.next_tx().ops),
        })
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let frames = frames();
    let mut group = c.benchmark_group("wire_encode_100tx");
    // One reused buffer cleared per frame, as the load generators do.
    group.bench_function("reused_buffer", |b| {
        let mut wire = Vec::new();
        b.iter(|| {
            for f in &frames {
                wire.clear();
                encode(f, &mut wire);
                black_box(&wire);
            }
        });
    });
    group.finish();
}

/// Decodes the back-to-back frames in `wire`, handing every decoded op
/// buffer to `done`.
fn decode_all(decoder: &Decoder, wire: &[u8], mut done: impl FnMut(Frame)) {
    let mut at = 0;
    while let Ok(Some((frame, used))) = decoder.decode(&wire[at..]) {
        done(black_box(frame));
        at += used;
    }
    assert_eq!(at, wire.len(), "decoder stopped short of the input");
}

fn bench_decode(c: &mut Criterion) {
    let mut wire = Vec::new();
    for f in &frames() {
        encode(f, &mut wire);
    }
    let mut group = c.benchmark_group("wire_decode_100tx");
    group.bench_function("no_pool", |b| {
        let decoder = Decoder::new();
        b.iter(|| decode_all(&decoder, &wire, drop));
    });
    // Op buffers drawn from a pool and returned after each frame, as the
    // connection handler and the workers do.
    group.bench_function("pool", |b| {
        let pool = Arc::new(TxBufferPool::new(1, 4));
        let decoder = Decoder::new().with_pool(Arc::clone(&pool));
        b.iter(|| {
            decode_all(&decoder, &wire, |frame| {
                if let Frame::Submit {
                    body: TxBody::Ops(ops),
                    ..
                } = frame
                {
                    pool.put(ops);
                }
            });
        });
    });
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
