//! Microbenchmark: CDR marshalling throughput (encode/decode of the
//! protocol types that dominate the wire traffic).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

cdr::cdr_struct!(SolveResultLike {
    best_value: f64,
    best_point: Vec<f64>,
    iterations: u64,
    evals: u64,
});

fn sample(n: usize) -> SolveResultLike {
    SolveResultLike {
        best_value: 0.125,
        best_point: (0..n).map(|i| i as f64 * 0.5).collect(),
        iterations: 12_345,
        evals: 23_456,
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("cdr_codec");
    for n in [16usize, 256, 4096] {
        let value = sample(n);
        let bytes = cdr::to_bytes(&value);
        g.throughput(Throughput::Bytes(bytes.len() as u64));
        g.bench_function(format!("encode_{n}_doubles"), |b| {
            b.iter(|| cdr::to_bytes(black_box(&value)))
        });
        g.bench_function(format!("decode_{n}_doubles"), |b| {
            b.iter(|| cdr::from_bytes::<SolveResultLike>(black_box(&bytes)).unwrap())
        });
    }
    g.finish();

    // What the repo benchmark's `rpc_bulk` marshals four times per round
    // trip — one 8192-double sequence — and the same 64 KiB as octets.
    let mut g = c.benchmark_group("cdr_bulk");
    g.throughput(Throughput::Bytes(65_536));
    let doubles: Vec<f64> = (0..8192).map(|i| f64::from(i) * 0.5).collect();
    let bytes = cdr::to_bytes(&doubles);
    g.bench_function("encode_8192_doubles", |b| {
        b.iter(|| cdr::to_bytes(black_box(&doubles)))
    });
    g.bench_function("decode_8192_doubles", |b| {
        b.iter(|| cdr::from_bytes::<Vec<f64>>(black_box(&bytes)).unwrap())
    });
    let octets = vec![0xA5u8; 65_536];
    let bytes = cdr::to_bytes(&octets);
    g.bench_function("encode_64KiB_octets", |b| {
        b.iter(|| cdr::to_bytes(black_box(&octets)))
    });
    g.bench_function("decode_64KiB_octets", |b| {
        b.iter(|| cdr::from_bytes::<Vec<u8>>(black_box(&bytes)).unwrap())
    });
    g.finish();

    let mut g = c.benchmark_group("cdr_any");
    let any = cdr::Any::double_seq(&vec![1.0; 64]);
    let bytes = cdr::to_bytes(&any);
    g.bench_function("encode_any_seq64", |b| {
        b.iter(|| cdr::to_bytes(black_box(&any)))
    });
    g.bench_function("decode_any_seq64", |b| {
        b.iter_batched(
            || bytes.clone(),
            |buf| cdr::from_bytes::<cdr::Any>(black_box(&buf)).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_codec
);
criterion_main!(benches);
