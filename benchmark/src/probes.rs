//! Timed probes of single layers: tight loops over a public function that
//! never enters the simulator. They give the wall cost of one call, so a
//! change to that layer can be seen in isolation before it is looked for
//! in `cpu_s`.

use std::hint::black_box;
use std::time::Instant;

use optim::{ComplexBox, ComplexBoxConfig, SubRosenbrock};
use orb::{Message, ObjectKey};
use winner::{BestPerformance, HostView, SelectionPolicy};

use crate::stats::median;
use crate::trace::Tracer;

/// Batches per probe; the reported value is the median batch.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] batches of the wall ns one call of `f` takes.
/// `f` returns something derived from its result so the call cannot be
/// optimised away.
fn ns_per_call(iters: u32, mut f: impl FnMut() -> u64) -> f64 {
    let mut sink = 0u64;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                sink = sink.wrapping_add(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    black_box(sink);
    median(&samples)
}

/// Run every probe; returns `(metric name, ns per call)`.
pub fn run_all(tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    for (doubles, enc, dec, iters) in [
        (8usize, "cdr.encode_ns_8d", "cdr.decode_ns_8d", 20_000u32),
        (8192, "cdr.encode_ns_8192d", "cdr.decode_ns_8192d", 200),
    ] {
        let value: Vec<f64> = (0..doubles).map(|i| i as f64 * 0.5).collect();
        let bytes = cdr::to_bytes(&value);
        out.push((
            enc,
            tracer.span(enc, "cdr", || {
                ns_per_call(iters, || cdr::to_bytes(black_box(&value)).len() as u64)
            }),
        ));
        out.push((
            dec,
            tracer.span(dec, "cdr", || {
                ns_per_call(iters, || {
                    let v: Vec<f64> =
                        cdr::from_bytes(black_box(&bytes)).expect("self-encoded value decodes");
                    v.len() as u64
                })
            }),
        ));
    }

    for (body_len, enc, dec, iters) in [
        (
            64usize,
            "orb.giop_encode_ns_64B",
            "orb.giop_decode_ns_64B",
            20_000u32,
        ),
        (
            65_536,
            "orb.giop_encode_ns_64KiB",
            "orb.giop_decode_ns_64KiB",
            1_000,
        ),
    ] {
        let msg = Message::Request {
            request_id: 7,
            response_expected: true,
            object_key: ObjectKey(1),
            operation: "echo".into(),
            body: vec![0xA5; body_len],
            service_contexts: Vec::new(),
        };
        let frame = msg.encode();
        out.push((
            enc,
            tracer.span(enc, "orb", || {
                ns_per_call(iters, || black_box(&msg).encode().len() as u64)
            }),
        ));
        out.push((
            dec,
            tracer.span(dec, "orb", || {
                ns_per_call(iters, || {
                    match Message::decode(black_box(&frame)).expect("self-encoded frame decodes") {
                        Message::Request { body, .. } => body.len() as u64,
                        _ => 0,
                    }
                })
            }),
        ));
    }

    for (hosts, name, iters) in [
        (10u32, "winner.select_wall_ns_10hosts", 50_000u32),
        (1000, "winner.select_wall_ns_1000hosts", 500),
    ] {
        let views: Vec<HostView> = (0..hosts)
            .map(|h| HostView {
                host: h,
                speed: 1.0 + f64::from(h % 7) * 0.1,
                eff_load: f64::from(h % 5) * 0.5,
                cpu_util: f64::from(h % 4) * 0.25,
            })
            .collect();
        let mut policy = BestPerformance;
        out.push((
            name,
            tracer.span(name, "winner", || {
                ns_per_call(iters, || {
                    u64::from(policy.select(black_box(&views)).expect("non-empty"))
                })
            }),
        ));
    }

    let name = "optim.complex_box_wall_ns_10k_iters";
    let problem = SubRosenbrock::new(15, Some(1.0), Some(1.0));
    out.push((
        name,
        tracer.span(name, "optim", || {
            ns_per_call(1, || {
                let mut opt = ComplexBox::new(&problem, ComplexBoxConfig::default());
                opt.run(black_box(10_000)).to_bits()
            })
        }),
    ));
    out
}
