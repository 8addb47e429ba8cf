//! Single-layer kernels for the traced run. Each drives one layer's public
//! functions on its own, at the volume the workload gives that layer, and
//! returns the host seconds of each repetition.

use std::hint::black_box;
use std::time::Instant;

use flash_model::{CellMode, Micros};
use ldpc::{
    encode, random_info, DecodeFarm, DecodeRequest, FarmConfig, LlrQuantizer, QcLdpcCode,
    QuantizedMinSumDecoder, Schedule,
};
use rand::{rngs::StdRng, SeedableRng};
use ssd::{EventQueue, PageMapFtl, ResourcePool, StageKind};
use workloads::{IoOp, RequestSource};

use crate::trace::Tracer;
use crate::workload::{calib_channel, derive_seed, Inputs};

/// Repetitions of each kernel.
const REPS: usize = 5;

/// SplitMix64 step.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn timed(tr: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> Vec<f64> {
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            tr.span(name, &mut f);
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// `PageMapFtl::write` replaying the trace's page writes on the workload's
/// geometry, after preloading the footprint. Returns (seconds per rep,
/// pages written per rep).
pub fn ftl_writes(inputs: &Inputs, tr: &mut Tracer) -> (Vec<f64>, u64) {
    let trace = inputs.trace.as_ref().expect("trace workload");
    let lpns: Vec<u64> = trace
        .requests
        .iter()
        .filter(|r| r.op == IoOp::Write)
        .flat_map(|r| r.lpns())
        .collect();
    let config = &inputs.config;
    let mut secs = Vec::new();
    for _ in 0..REPS {
        let mut ftl = PageMapFtl::new(config.geometry, config.gc_low_watermark)
            .with_gc_policy(config.gc_policy);
        for lpn in 0..trace.footprint_pages {
            ftl.write(lpn, CellMode::Normal).expect("preload fits");
        }
        let start = Instant::now();
        tr.span("ftl.write", || {
            for &lpn in &lpns {
                black_box(ftl.write(lpn, CellMode::Normal).expect("device has space"));
            }
        });
        secs.push(start.elapsed().as_secs_f64());
    }
    (secs, lpns.len() as u64)
}

/// Drains an `OpenLoopSource` identical to the one the workload serves.
pub fn openloop_drain(inputs: &Inputs, tr: &mut Tracer) -> Vec<f64> {
    timed(tr, "workloads.openloop_drain", || {
        let mut source = inputs.source();
        let mut n = 0u64;
        while let Some(req) = source.next_request() {
            n += black_box(req).request.lpn & 1;
        }
        black_box(n);
    })
}

/// `EventQueue` push+pop pairs in a hold model: `ops` pops, each followed
/// by a push at a later time, with 64 events in flight.
pub fn event_queue(ops: u64, tr: &mut Tracer) -> Vec<f64> {
    timed(tr, "events.push_pop", || {
        let mut rng = 0xE7E7_u64;
        let mut queue = EventQueue::with_capacity(64);
        for i in 0..64u32 {
            queue.push(Micros((mix(&mut rng) % 1000) as f64), i);
        }
        for _ in 0..ops {
            let event = queue.pop().expect("queue is never empty");
            let later = event.time.as_f64() + (mix(&mut rng) % 1000) as f64;
            queue.push(Micros(later), event.payload);
        }
        black_box(queue.len());
    })
}

/// `ResourcePool::reserve` calls on the workload's die and decoder
/// geometry: `ops` reservations over every stage kind.
pub fn resource_pool(inputs: &Inputs, ops: u64, tr: &mut Tracer) -> Vec<f64> {
    let config = &inputs.config;
    timed(tr, "pool.reserve", || {
        let mut pool = ResourcePool::new(
            config.channels,
            config.dies_per_channel,
            config.planes_per_die,
            config.decoder_slots,
        );
        let mut rng = 0x9001_u64;
        let mut ready = 0.0;
        for _ in 0..ops {
            let r = mix(&mut rng);
            let kind = StageKind::ALL[(r % StageKind::ALL.len() as u64) as usize];
            ready += 10.0;
            black_box(pool.reserve(kind, r >> 8, Micros(ready), Micros(50.0)));
        }
        black_box(pool.busy_until());
    })
}

/// Decodes `frames` codewords per rep through a one-worker `DecodeFarm` on
/// the calibration's channel at `extra` soft levels (warm by then).
pub fn decode(seed: u64, frames: usize, extra: u32, tr: &mut Tracer) -> Vec<f64> {
    let code = QcLdpcCode::paper_code();
    let ch = calib_channel(seed, extra);
    let table = ch.quantized_llr_table(&LlrQuantizer::default());
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0xDE));
    let requests: Vec<DecodeRequest> = (0..frames)
        .map(|_| {
            let info = random_info(&code, &mut rng);
            let cw = encode(&code, &info).expect("info has the code's length");
            let qllrs = cw
                .iter()
                .map(|&b| table[ch.sample_region(b, &mut rng)])
                .collect();
            DecodeRequest {
                qllrs,
                expected: Some(cw),
            }
        })
        .collect();
    let farm = DecodeFarm::new(
        &code,
        QuantizedMinSumDecoder::new().with_schedule(Schedule::Layered),
        FarmConfig::default().with_workers(1),
    );
    timed(tr, "ldpc.decode", || {
        black_box(farm.decode_all(&requests));
    })
}
