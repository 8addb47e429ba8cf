//! Cross-model integration tests for the two timing models.
//!
//! The pipelined discrete-event model must be a pure *timing* refinement
//! of the single-queue model: the logical layer (buffer, FTL, GC,
//! AccessEval, RNG draws) is shared, so every integer counter matches
//! bit-for-bit on any trace. On top of that the pipelined model must be
//! deterministic run-to-run, and extra parallel resources (dies,
//! decoder slots) must buy real throughput on a read-heavy trace.

use rand::{rngs::StdRng, SeedableRng};
use ssd::{Scheme, SimStats, SsdConfig, SsdSimulator, StageKind, TimingModel};
use workloads::{Trace, WorkloadSpec};

/// The golden fixture trace (same knobs as `golden_sim.rs`).
fn golden_trace() -> Trace {
    let config = SsdConfig::scaled(Scheme::Baseline, 64);
    let footprint = config.geometry.logical_pages() * 7 / 10;
    WorkloadSpec::prj1()
        .with_requests(6_000)
        .with_footprint(footprint)
        .with_interarrival_scale(2.2)
        .generate(&mut StdRng::seed_from_u64(0xF1E2))
}

/// A read-heavy trace (web1 is 99% reads) with tight inter-arrivals so
/// the device saturates and parallelism is the bottleneck resource.
fn read_heavy_trace() -> Trace {
    let config = SsdConfig::scaled(Scheme::Baseline, 64);
    let footprint = config.geometry.logical_pages() / 2;
    WorkloadSpec::web1()
        .with_requests(8_000)
        .with_footprint(footprint)
        .with_interarrival_scale(0.05)
        .generate(&mut StdRng::seed_from_u64(0xB00C))
}

fn run_with(scheme: Scheme, trace: &Trace, model: TimingModel, dies: u32, slots: u32) -> SimStats {
    let config = SsdConfig::scaled(scheme, 64)
        .with_base_pe(6000)
        .with_seed(7)
        .with_timing_model(model)
        .with_dies_per_channel(dies)
        .with_decoder_slots(slots);
    let mut sim = SsdSimulator::new(config);
    sim.run(trace)
        .unwrap_or_else(|e| panic!("{} failed: {e}", scheme.label()))
        .clone()
}

/// Both timing models replay the same logical simulation: every integer
/// counter matches exactly for every scheme, even with parallel
/// resources configured, because decisions never depend on timing.
#[test]
fn pipelined_counters_match_single_queue_for_all_schemes() {
    let trace = golden_trace();
    for scheme in Scheme::ALL {
        let single = run_with(scheme, &trace, TimingModel::SingleQueue, 1, 1);
        let piped = run_with(scheme, &trace, TimingModel::Pipelined, 1, 1);
        assert_eq!(
            single.counter_values(),
            piped.counter_values(),
            "{}: pipelined counters drifted from single-queue",
            scheme.label()
        );
        let wide = run_with(scheme, &trace, TimingModel::Pipelined, 4, 4);
        assert_eq!(
            single.counter_values(),
            wide.counter_values(),
            "{}: counters must not depend on die/decoder parallelism",
            scheme.label()
        );
    }
}

/// The pipelined model is bit-identical run-to-run: full stats equality
/// including every latency sample, stage account and the makespan.
#[test]
fn pipelined_replay_is_bit_identical() {
    let trace = golden_trace();
    let a = run_with(Scheme::FlexLevel, &trace, TimingModel::Pipelined, 4, 2);
    let b = run_with(Scheme::FlexLevel, &trace, TimingModel::Pipelined, 4, 2);
    assert_eq!(a, b, "pipelined replay must be deterministic");
}

/// On a saturating read-heavy trace, extra dies and decoder slots raise
/// throughput: the whole point of splitting sense / transfer / decode is
/// that sensing on one die overlaps transfer and decode of another.
#[test]
fn multi_die_pipelined_beats_single_queue_throughput() {
    let trace = read_heavy_trace();
    let single = run_with(Scheme::FlexLevel, &trace, TimingModel::SingleQueue, 1, 1);
    let piped = run_with(Scheme::FlexLevel, &trace, TimingModel::Pipelined, 4, 2);
    assert!(
        piped.throughput_rps() > single.throughput_rps(),
        "pipelined 4-die throughput {:.0} req/s must beat single-queue {:.0} req/s",
        piped.throughput_rps(),
        single.throughput_rps()
    );
}

/// Pipelined runs populate per-stage accounting and ordered latency
/// percentiles; the single-queue model leaves stage accounts empty but
/// still reports a makespan.
#[test]
fn stage_accounting_and_percentiles_are_reported() {
    let trace = read_heavy_trace();
    let piped = run_with(Scheme::FlexLevel, &trace, TimingModel::Pipelined, 4, 2);

    assert_eq!(piped.stage(StageKind::Sense).ops, piped.flash_reads);
    assert!(piped.stage(StageKind::Transfer).ops > 0);
    assert!(piped.stage(StageKind::Decode).busy_us > 0.0);
    assert!(piped.makespan_us > 0.0);
    for kind in StageKind::ALL {
        let util = piped.stage_utilization(kind, 4);
        assert!(
            (0.0..=1.0).contains(&util),
            "{} utilization {util} out of range",
            kind.label()
        );
        assert!(piped.mean_queue_depth(kind) >= 0.0);
    }

    let p50 = piped.response_percentile(0.50);
    let p95 = piped.response_percentile(0.95);
    let p99 = piped.response_percentile(0.99);
    assert!(p50.as_f64() <= p95.as_f64() && p95.as_f64() <= p99.as_f64());

    let single = run_with(Scheme::FlexLevel, &trace, TimingModel::SingleQueue, 1, 1);
    assert_eq!(single.stage(StageKind::Sense).ops, 0);
    assert!(single.makespan_us > 0.0);
}
