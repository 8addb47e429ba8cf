//! End-to-end regression for the fault-injection + error-recovery
//! subsystem (`ssd::faults`, `ssd::recovery`, bad-block retirement and
//! patrol scrub).
//!
//! Three contracts are pinned here:
//!
//! 1. **Faults off is free.** With the default (disabled) [`FaultConfig`]
//!    the FlexLevel golden row of `tests/golden_sim.rs` is reproduced
//!    bit-for-bit and every recovery counter stays zero.
//! 2. **Faults on is deterministic.** The fault streams are keyed by
//!    `(seed, stream kind, lpn, access index)`, so a faulted run is a
//!    pure function of the configuration and the logical access
//!    sequence — identical across 1/2/8 worker threads and across the
//!    two timing models' logical counters.
//! 3. **The ladder is exercised.** A high-P/E accelerated run climbs the
//!    retry ladder past depth 0, retires at least one grown-bad block,
//!    patrol-scrubs, and feeds uncorrectable sectors into the
//!    [`reliability`] UBER accounting.

use rand::{rngs::StdRng, SeedableRng};
use reliability::{parallel_map, EccConfig};
use ssd::{FaultConfig, Scheme, SimStats, SsdConfig, SsdSimulator, TimingModel};
use workloads::{Trace, WorkloadSpec};

/// The same pinned trace as `tests/golden_sim.rs`: prj-1, 6000 requests,
/// 70% footprint of the 64-block device, seed 0xF1E2.
fn golden_trace() -> Trace {
    let config = SsdConfig::scaled(Scheme::Baseline, 64);
    let footprint = config.geometry.logical_pages() * 7 / 10;
    WorkloadSpec::prj1()
        .with_requests(6_000)
        .with_footprint(footprint)
        .with_interarrival_scale(2.2)
        .generate(&mut StdRng::seed_from_u64(0xF1E2))
}

/// Accelerated-aging fault model used by the faulted fixtures: hot
/// enough that every recovery path fires on the short golden trace. The
/// rung factors are weakened so the ladder leaks a few sectors all the
/// way to uncorrectable within 6000 requests (at the calibrated factors
/// an uncorrectable is a ~1e-4-per-fault event — too rare to pin).
fn stress_faults() -> FaultConfig {
    FaultConfig {
        escalate_fer_factor: 0.7,
        final_fer_factor: 0.5,
        ..FaultConfig::enabled().with_scale(25.0)
    }
}

fn run(config: SsdConfig, trace: &Trace) -> SimStats {
    let mut sim = SsdSimulator::new(config);
    sim.run(trace).expect("trace fits the device").clone()
}

fn flexlevel_config(faults: FaultConfig) -> SsdConfig {
    SsdConfig::scaled(Scheme::FlexLevel, 64)
        .with_base_pe(6000)
        .with_seed(7)
        .with_faults(faults)
}

/// Contract 1: a disabled `FaultConfig` — even one explicitly attached —
/// reproduces the golden FlexLevel counters exactly and leaves the whole
/// recovery panel at zero.
#[test]
fn faults_off_reproduces_the_golden_flexlevel_row() {
    let stats = run(flexlevel_config(FaultConfig::default()), &golden_trace());
    assert_eq!(
        (stats.host_reads, stats.host_writes, stats.buffer_read_hits),
        (2064, 3936, 137)
    );
    assert_eq!(
        (stats.flash_reads, stats.flash_programs, stats.erases),
        (12941, 20308, 299)
    );
    assert_eq!((stats.gc_runs, stats.gc_migrated_pages), (299, 4865));
    assert_eq!((stats.promotions, stats.demotions), (142, 0));
    assert_eq!(stats.reduced_reads, 677);
    // The recovery panel must be untouched.
    assert_eq!(stats.retry_reads, 0);
    assert_eq!(stats.recovered_reads, 0);
    assert_eq!(stats.uncorrectable_reads, 0);
    assert!(stats.retry_depth_histogram.iter().all(|&n| n == 0));
    assert_eq!(stats.program_failures, 0);
    assert_eq!(stats.retired_blocks, 0);
    assert_eq!(stats.die_resets, 0);
    assert_eq!(
        (stats.scrub_runs, stats.scrub_reads, stats.scrub_refreshes),
        (0, 0, 0)
    );
    assert_eq!(stats.recovery_latency_us, 0.0);
    assert_eq!(stats.max_retry_depth(), 0);
    assert_eq!(stats.observed_uber(EccConfig::paper_ldpc().info_bits), 0.0);
}

/// Contract 3: the accelerated high-P/E run climbs the ladder, retires
/// blocks, scrubs, and still serves every host request.
#[test]
fn stress_run_exercises_every_recovery_path() {
    let stats = run(flexlevel_config(stress_faults()), &golden_trace());
    // The retry ladder fired and mostly succeeded.
    assert!(stats.retry_reads > 0, "no retries at scale 25");
    assert!(stats.recovered_reads > 0, "nothing recovered");
    assert!(stats.max_retry_depth() >= 1);
    assert!(
        stats.uncorrectable_reads > 0,
        "scale 25 must push some sector past the final rung"
    );
    // Attempts can exceed faulted reads (deep ladders), never undershoot.
    assert!(stats.retry_reads >= stats.recovered_reads + stats.uncorrectable_reads);
    assert_eq!(
        stats.retry_depth_histogram[1..].iter().sum::<u64>(),
        stats.recovered_reads + stats.uncorrectable_reads,
        "every faulted read lands in exactly one depth bin"
    );
    // Program failures grew bad blocks and the FTL retired them.
    assert!(stats.program_failures >= 1);
    assert!(stats.retired_blocks >= 1, "no grown-bad block retired");
    assert!(stats.retired_blocks <= stats.program_failures);
    // The patrol scrubber visited blocks and refreshed hot-retention pages.
    assert!(stats.scrub_runs > 0);
    assert!(stats.scrub_reads > 0);
    assert!(stats.scrub_refreshes > 0);
    // Recovery work was priced, not free.
    assert!(stats.recovery_latency_us > 0.0);
    // The host workload was still served in full.
    assert_eq!((stats.host_reads, stats.host_writes), (2064, 3936));
}

/// Satellite: end-to-end UBER accounting. The observed uncorrectable
/// rate must equal the hand computation against the paper's LDPC code
/// dimensions, and grow (weakly) with the acceleration scale.
#[test]
fn observed_uber_feeds_the_reliability_accounting() {
    let info_bits = EccConfig::paper_ldpc().info_bits;
    let stats = run(flexlevel_config(stress_faults()), &golden_trace());
    assert!(stats.uncorrectable_reads > 0);
    let by_hand =
        stats.uncorrectable_reads as f64 / (stats.decoded_frames() as f64 * info_bits as f64);
    assert_eq!(stats.observed_uber(info_bits), by_hand);
    assert!(stats.observed_uber(info_bits) > 0.0);

    // More acceleration can only make the device less reliable.
    let mut last = (0u64, 0u64);
    for scale in [1.0, 4.0, 25.0] {
        let s = run(
            flexlevel_config(FaultConfig::enabled().with_scale(scale)),
            &golden_trace(),
        );
        let now = (s.retry_reads, s.uncorrectable_reads);
        assert!(
            now.0 >= last.0 && now.1 >= last.1,
            "scale {scale}: {now:?} regressed below {last:?}"
        );
        last = now;
    }
    assert!(last.0 > 0);
}

/// Contract 2a: the faulted run is bit-identical no matter how many
/// worker threads the surrounding harness uses.
#[test]
fn faulted_stats_are_identical_across_thread_counts() {
    let trace = golden_trace();
    let reference = run(flexlevel_config(stress_faults()), &trace);
    assert!(reference.retry_reads > 0, "fixture must actually fault");
    for threads in [1u32, 2, 8] {
        let replicas = parallel_map(vec![(); 4], threads, |_, ()| {
            run(flexlevel_config(stress_faults()), &trace)
        });
        for (i, stats) in replicas.iter().enumerate() {
            assert_eq!(
                *stats, reference,
                "replica {i} under {threads} threads diverged"
            );
        }
    }
}

/// Contract 2b: both timing models resolve the same faults — every
/// logical and recovery counter matches; only clock-domain metrics
/// (latency, makespan) may differ.
#[test]
fn timing_models_agree_on_recovery_counters() {
    let trace = golden_trace();
    // Hot die faults so the pipelined model also schedules DieReset ops.
    let faults = stress_faults().with_die_fault_prob(2e-3);
    let single = run(
        flexlevel_config(faults.clone()).with_timing_model(TimingModel::SingleQueue),
        &trace,
    );
    let pipelined = run(
        flexlevel_config(faults)
            .with_timing_model(TimingModel::Pipelined)
            .with_dies_per_channel(4)
            .with_decoder_slots(2),
        &trace,
    );
    assert!(
        single.die_resets > 0,
        "die faults must fire in this fixture"
    );
    let logical = |s: &SimStats| (s.counter_values(), s.retry_depth_histogram.clone());
    assert_eq!(logical(&single), logical(&pipelined));
}
