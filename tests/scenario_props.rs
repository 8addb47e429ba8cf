//! Property-based tests of the scenario engine's correlated-cluster
//! component (proptest).
//!
//! Two properties are pinned over randomly drawn cluster configurations:
//!
//! 1. **Determinism.** A cluster-faulted simulation is a pure function
//!    of its configuration: bit-identical across 1/2/8 worker threads
//!    and (logical counters) across both timing backends — the cluster
//!    geometry is derived from the scenario seed alone, never from
//!    access order or scheduling.
//! 2. **Spatial correlation.** Cluster events are genuinely co-located
//!    within a plane: the mean intra-cluster plane distance of affected
//!    pages sits below the i.i.d.-placement expectation by more than
//!    6σ, so the engine cannot silently degrade into uniform noise.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use reliability::parallel_map;
use ssd::{
    ClusterFaultConfig, EnvironmentConfig, EnvironmentState, FaultConfig, Scheme, SimStats,
    SsdConfig, SsdSimulator, TimingModel,
};
use workloads::{Trace, WorkloadSpec};

fn cluster_config(seed: u64, events: u32, span_rows: u64) -> SsdConfig {
    SsdConfig::scaled(Scheme::FlexLevel, 64)
        .with_channels(2)
        .with_dies_per_channel(4)
        .with_planes_per_die(2)
        .with_environment(
            EnvironmentConfig::default().with_clusters(ClusterFaultConfig {
                seed,
                events,
                span_rows,
                ..ClusterFaultConfig::default()
            }),
        )
}

fn small_trace() -> Trace {
    let config = SsdConfig::scaled(Scheme::Baseline, 64);
    let footprint = config.geometry.logical_pages() * 7 / 10;
    WorkloadSpec::prj1()
        .with_requests(1_500)
        .with_footprint(footprint)
        .generate(&mut StdRng::seed_from_u64(0xC105))
}

fn run_clustered(seed: u64, events: u32, timing: TimingModel, trace: &Trace) -> SimStats {
    let config = cluster_config(seed, events, 64)
        .with_base_pe(6000)
        .with_seed(7)
        .with_timing_model(timing)
        .with_faults(FaultConfig {
            escalate_fer_factor: 0.7,
            final_fer_factor: 0.5,
            ..FaultConfig::enabled().with_scale(4.0)
        });
    let mut sim = SsdSimulator::new(config);
    sim.run(trace).expect("trace fits the device").clone()
}

fn logical(s: &SimStats) -> impl PartialEq + std::fmt::Debug {
    (
        s.counter_values(),
        s.reads_by_sensing_level.clone(),
        s.retry_depth_histogram.clone(),
    )
}

proptest! {
    /// Property 1: the cluster-faulted run is bit-identical across 1/2/8
    /// worker threads and its logical counters match across both timing
    /// backends, for arbitrary cluster seeds and event counts.
    #[test]
    fn cluster_streams_are_thread_and_timing_invariant(
        seed in 0u64..u64::MAX,
        events in 1u32..6,
    ) {
        let trace = small_trace();
        let reference = run_clustered(seed, events, TimingModel::SingleQueue, &trace);
        for threads in [1u32, 2, 8] {
            let replicas = parallel_map(vec![(); 2], threads, |_, ()| {
                run_clustered(seed, events, TimingModel::SingleQueue, &trace)
            });
            for stats in &replicas {
                prop_assert_eq!(
                    stats, &reference,
                    "clustered run diverged under {} threads", threads
                );
            }
        }
        let piped = run_clustered(seed, events, TimingModel::Pipelined, &trace);
        prop_assert_eq!(logical(&piped), logical(&reference));
    }

    /// Property 2: affected pages really cluster in space. Under i.i.d.
    /// plane placement the expected pairwise plane distance over P=16
    /// planes is (P²−1)/(3P) ≈ 5.31 with a per-pair σ of ≈ 0.2357·P;
    /// intra-cluster pairs share one plane by construction, so the
    /// observed mean distance (0) must sit below the i.i.d. mean by more
    /// than 6 standard errors.
    #[test]
    fn clusters_are_spatially_correlated_at_6_sigma(
        seed in 0u64..u64::MAX,
        events in 2u32..6,
        span in 32u64..96,
    ) {
        let config = cluster_config(seed, events, span);
        let env = EnvironmentState::new(&config).expect("clusters enabled");
        let planes = 16u64; // 2 channels × 4 dies × 2 planes
        let pages = config.geometry.logical_pages();

        // Collect the plane of every affected page, grouped by cluster.
        let mut pair_count = 0u64;
        let mut distance_sum = 0.0f64;
        for cluster in env.clusters() {
            let members: Vec<u64> = (0..pages)
                .filter(|&lpn| cluster.contains(env.plane_of(lpn), env.row_of(lpn)))
                .map(|lpn| env.plane_of(lpn))
                .collect();
            prop_assert!(
                members.len() as u64 >= span.min(32),
                "cluster spans {} rows but only {} pages", cluster.span_rows, members.len()
            );
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    distance_sum += members[i].abs_diff(members[j]) as f64;
                    pair_count += 1;
                }
            }
        }
        prop_assert!(pair_count >= 18, "need pairs for the σ bound, got {pair_count}");
        let observed = distance_sum / pair_count as f64;

        // i.i.d. null hypothesis: planes drawn uniformly from 0..P.
        let p = planes as f64;
        let iid_mean = (p * p - 1.0) / (3.0 * p);
        let iid_sigma_single = 0.2357 * p;
        let sigma_mean = iid_sigma_single / (pair_count as f64).sqrt();
        prop_assert!(
            observed < iid_mean - 6.0 * sigma_mean,
            "mean intra-cluster distance {observed} not below i.i.d. {iid_mean} at 6σ ({sigma_mean})"
        );
    }
}

/// The placement is also stable across process lifetimes: a fixed seed
/// pins exact cluster coordinates (guards the keying discipline itself —
/// any change to the draw order or hashing shows up here).
#[test]
fn fixed_seed_pins_cluster_geometry() {
    let config = cluster_config(0x5EB_0057, 4, 64);
    let env = EnvironmentState::new(&config).expect("clusters enabled");
    let coords: Vec<(u64, u64, u64)> = env
        .clusters()
        .iter()
        .map(|c| (c.plane, c.row_start, c.span_rows))
        .collect();
    println!("{coords:?}");
    assert_eq!(
        coords,
        [(0, 67, 64), (8, 7, 64), (13, 31, 64), (14, 80, 64)],
        "cluster placement drifted (bless with --nocapture if deliberate)"
    );
}
