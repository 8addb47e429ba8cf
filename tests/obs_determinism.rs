//! Determinism and zero-perturbation guarantees of the observability
//! layer.
//!
//! The contract (DESIGN.md §5.4): exported artifacts are a pure function
//! of the simulated work — byte-identical no matter how many threads ran
//! the schemes; attaching an observer never changes a single simulated
//! number; and every derived metric reconciles exactly with the golden
//! `SimStats` counters it was folded from.

use obs::{export, Recorder};
use rand::{rngs::StdRng, SeedableRng};
use reliability::mc;
use ssd::stats::COUNTERS;
use ssd::{Scheme, SimObserver, SimStats, SsdConfig, SsdSimulator, StageKind, TimingModel};
use workloads::{Trace, WorkloadSpec};

/// Same knobs as the golden fixture, shrunk for test runtime.
fn fixture_trace() -> Trace {
    let config = SsdConfig::scaled(Scheme::Baseline, 64);
    let footprint = config.geometry.logical_pages() * 7 / 10;
    WorkloadSpec::prj1()
        .with_requests(4_000)
        .with_footprint(footprint)
        .with_interarrival_scale(2.2)
        .generate(&mut StdRng::seed_from_u64(0xF1E2))
}

fn config_for(scheme: Scheme, model: TimingModel) -> SsdConfig {
    SsdConfig::scaled(scheme, 64)
        .with_base_pe(6000)
        .with_seed(7)
        .with_timing_model(model)
}

/// Runs one observed simulation and returns its stats and recorder.
fn observed_run(scheme: Scheme, trace: &Trace, model: TimingModel) -> (SimStats, Recorder) {
    let mut sim =
        SsdSimulator::new(config_for(scheme, model)).with_observer(SimObserver::new(scheme, 100));
    sim.run(trace)
        .unwrap_or_else(|e| panic!("{} failed: {e}", scheme.label()));
    let stats = sim.stats().clone();
    let recorder = sim
        .take_observer()
        .expect("observer attached")
        .into_recorder();
    (stats, recorder)
}

/// Replays every scheme on `threads` worker threads and merges the
/// per-scheme recorders in fixed scheme order — the production pattern
/// `flexlevel-sim --all-schemes` uses.
fn merged_recorder(trace: &Trace, model: TimingModel, threads: u32) -> Recorder {
    let recorders = mc::parallel_map(Scheme::ALL.to_vec(), threads, |_, scheme| {
        observed_run(scheme, trace, model).1
    });
    let mut combined = Recorder::new();
    for recorder in &recorders {
        combined.merge(recorder);
    }
    combined
}

/// Every exported artifact — Prometheus text, span JSONL, Chrome trace —
/// is byte-identical whether the schemes ran on 1, 2 or 8 threads.
#[test]
fn exports_are_byte_identical_across_thread_counts() {
    let trace = fixture_trace();
    for model in [TimingModel::SingleQueue, TimingModel::Pipelined] {
        let base = merged_recorder(&trace, model, 1);
        let prom = export::prometheus(&base.metrics);
        let jsonl = export::span_jsonl(&base.spans);
        let chrome = export::chrome_trace(&base.spans);
        for threads in [2u32, 8] {
            let other = merged_recorder(&trace, model, threads);
            assert_eq!(
                prom,
                export::prometheus(&other.metrics),
                "{}: .prom drifted at {threads} threads",
                model.label()
            );
            assert_eq!(
                jsonl,
                export::span_jsonl(&other.spans),
                "{}: span JSONL drifted at {threads} threads",
                model.label()
            );
            assert_eq!(
                chrome,
                export::chrome_trace(&other.spans),
                "{}: Chrome trace drifted at {threads} threads",
                model.label()
            );
        }
    }
}

/// Attaching an observer must not perturb the simulation: the full
/// `SimStats` — every counter, latency sample and stage account — is
/// identical with and without one, under both timing models.
#[test]
fn observer_does_not_perturb_simulation() {
    let trace = fixture_trace();
    for model in [TimingModel::SingleQueue, TimingModel::Pipelined] {
        for scheme in Scheme::ALL {
            let mut bare = SsdSimulator::new(config_for(scheme, model));
            let untraced = bare
                .run(&trace)
                .unwrap_or_else(|e| panic!("{} failed: {e}", scheme.label()))
                .clone();
            let (traced, _) = observed_run(scheme, &trace, model);
            assert_eq!(
                untraced,
                traced,
                "{} / {}: observer perturbed the simulation",
                scheme.label(),
                model.label()
            );
        }
    }
}

/// The registry's logical counters are a timing-model invariant: both
/// backends replay the same logical simulation, so every counter of the
/// `SimStats` table is exported with the same value by both, and that
/// value is the `SimStats` field it was folded from.
#[test]
fn registry_counters_match_across_timing_models() {
    let trace = fixture_trace();
    for scheme in Scheme::ALL {
        let (stats, single) = observed_run(scheme, &trace, TimingModel::SingleQueue);
        let (_, piped) = observed_run(scheme, &trace, TimingModel::Pipelined);
        let labels: &[(&str, &str)] = &[("scheme", scheme.label())];
        for counter in &COUNTERS {
            let name = format!("flexlevel_{}_total", counter.name);
            let a = single.metrics.find_counter(&name, labels);
            let b = piped.metrics.find_counter(&name, labels);
            assert_eq!(
                a,
                Some((counter.get)(&stats)),
                "{}: {name} missing or differs from SimStats",
                scheme.label()
            );
            assert_eq!(
                a,
                b,
                "{}: {name} differs across timing models",
                scheme.label()
            );
        }
    }
}

const SERIES_INTERVAL_US: u64 = 2_000;

/// Like [`observed_run`] but with windowed series sampling attached.
fn observed_series_run(scheme: Scheme, trace: &Trace, model: TimingModel) -> (SimStats, Recorder) {
    let observer = SimObserver::new(scheme, 100).with_series(SERIES_INTERVAL_US);
    let mut sim = SsdSimulator::new(config_for(scheme, model)).with_observer(observer);
    sim.run(trace)
        .unwrap_or_else(|e| panic!("{} failed: {e}", scheme.label()));
    let stats = sim.stats().clone();
    let recorder = sim
        .take_observer()
        .expect("observer attached")
        .into_recorder();
    (stats, recorder)
}

/// Series-enabled variant of [`merged_recorder`].
fn merged_series_recorder(trace: &Trace, model: TimingModel, threads: u32) -> Recorder {
    let recorders = mc::parallel_map(Scheme::ALL.to_vec(), threads, |_, scheme| {
        observed_series_run(scheme, trace, model).1
    });
    let mut combined = Recorder::new();
    for recorder in &recorders {
        combined.merge(recorder);
    }
    combined
}

/// The series JSONL is bit-identical across 1/2/8 worker threads *and*
/// across both timing backends: the sampler is keyed to trace arrival
/// times and samples only logical values, so neither the thread schedule
/// nor the timing model can leak into a single byte.
#[test]
fn series_jsonl_is_byte_identical_across_threads_and_backends() {
    let trace = fixture_trace();
    let single = merged_series_recorder(&trace, TimingModel::SingleQueue, 1);
    let golden = export::series_jsonl(&single.series);
    assert!(!golden.is_empty(), "series export produced no lines");
    for model in [TimingModel::SingleQueue, TimingModel::Pipelined] {
        for threads in [1u32, 2, 8] {
            if model == TimingModel::SingleQueue && threads == 1 {
                continue;
            }
            let other = merged_series_recorder(&trace, model, threads);
            assert_eq!(
                golden,
                export::series_jsonl(&other.series),
                "series JSONL drifted at {} / {threads} threads",
                model.label()
            );
        }
    }
}

/// Window bookkeeping is exact: windows are consecutive from 0 with
/// nominal end times, deltas telescope onto cumulative values, the last
/// (partial) window is flushed exactly once, and the final cumulative
/// row equals the end-of-run `SimStats` counters.
#[test]
fn series_windows_are_exact_and_final_flush_is_single() {
    let trace = fixture_trace();
    let last_arrival = trace.requests.last().expect("non-empty trace").arrival_us;
    let (stats, recorder) = observed_series_run(Scheme::FlexLevel, &trace, TimingModel::Pipelined);
    assert_eq!(recorder.series.len(), 1, "one block per run");
    let block = &recorder.series[0];
    assert_eq!(block.scheme, Scheme::FlexLevel.label());

    // Every boundary the trace crossed is emitted, plus exactly one
    // flush of the open partial window at end-of-run.
    let crossed = (last_arrival / SERIES_INTERVAL_US as f64).floor() as u64;
    assert_eq!(
        block.snapshots.len() as u64,
        crossed + 1,
        "expected {crossed} full windows + exactly one flushed partial window"
    );

    let mut prev: Option<&Vec<u64>> = None;
    for (k, snap) in block.snapshots.iter().enumerate() {
        assert_eq!(snap.window, k as u64, "windows must be consecutive");
        assert_eq!(
            snap.t_us,
            ((k as u64 + 1) * SERIES_INTERVAL_US) as f64,
            "window {k}: t_us must be the nominal window end"
        );
        assert_eq!(snap.cumulative.len(), block.counters.len());
        assert_eq!(snap.delta.len(), block.counters.len());
        assert_eq!(snap.gauges.len(), block.gauges.len());
        for (c, name) in block.counters.iter().enumerate() {
            let before = prev.map_or(0, |p| p[c]);
            assert!(
                snap.cumulative[c] >= before,
                "window {k}: {name} cumulative decreased"
            );
            assert_eq!(
                snap.delta[c],
                snap.cumulative[c] - before,
                "window {k}: {name} delta does not telescope"
            );
        }
        prev = Some(&snap.cumulative);
    }

    // The flushed row is the end-of-run state: its cumulative counters
    // match the golden SimStats exactly.
    let last = block.snapshots.last().expect("at least the flushed window");
    let col = |name: &str| {
        let i = block
            .counters
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("{name} missing from series schema"));
        last.cumulative[i]
    };
    for counter in &COUNTERS {
        assert_eq!(
            col(counter.name),
            (counter.get)(&stats),
            "flushed row: {} differs from SimStats",
            counter.name
        );
    }
}

/// Histogram-derived stage metrics reconcile exactly with the golden
/// `StageAccount`s: for every stage, the busy/wait histogram populations
/// and the `flexlevel_stage_ops_total` counter all equal `ops`.
#[test]
fn stage_histograms_reconcile_with_stage_accounts() {
    let trace = fixture_trace();
    let (stats, recorder) = observed_run(Scheme::FlexLevel, &trace, TimingModel::Pipelined);
    let scheme = Scheme::FlexLevel.label();
    let mut total_ops = 0;
    for kind in StageKind::ALL {
        let ops = stats.stage(kind).ops;
        total_ops += ops;
        let labels: &[(&str, &str)] = &[("scheme", scheme), ("stage", kind.label())];
        let busy = recorder
            .metrics
            .find_histogram("flexlevel_stage_busy_us", labels)
            .unwrap_or_else(|| panic!("{} busy histogram missing", kind.label()));
        let wait = recorder
            .metrics
            .find_histogram("flexlevel_stage_wait_us", labels)
            .unwrap_or_else(|| panic!("{} wait histogram missing", kind.label()));
        assert_eq!(
            busy.count(),
            ops,
            "{}: busy histogram count != StageAccount ops",
            kind.label()
        );
        assert_eq!(
            wait.count(),
            ops,
            "{}: wait histogram count != StageAccount ops",
            kind.label()
        );
        assert_eq!(
            recorder
                .metrics
                .find_counter("flexlevel_stage_ops_total", labels),
            Some(ops),
            "{}: stage ops counter != StageAccount ops",
            kind.label()
        );
        let busy_total: f64 = stats.stage(kind).busy_us;
        assert!(
            (busy.sum() - busy_total).abs() <= busy_total.abs() * 1e-9,
            "{}: busy histogram sum {} != StageAccount busy_us {}",
            kind.label(),
            busy.sum(),
            busy_total
        );
    }
    assert!(total_ops > 0, "pipelined run recorded no stage executions");
}
