//! The three workloads: their inputs, their set-up, and one repetition.
//!
//! Every generator seed derives from the benchmark's `--seed`; the
//! simulator receives only the generated inputs. Each repetition builds a
//! fresh simulator, so no state carries from one repetition to the next.

use std::sync::Arc;
use std::time::Instant;

use flash_model::{Hours, LevelConfig};
use ldpc::{
    measure_iteration_profile, ChannelStress, FarmConfig, IterationProfile, LlrQuantizer,
    MlcReadChannel, PageKind, QcLdpcCode, QuantizedMinSumDecoder, Schedule, SoftSensingConfig,
};
use obs::export;
use rand::{rngs::StdRng, SeedableRng};
use ssd::{
    trace_fingerprint, DeviceImage, FaultConfig, OverloadPolicy, Scheme, ServeOptions, SimObserver,
    SimStats, SsdConfig, SsdSimulator, TenantQos, TimingModel,
};
use workloads::{OpenLoopSource, TenantWorkload, Trace, WorkloadSpec};

use crate::trace::Tracer;

/// Device size in 1 MB blocks (the experiments' default device).
pub const BLOCKS: u32 = 128;
/// Starting wear: the paper's end-of-life corner.
const PE_CYCLES: u32 = 6000;
/// Trace replay is paced as in every `exp_*` experiment binary.
const INTERARRIVAL_SCALE: f64 = 2.2;

const REPLAY_REQUESTS: u64 = 100_000;

const SERVE_REQUESTS: u64 = 50_000;
/// Poisson rates (req/s): one low-rate victim beside three heavier
/// tenants, 400 req/s in all — below the admission capacity, so no
/// request is dropped.
const SERVE_RATES: [f64; 4] = [40.0, 120.0, 120.0, 120.0];
/// Per-tenant queue-depth caps (overload policy: drop).
const SERVE_QUEUE_DEPTH: [u32; 4] = [8, 32, 32, 32];
/// Response-time SLO every tenant is held to.
const SERVE_SLO_US: f64 = 2_000.0;
const SERVE_DIES: u32 = 4;
const SERVE_DECODERS: u32 = 2;

const CAMPAIGN_REQUESTS: u64 = 60_000;
/// Fault-rate acceleration: enough for the retry ladder to run hundreds
/// of times per repetition.
const FAULT_SCALE: f64 = 10.0;
/// FER multiplier of the ladder's final deep-calibration rung, a hundredth
/// of the default. At the default, about one seed in ten had a frame that
/// failed every rung: an uncorrectable read, which is a failed operation.
/// Here none of seeds 1–160 has one. The rungs before it, and so every
/// retry count, are unchanged.
const FINAL_FER_FACTOR: f64 = 1e-3;
/// A tenth of the default program-failure rate: at most a block or two
/// retires per repetition. At the default, 7 to 15 of the 128 blocks
/// retire depending on the seed, and the lost over-provisioning moves the
/// modelled latency by ±20 % from seed to seed.
const PROGRAM_FAIL_PROB: f64 = 2e-5;
/// Series window: the series sampler's cost shows without swamping the
/// simulation.
const SERIES_INTERVAL_US: u64 = 250_000;
/// Read spans the campaign's observer keeps (reservoir-sampled).
const SPAN_SAMPLE: usize = 1024;
/// Decoded frames per sensing depth when calibrating the iteration
/// profile (the CLI's `--measured-iterations` setting).
const CALIB_TRIALS: u32 = 16;
/// Monte-Carlo samples calibrating each read channel.
const CHANNEL_SAMPLES: u32 = 20_000;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fin-2 trace replay, single-queue model, no faults, no observer.
    Replay,
    /// Four open-loop tenants on the pipelined backend.
    ServePipelined,
    /// win-1 replay with faults, observer, checkpoint and restore.
    Campaign,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "replay" => Some(Workload::Replay),
            "serve-pipelined" => Some(Workload::ServePipelined),
            "campaign" => Some(Workload::Campaign),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Replay => "replay",
            Workload::ServePipelined => "serve-pipelined",
            Workload::Campaign => "campaign",
        }
    }
}

/// SplitMix64 of `seed ^ tag`: one independent generator seed per use.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = (seed ^ tag).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything one repetition consumes, generated once per process.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload these inputs drive.
    pub workload: Workload,
    /// Simulator configuration (threads pinned to 1).
    pub config: SsdConfig,
    /// The replayed trace (`replay`, `campaign`).
    pub trace: Option<Trace>,
    /// Open-loop tenant profiles (`serve-pipelined`).
    pub tenants: Vec<TenantWorkload>,
    /// Seed of the open-loop source.
    pub source_seed: u64,
    /// Admission options (`serve-pipelined`; replay options otherwise).
    pub serve_options: ServeOptions,
}

impl Inputs {
    /// Requests one repetition offers.
    pub fn requests(&self) -> u64 {
        match &self.trace {
            Some(trace) => trace.len() as u64,
            None => self.tenants.iter().map(|t| t.requests).sum(),
        }
    }

    /// A fresh open-loop source identical to the one each repetition
    /// drains.
    pub fn source(&self) -> OpenLoopSource {
        OpenLoopSource::new(self.tenants.clone(), self.source_seed)
    }

    /// The campaign's observer: metrics, sampled read spans and the series.
    pub fn observer(&self) -> SimObserver {
        SimObserver::new(self.config.scheme, SPAN_SAMPLE).with_series(SERIES_INTERVAL_US)
    }
}

fn footprint_pages() -> u64 {
    SsdConfig::scaled(Scheme::Baseline, BLOCKS)
        .geometry
        .logical_pages()
        * 7
        / 10
}

fn base_config(seed: u64) -> SsdConfig {
    SsdConfig::scaled(Scheme::FlexLevel, BLOCKS)
        .with_base_pe(PE_CYCLES)
        .with_seed(derive_seed(seed, 0x5D))
        .with_threads(1)
}

fn trace(spec: WorkloadSpec, requests: u64, seed: u64) -> Trace {
    spec.with_requests(requests)
        .with_footprint(footprint_pages())
        .with_interarrival_scale(INTERARRIVAL_SCALE)
        .generate(&mut StdRng::seed_from_u64(seed))
}

/// Calibrates the decode-latency iteration profile with the real decoder
/// on one farm worker. Each read channel is built inside an
/// `ldpc.channel_build` span; in a fresh process those builds are cold.
pub fn calibrate(seed: u64, tr: &mut Tracer) -> IterationProfile {
    let code = QcLdpcCode::paper_code();
    let decoder = QuantizedMinSumDecoder::new().with_schedule(Schedule::Layered);
    tr.enter("ldpc.calibrate");
    let (profile, _) = measure_iteration_profile(
        &code,
        &decoder,
        &LlrQuantizer::default(),
        (IterationProfile::SLOTS - 1) as u32,
        CALIB_TRIALS,
        derive_seed(seed, 0xCA),
        FarmConfig::default().with_workers(1),
        |extra| tr.span("ldpc.channel_build", || calib_channel(seed, extra)),
    );
    tr.exit();
    profile
}

/// The read channel the calibration decodes at `extra` soft levels: the
/// starting wear at one month of retention (process-memoized).
pub fn calib_channel(seed: u64, extra: u32) -> Arc<MlcReadChannel> {
    MlcReadChannel::build_cached(
        &LevelConfig::normal_mlc(),
        PageKind::Lower,
        ChannelStress::retention(PE_CYCLES, Hours::months(1.0)),
        SoftSensingConfig::soft(extra),
        CHANNEL_SAMPLES,
        derive_seed(seed, 0xC4) ^ u64::from(extra),
    )
}

/// Generates a workload's inputs: traces or tenant profiles, the device
/// configuration and, on `campaign`, the calibrated iteration profile. A
/// device is built once as part of set-up and dropped.
pub fn setup(workload: Workload, seed: u64, tr: &mut Tracer) -> Inputs {
    let mut config = base_config(seed);
    let mut trace_out = None;
    let mut tenants = Vec::new();
    let mut serve_options = ServeOptions::replay();
    match workload {
        Workload::Replay => {
            trace_out = Some(tr.span("workloads.generate", || {
                trace(
                    WorkloadSpec::fin2(),
                    REPLAY_REQUESTS,
                    derive_seed(seed, 0x7A),
                )
            }));
        }
        Workload::ServePipelined => {
            let spec = WorkloadSpec::fin2();
            let total_rate: f64 = SERVE_RATES.iter().sum();
            let working_set = footprint_pages() / SERVE_RATES.len() as u64;
            tenants = SERVE_RATES
                .iter()
                .enumerate()
                .map(|(t, &rate)| {
                    // Requests in proportion to rate, so every tenant's
                    // arrivals span the same simulated interval.
                    let requests = (SERVE_REQUESTS as f64 * rate / total_rate).round() as u64;
                    TenantWorkload::new(t as u64 * working_set, working_set, rate)
                        .with_read_fraction(spec.read_fraction)
                        .with_zipf_theta(spec.zipf_theta)
                        .with_mean_request_pages(spec.mean_request_pages)
                        .with_requests(requests)
                })
                .collect();
            serve_options = ServeOptions {
                tenants: SERVE_QUEUE_DEPTH
                    .iter()
                    .map(|&qd| {
                        TenantQos::default()
                            .with_queue_depth(qd)
                            .with_policy(OverloadPolicy::Drop)
                            .with_slo_us(SERVE_SLO_US)
                    })
                    .collect(),
            };
            config = config
                .with_timing_model(TimingModel::Pipelined)
                .with_dies_per_channel(SERVE_DIES)
                .with_decoder_slots(SERVE_DECODERS);
        }
        Workload::Campaign => {
            trace_out = Some(tr.span("workloads.generate", || {
                trace(
                    WorkloadSpec::win1(),
                    CAMPAIGN_REQUESTS,
                    derive_seed(seed, 0x7B),
                )
            }));
            let profile = calibrate(seed, tr);
            config = config
                .with_measured_iterations(profile)
                .with_faults(FaultConfig {
                    final_fer_factor: FINAL_FER_FACTOR,
                    ..FaultConfig::enabled()
                        .with_scale(FAULT_SCALE)
                        .with_program_fail_prob(PROGRAM_FAIL_PROB)
                        .with_seed(derive_seed(seed, 0xFA))
                });
        }
    }
    drop(tr.span("ssd.new", || SsdSimulator::new(config.clone())));
    Inputs {
        workload,
        config,
        trace: trace_out,
        tenants,
        source_seed: derive_seed(seed, 0x0F),
        serve_options,
    }
}

/// What the campaign's exports produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exports {
    /// FNV-1a of the Prometheus text followed by the series JSONL.
    pub hash: u64,
    /// Prometheus text size.
    pub prom_bytes: u64,
    /// Series JSONL size.
    pub series_bytes: u64,
    /// Series rows (windows) emitted.
    pub series_rows: u64,
}

/// The outcome of one repetition.
#[derive(Debug)]
pub struct RepOut {
    /// Host seconds in the timed region (everything after the first
    /// device is built).
    pub timed_s: f64,
    /// Final statistics.
    pub stats: SimStats,
    /// Host pages written (for write amplification).
    pub host_pages_written: u64,
    /// Output checks that need the live simulator: FTL invariants and,
    /// on `campaign`, the image round trip.
    pub check: Result<(), String>,
    /// Mapping-journal records appended after the checkpoint.
    pub journal_records: u64,
    /// Encoded checkpoint image size.
    pub image_bytes: u64,
    /// Campaign exports (observer attached only).
    pub exports: Option<Exports>,
}

/// Runs one fresh repetition. `observe` attaches the campaign's observer
/// (ignored elsewhere: the other workloads run without one).
///
/// # Errors
///
/// A simulation, serving or image error, as text.
pub fn run_rep(inputs: &Inputs, tr: &mut Tracer, observe: bool) -> Result<RepOut, String> {
    tr.enter("rep");
    let out = rep_body(inputs, tr, observe);
    tr.exit();
    out
}

fn rep_body(inputs: &Inputs, tr: &mut Tracer, observe: bool) -> Result<RepOut, String> {
    let config = &inputs.config;
    Ok(match inputs.workload {
        Workload::Replay => {
            let trace = inputs.trace.as_ref().expect("replay has a trace");
            let mut sim = tr.span("ssd.new", || SsdSimulator::new(config.clone()));
            let start = Instant::now();
            let run = tr.span("sim.run", || sim.run(trace).map(|_| ()));
            let timed_s = start.elapsed().as_secs_f64();
            run.map_err(|e| e.to_string())?;
            finish(&sim, timed_s, tr, Ok(()), 0, None)
        }
        Workload::ServePipelined => {
            let mut source = tr.span("workloads.openloop_new", || inputs.source());
            let mut sim = tr.span("ssd.new", || SsdSimulator::new(config.clone()));
            let start = Instant::now();
            let run = tr.span("sim.serve", || {
                sim.serve(&mut source, &inputs.serve_options).map(|_| ())
            });
            let timed_s = start.elapsed().as_secs_f64();
            run.map_err(|e| e.to_string())?;
            finish(&sim, timed_s, tr, Ok(()), 0, None)
        }
        Workload::Campaign => campaign_rep(inputs, tr, observe)?,
    })
}

/// Campaign repetition: run to the midpoint, checkpoint, encode, decode,
/// restore, resume, then render the exports in memory.
fn campaign_rep(inputs: &Inputs, tr: &mut Tracer, observe: bool) -> Result<RepOut, String> {
    let config = &inputs.config;
    let trace = inputs.trace.as_ref().expect("campaign has a trace");
    let mut sim = tr.span("ssd.new", || SsdSimulator::new(config.clone()));
    if observe {
        sim.attach_observer(inputs.observer());
    }
    let start = Instant::now();
    tr.span("sim.run_prefix", || {
        sim.run_prefix(trace, trace.len() as u64 / 2).map(|_| ())
    })
    .map_err(|e| e.to_string())?;
    let mut image = tr
        .span("recovery.checkpoint", || sim.checkpoint())
        .map_err(|e| e.to_string())?;
    image.trace_fingerprint = trace_fingerprint(trace);
    let bytes = tr.span("image.encode", || image.to_bytes());
    drop(sim);
    let decoded = tr
        .span("image.decode", || DeviceImage::from_bytes(&bytes))
        .map_err(|e| e.to_string())?;
    let mut sim = tr
        .span("recovery.restore", || {
            SsdSimulator::restore(config.clone(), &decoded)
        })
        .map_err(|e| e.to_string())?;
    if observe {
        sim.attach_observer(inputs.observer());
    }
    // The restored device takes a fresh checkpoint before serving, so its
    // mapping changes are journaled from there on.
    tr.span("recovery.rebase", || sim.checkpoint())
        .map_err(|e| e.to_string())?;
    tr.span("sim.resume", || sim.resume(trace).map(|_| ()))
        .map_err(|e| e.to_string())?;
    let exports = sim.take_observer().map(|observer| {
        tr.enter("obs.export");
        let recorder = observer.into_recorder();
        let prom = export::prometheus(&recorder.metrics);
        let series = export::series_jsonl(&recorder.series);
        tr.exit();
        let mut both = prom.clone().into_bytes();
        both.extend_from_slice(series.as_bytes());
        Exports {
            hash: crate::host::fnv1a(&both),
            prom_bytes: prom.len() as u64,
            series_bytes: series.len() as u64,
            series_rows: recorder
                .series
                .iter()
                .map(|b| b.snapshots.len() as u64)
                .sum(),
        }
    });
    let timed_s = start.elapsed().as_secs_f64();
    let round_trip = if decoded.to_bytes() == bytes {
        decoded.verify_trace(trace).map_err(|e| e.to_string())
    } else {
        Err("decoded image does not re-encode to the same bytes".to_string())
    };
    let journal = sim.ftl().journal().map_or(0, <[_]>::len) as u64;
    let mut out = finish(&sim, timed_s, tr, round_trip, journal, exports);
    out.image_bytes = bytes.len() as u64;
    Ok(out)
}

fn finish(
    sim: &SsdSimulator,
    timed_s: f64,
    tr: &mut Tracer,
    check: Result<(), String>,
    journal_records: u64,
    exports: Option<Exports>,
) -> RepOut {
    let invariants = tr.span("ftl.check_invariants", || sim.ftl().check_invariants());
    RepOut {
        timed_s,
        stats: sim.stats().clone(),
        host_pages_written: sim.host_pages_written(),
        check: check.and(invariants),
        journal_records,
        image_bytes: 0,
        exports,
    }
}

/// One untimed, uninterrupted campaign run with the same inputs and
/// observer: the statistics every checkpointed repetition must reproduce.
///
/// # Errors
///
/// A simulation error, as text.
pub fn campaign_reference(inputs: &Inputs) -> Result<SimStats, String> {
    let trace = inputs.trace.as_ref().expect("campaign has a trace");
    let mut sim = SsdSimulator::new(inputs.config.clone()).with_observer(inputs.observer());
    sim.run(trace).cloned().map_err(|e| e.to_string())
}
