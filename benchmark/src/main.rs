//! End-to-end and per-layer benchmark of the FlexLevel simulator.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload replay --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Drives one workload (`replay`, `serve-pipelined` or `campaign`)
//! in-process through the simulator's public crates on one thread. Every
//! repetition builds a fresh simulator and its output is checked. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. See `README.md` beside this
//! file for the workloads and the metrics.

mod host;
mod layers;
mod trace;
mod workload;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ldpc::QcLdpcCode;
use ssd::{ResourcePool, SimStats, StageKind};

use host::{debug_digest, low, quantile, CpuRotation};
use trace::Tracer;
use workload::{Inputs, RepOut, Workload};

/// Fresh processes that each repeat the set-up once, cold, beside the
/// measuring process's own set-up.
const SETUP_CHILDREN: usize = 6;
/// Repetitions every run makes, however short `--seconds`.
const MIN_REPS: usize = 3;
/// Probe-kernel runs before and after the workload: steps and table words
/// of each (a 32 KB table).
const PROBES: usize = 3;
const PROBE_STEPS: u64 = 2_000_000;
const PROBE_WORDS: usize = 1 << 13;
/// The probe kernel run right before and right after every timed
/// repetition: steps and table words (an 8 MB table). Its time tracks the
/// simulator's through the host's slow phases better than the 32 KB
/// probe's, which slows less than the simulator does.
const PAIRED_PROBE_STEPS: u64 = 400_000;
const PAIRED_PROBE_WORDS: usize = 1 << 21;
/// `host_kreq_per_s` prices each repetition as its time in units of its
/// paired probes' mean time, times this reference probe time: about the
/// paired probe's fastest time on a 2-core Intel Xeon container.
const REFERENCE_PAIRED_PROBE_S: f64 = 0.0125;
/// Codewords per decode-kernel repetition, and the soft-sensing depth of
/// their channel.
const DECODE_FRAMES: usize = 64;
const DECODE_EXTRA_LEVELS: u32 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_probe,
    })
}

/// Accumulates attempted and failed requests and checks every
/// repetition's output against the first (or a reference).
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
    notes: Vec<String>,
    digest: Option<u64>,
    exports: Option<u64>,
    first: Option<RepOut>,
}

impl Tally {
    fn new(reference: Option<u64>) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
            notes: Vec::new(),
            digest: reference,
            exports: None,
            first: None,
        }
    }

    fn fail(&mut self, requests: u64, note: String) {
        self.failed += requests;
        self.correct = false;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Checks one repetition; returns its timed host seconds when it
    /// passed.
    fn record(&mut self, inputs: &Inputs, rep: Result<RepOut, String>) -> Option<f64> {
        let requests = inputs.requests();
        self.attempted += requests;
        let out = match rep {
            Ok(out) => out,
            Err(e) => {
                self.fail(requests, format!("repetition failed: {e}"));
                return None;
            }
        };
        let stats = &out.stats;
        let digest = debug_digest(stats);
        let expected = *self.digest.get_or_insert(digest);
        let arrivals: u64 = stats.tenants.iter().map(|t| t.arrivals).sum();
        let dropped: u64 = stats.tenants.iter().map(|t| t.dropped).sum();
        let served_all = if stats.tenants.is_empty() {
            stats.host_requests() == requests
        } else {
            arrivals == requests && stats.host_requests() + dropped == requests
        };
        let problem = if let Err(e) = &out.check {
            Some(format!("output check failed: {e}"))
        } else if digest != expected {
            Some(format!("stats digest {digest:016x} != {expected:016x}"))
        } else if !served_all {
            Some("not every request was accounted for".to_string())
        } else if let Some(exports) = out.exports {
            let first = *self.exports.get_or_insert(exports.hash);
            (first != exports.hash).then(|| "exported bytes differ between repetitions".into())
        } else {
            None
        };
        if let Some(note) = problem {
            self.fail(requests, note);
            return None;
        }
        self.failed += dropped + stats.uncorrectable_reads;
        let secs = out.timed_s;
        if self.first.is_none() {
            self.first = Some(out);
        }
        Some(secs)
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Prints the result line: the last line of stdout.
fn print_result(tally: &Tally, metrics: &[Metric]) {
    let mut correct = tally.correct && tally.first.is_some();
    let mut body = Vec::new();
    for m in metrics {
        let value = if m.value.is_finite() {
            m.value
        } else {
            correct = false;
            eprintln!("error: metric {} is not finite", m.name);
            0.0
        };
        body.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    for note in &tally.notes {
        eprintln!("check: {note}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

/// Reference statistics every repetition must reproduce: on `campaign`,
/// an uninterrupted run of the checkpointed repetitions' inputs; elsewhere
/// the first repetition.
fn reference_digest(inputs: &Inputs) -> Result<Option<u64>, String> {
    match inputs.workload {
        Workload::Campaign => Ok(Some(debug_digest(&workload::campaign_reference(inputs)?))),
        _ => Ok(None),
    }
}

/// One cold set-up in a fresh process of this program; its host seconds.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up probe output: {e}"))
}

fn probes() -> Vec<f64> {
    (0..PROBES)
        .map(|_| host::probe_ms(PROBE_STEPS, PROBE_WORDS))
        .collect()
}

fn kreq_per_s(requests: u64, secs: f64) -> f64 {
    requests as f64 / secs / 1e3
}

/// Worst tenant's p99; a trace replay is one tenant.
fn tenant_p99_us(stats: &SimStats) -> f64 {
    if stats.tenants.is_empty() {
        return stats.response_percentile(0.99).as_f64();
    }
    stats
        .tenants
        .iter()
        .map(|t| t.p99().as_f64())
        .fold(0.0, f64::max)
}

/// The untraced run: end-to-end metrics.
fn measure(args: &Args) -> Result<(), String> {
    let probe_before = probes();
    let wait_before = host::runq_wait_s();
    let mut tr = Tracer::new(false);
    let start = Instant::now();
    let inputs = workload::setup(args.workload, args.seed, &mut tr);
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    let mut cpus = CpuRotation::new();
    for _ in 0..SETUP_CHILDREN {
        cpus.advance();
        setup_s.push(setup_in_child(args)?);
    }
    let mut tally = Tally::new(reference_digest(&inputs)?);
    // A warm-up repetition, checked but not timed. The peak RSS is read
    // after it, before the paired probes map their tables.
    cpus.advance();
    let rep = workload::run_rep(&inputs, &mut tr, true);
    tally.record(&inputs, rep);
    let peak_rss_mb = host::peak_rss_mb();
    // Each repetition's host time, and that time in units of the probe
    // kernel run on the same CPU right before and after it. The host's
    // slow phases slow the probe as they slow the simulator, so the ratio
    // holds where the raw time swings by tens of percent.
    let (mut times, mut paired, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while times.len() < MIN_REPS || start.elapsed() < budget {
        cpus.advance();
        let before = host::probe_ms(PAIRED_PROBE_STEPS, PAIRED_PROBE_WORDS);
        let rep = workload::run_rep(&inputs, &mut tr, true);
        let after = host::probe_ms(PAIRED_PROBE_STEPS, PAIRED_PROBE_WORDS);
        if let Some(secs) = tally.record(&inputs, rep) {
            let probe = (before + after) / 2.0;
            times.push(secs);
            paired.push(probe);
            ratios.push(secs * 1e3 / probe);
        }
        if !tally.correct {
            break;
        }
    }
    cpus.restore();
    let probe_after = probes();
    let runq_wait = host::runq_wait_s() - wait_before;
    println!(
        "# {} seed {}: {} reps of {} requests, rep s min/p10/p50/p90 {:.5}/{:.5}/{:.5}/{:.5}; \
         paired probe ms min/p50 {:.2}/{:.2}; rep/probe p10/p50/p90 {:.2}/{:.2}/{:.2}; \
         set-up s {:?}; probe ms before {:.2?} after {:.2?}; runq wait {:.3} s",
        args.workload.name(),
        args.seed,
        times.len(),
        inputs.requests(),
        low(&times),
        quantile(&times, 0.1),
        quantile(&times, 0.5),
        quantile(&times, 0.9),
        low(&paired),
        quantile(&paired, 0.5),
        quantile(&ratios, 0.1),
        quantile(&ratios, 0.5),
        quantile(&ratios, 0.9),
        setup_s,
        probe_before,
        probe_after,
        runq_wait
    );
    let mut metrics = vec![metric("setup_s", quantile(&setup_s, 0.5), "s")];
    if let Some(first) = tally.first.as_ref() {
        let stats = &first.stats;
        metrics.extend([
            metric(
                "host_kreq_per_s",
                kreq_per_s(
                    inputs.requests(),
                    quantile(&ratios, 0.5) * REFERENCE_PAIRED_PROBE_S,
                ),
                "kreq/s",
            ),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
            metric(
                "sim_read_mean_us",
                stats.mean_read_response().as_f64(),
                "us",
            ),
            metric(
                "sim_resp_p99_us",
                stats.response_percentile(0.99).as_f64(),
                "us",
            ),
            metric("sim_tenant_p99_us", tenant_p99_us(stats), "us"),
            metric(
                "sim_write_amp",
                stats.write_amplification(first.host_pages_written),
                "ratio",
            ),
        ]);
    }
    print_result(&tally, &metrics);
    Ok(())
}

/// The traced run: per-layer metrics from spans and single-layer kernels.
fn traced(args: &Args) -> Result<(), String> {
    let probe_before = probes();
    let wait_before = host::runq_wait_s();
    let mut tr = Tracer::new(true);
    let inputs = workload::setup(args.workload, args.seed, &mut tr);
    let campaign = args.workload == Workload::Campaign;
    let mut tally = Tally::new(reference_digest(&inputs)?);
    let mut plain = Tracer::new(false);
    let (mut traced_s, mut untraced_s, mut unobserved_s) = (Vec::new(), Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    // Traced and untraced repetitions alternate so both see the same host
    // phases; on `campaign` a third kind runs without the observer.
    let mut cpus = CpuRotation::new();
    while traced_s.len() < MIN_REPS || start.elapsed() < budget {
        cpus.advance();
        let rep = workload::run_rep(&inputs, &mut tr, true);
        traced_s.extend(tally.record(&inputs, rep));
        let rep = workload::run_rep(&inputs, &mut plain, true);
        untraced_s.extend(tally.record(&inputs, rep));
        if campaign {
            let rep = workload::run_rep(&inputs, &mut plain, false);
            unobserved_s.extend(tally.record(&inputs, rep));
        }
        if !tally.correct {
            break;
        }
    }
    cpus.restore();
    let Some(first) = tally.first.as_ref() else {
        print_result(&tally, &[]);
        return Ok(());
    };
    let stats = &first.stats;
    let requests = inputs.requests();
    let stage_ops: u64 = StageKind::ALL.iter().map(|&k| stats.stage(k).ops).sum();
    let (mut ftl_kpages, mut openloop, mut events, mut pool, mut decode) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    if inputs.trace.is_some() {
        let (secs, pages) = layers::ftl_writes(&inputs, &mut tr);
        ftl_kpages = kreq_per_s(pages, low(&secs));
    }
    if args.workload == Workload::ServePipelined {
        openloop = kreq_per_s(requests, low(&layers::openloop_drain(&inputs, &mut tr)));
        events = stage_ops as f64 / low(&layers::event_queue(stage_ops, &mut tr)) / 1e6;
        pool = stage_ops as f64 / low(&layers::resource_pool(&inputs, stage_ops, &mut tr)) / 1e6;
    }
    if campaign {
        let secs = layers::decode(args.seed, DECODE_FRAMES, DECODE_EXTRA_LEVELS, &mut tr);
        decode = kreq_per_s(DECODE_FRAMES as u64, low(&secs));
    }
    let probe_after = probes();
    let runq_wait = host::runq_wait_s() - wait_before;

    let low_of = |name: &str| {
        let d = tr.durations(name);
        if d.is_empty() {
            0.0
        } else {
            low(&d)
        }
    };
    let sum_of = |name: &str| tr.durations(name).iter().fold(0.0, |a, b| a + b);
    let sim_call_s = match args.workload {
        Workload::Replay => low_of("sim.run"),
        Workload::ServePipelined => low_of("sim.serve"),
        Workload::Campaign => {
            let both: Vec<f64> = tr
                .durations("sim.run_prefix")
                .iter()
                .zip(tr.durations("sim.resume"))
                .map(|(a, b)| a + b)
                .collect();
            low(&both)
        }
    };
    let frames = stats.decoded_frames();
    let levels: u64 = stats
        .reads_by_sensing_level
        .iter()
        .enumerate()
        .map(|(extra, &n)| extra as u64 * n)
        .sum();
    let sensed: u64 = stats.reads_by_sensing_level.iter().sum();
    let depth_frames: u64 = stats.retry_depth_histogram.iter().sum();
    let depth_sum: u64 = stats
        .retry_depth_histogram
        .iter()
        .enumerate()
        .map(|(d, &n)| d as u64 * n)
        .sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let tenant_sum = |f: fn(&ssd::TenantStats) -> u64| stats.tenants.iter().map(f).sum::<u64>();
    let exports = first.exports.unwrap_or_default();
    let mut probes_all = probe_before.clone();
    probes_all.extend(&probe_after);

    let mut m = vec![
        metric("workloads.gen_s", sum_of("workloads.generate"), "s"),
        metric("workloads.openloop_kreq_per_s", openloop, "kreq/s"),
        metric("sim.call_s", sim_call_s, "s"),
        metric("ftl.write_kpages_per_s", ftl_kpages, "kpages/s"),
        metric("ftl.erases", stats.erases as f64, "count"),
        metric(
            "ftl.gc_migrated_pages",
            stats.gc_migrated_pages as f64,
            "count",
        ),
        metric("ftl.journal_records", first.journal_records as f64, "count"),
        metric("accesseval.promotions", stats.promotions as f64, "count"),
        metric("accesseval.demotions", stats.demotions as f64, "count"),
        metric(
            "accesseval.reduced_read_share",
            ratio(stats.reduced_reads as f64, frames as f64),
            "ratio",
        ),
        metric(
            "sensing.mean_extra_levels",
            ratio(levels as f64, sensed as f64),
            "levels",
        ),
    ];
    let units = ResourcePool::new(
        inputs.config.channels,
        inputs.config.dies_per_channel,
        inputs.config.planes_per_die,
        inputs.config.decoder_slots,
    );
    for kind in StageKind::ALL {
        let account = stats.stage(kind);
        let stage = |field: &str| format!("stage.{}.{field}", kind.label());
        m.extend([
            metric(stage("ops"), account.ops as f64, "count"),
            metric(stage("busy_us"), account.busy_us, "us"),
            metric(stage("wait_us"), account.wait_us, "us"),
            metric(
                stage("util"),
                stats.stage_utilization(kind, units.units(kind)),
                "ratio",
            ),
        ]);
    }
    m.extend([
        metric("events.mops_per_s", events, "Mops/s"),
        metric("pool.mreserve_per_s", pool, "Mreserve/s"),
        metric("serve.arrivals", tenant_sum(|t| t.arrivals) as f64, "count"),
        metric("serve.dropped", tenant_sum(|t| t.dropped) as f64, "count"),
        metric("serve.deferred", tenant_sum(|t| t.deferred) as f64, "count"),
        metric(
            "serve.slo_violations",
            tenant_sum(|t| t.slo_violations) as f64,
            "count",
        ),
        metric("recovery.retry_reads", stats.retry_reads as f64, "count"),
        metric(
            "recovery.uncorrectable",
            stats.uncorrectable_reads as f64,
            "count",
        ),
        metric(
            "recovery.mean_depth",
            ratio(depth_sum as f64, depth_frames as f64),
            "rungs",
        ),
        metric("recovery.latency_us", stats.recovery_latency_us, "us"),
        metric(
            "recovery.uber",
            stats.observed_uber(QcLdpcCode::paper_code().info_bits() as u64),
            "ratio",
        ),
        metric(
            "faults.retired_blocks",
            stats.retired_blocks as f64,
            "count",
        ),
        metric("scrub.refreshes", stats.scrub_refreshes as f64, "count"),
        metric("image.checkpoint_s", low_of("recovery.checkpoint"), "s"),
        metric("image.bytes", first.image_bytes as f64, "bytes"),
        metric("image.encode_s", low_of("image.encode"), "s"),
        metric("image.decode_s", low_of("image.decode"), "s"),
        metric("image.restore_s", low_of("recovery.restore"), "s"),
        metric(
            "obs.overhead_ratio",
            if campaign {
                low(&untraced_s) / low(&unobserved_s)
            } else {
                0.0
            },
            "ratio",
        ),
        metric("obs.series_rows", exports.series_rows as f64, "count"),
        metric("obs.series_bytes", exports.series_bytes as f64, "bytes"),
        metric("obs.prom_bytes", exports.prom_bytes as f64, "bytes"),
        metric("obs.export_s", low_of("obs.export"), "s"),
        metric("ldpc.channel_build_s", sum_of("ldpc.channel_build"), "s"),
        metric("ldpc.calib_s", sum_of("ldpc.calibrate"), "s"),
        metric("ldpc.decode_kcw_per_s", decode, "kcw/s"),
        metric("host.runq_wait_s", runq_wait, "s"),
        metric("host.probe_ms", quantile(&probes_all, 0.5), "ms"),
        metric(
            "host.trace_overhead",
            low(&traced_s) / low(&untraced_s),
            "ratio",
        ),
    ]);
    println!(
        "# {} seed {} traced: {} traced / {} untraced reps; probe ms before {:.2?} after {:.2?}",
        args.workload.name(),
        args.seed,
        traced_s.len(),
        untraced_s.len(),
        probe_before,
        probe_after
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
    match tr.write_jsonl(&path, args.workload.name()) {
        Ok(()) => println!("# {} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("warning: writing spans to {}: {e}", path.display()),
    }
    print_result(&tally, &m);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: flexlevel-benchmark --workload replay|serve-pipelined|campaign \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let start = Instant::now();
        drop(workload::setup(
            args.workload,
            args.seed,
            &mut Tracer::new(false),
        ));
        println!("{}", start.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }
    let outcome = if args.trace {
        traced(&args)
    } else {
        measure(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
