//! Work-stealing decoder-slot farm.
//!
//! One decode engine shared by every producer of codewords:
//! iteration-profile calibration ([`measure_iteration_profile`]) and the
//! SSD simulator's decoder pool (`flexlevel-sim --measured-iterations`).
//! The farm's worker count comes from the same knob as every other
//! thread pool in the workspace: an explicit request wins, otherwise
//! `FLEXLEVEL_THREADS`, otherwise the machine
//! ([`reliability::mc::resolve_threads`]). Frames from all
//! producers are packed **in submission order** into batch-sized
//! structure-of-arrays jobs, so batches fill completely instead of each
//! producer running half-empty batches of its own; worker threads then
//! *steal* jobs off a shared atomic counter, each with its own
//! [`DecoderWorkspace`] arena, and results land in a fixed-order slot
//! table.
//!
//! # Determinism
//!
//! The quantized kernels are strictly lane-wise — no operation ever mixes
//! batch lanes — so a frame's verdict is independent of which job it
//! landed in, which lanes share its batch, and which worker decoded it.
//! Combined with the fixed-order reduction this gives the same contract
//! as `reliability::mc`: results are a pure function of the request list,
//! bit-identical for every worker count (and every batch width).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use reliability::mc;

use crate::channel::MlcReadChannel;
use crate::code::QcLdpcCode;
use crate::decoder::DecoderGraph;
use crate::encoder::{encode, random_info};
use crate::latency::IterationProfile;
use crate::quantized::{DecoderWorkspace, LlrQuantizer, QuantizedMinSumDecoder};
use crate::sensing::FerMeasurement;

/// Sizing knobs of a [`DecodeFarm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmConfig {
    /// Worker threads; `0` = auto (`reliability::mc::resolve_threads`,
    /// i.e. `FLEXLEVEL_THREADS` or the machine). Has **no** effect on
    /// results, only wall-clock — the simulator forwards its unified
    /// `--threads` knob here.
    pub workers: u32,
    /// Lanes per batch job. The bit-plane kernel retires 64 lanes per
    /// machine word, so the default is 64. Also result-neutral.
    pub batch: usize,
}

impl Default for FarmConfig {
    fn default() -> FarmConfig {
        FarmConfig {
            workers: 0,
            batch: 64,
        }
    }
}

impl FarmConfig {
    /// Returns the config with an explicit worker count
    /// (`0` keeps the auto behaviour).
    #[must_use]
    pub fn with_workers(mut self, workers: u32) -> FarmConfig {
        self.workers = workers;
        self
    }

    /// Returns the config with an explicit batch width.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> FarmConfig {
        assert!(batch > 0, "farm batch must be non-empty");
        self.batch = batch;
        self
    }
}

/// One codeword to decode: quantized channel LLRs plus, optionally, the
/// transmitted codeword to verify the hard decision against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeRequest {
    /// Quantized channel LLRs, one per codeword bit (positive ⇒ bit 0).
    pub qllrs: Vec<i8>,
    /// Transmitted codeword, if known (Monte-Carlo producers know it;
    /// a real read path does not).
    pub expected: Option<Vec<u8>>,
}

/// Per-frame outcome of a farm decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeVerdict {
    /// The syndrome cleared within the iteration budget.
    pub success: bool,
    /// Iterations (flooding) / sweeps (layered) the frame executed.
    pub iterations: u32,
    /// `success` *and* the hard decision matched
    /// [`DecodeRequest::expected`]; equals `success` when no expectation
    /// was attached.
    pub correct: bool,
}

/// The shared work-stealing decode engine. Cheap to construct (the graph
/// is process-memoized); freely shareable across threads.
#[derive(Debug, Clone)]
pub struct DecodeFarm {
    graph: Arc<DecoderGraph>,
    decoder: QuantizedMinSumDecoder,
    config: FarmConfig,
}

impl DecodeFarm {
    /// Builds a farm decoding `code` with `decoder`.
    pub fn new(
        code: &QcLdpcCode,
        decoder: QuantizedMinSumDecoder,
        config: FarmConfig,
    ) -> DecodeFarm {
        DecodeFarm {
            graph: DecoderGraph::cached(code),
            decoder,
            config,
        }
    }

    /// The decoder every job runs.
    pub fn decoder(&self) -> &QuantizedMinSumDecoder {
        &self.decoder
    }

    /// The farm's sizing knobs.
    pub fn config(&self) -> &FarmConfig {
        &self.config
    }

    /// Decodes every request and returns verdicts in request order.
    ///
    /// Requests are packed into `config.batch`-lane jobs in submission
    /// order (the final job may be partial); workers pull jobs off a
    /// shared counter until the queue drains. Bit-identical for every
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics if any request's LLR length does not match the code.
    pub fn decode_all(&self, requests: &[DecodeRequest]) -> Vec<DecodeVerdict> {
        let n = self.graph.bit_count();
        for (i, req) in requests.iter().enumerate() {
            assert_eq!(
                req.qllrs.len(),
                n,
                "request {i}: LLR length must match codeword length"
            );
        }
        if requests.is_empty() {
            return Vec::new();
        }
        let batch = self.config.batch;
        let jobs: Vec<&[DecodeRequest]> = requests.chunks(batch).collect();
        let run_job = |job: &[DecodeRequest], ws: &mut DecoderWorkspace, soa: &mut Vec<i8>| {
            let lanes = job.len();
            soa.clear();
            soa.resize(n * lanes, 0);
            for (lane, req) in job.iter().enumerate() {
                for (bit, &q) in req.qllrs.iter().enumerate() {
                    soa[bit * lanes + lane] = q;
                }
            }
            let out = self.decoder.decode_batch(&self.graph, soa, lanes, ws);
            job.iter()
                .enumerate()
                .map(|(lane, req)| {
                    let success = out.success(lane);
                    let correct = success
                        && req
                            .expected
                            .as_ref()
                            .is_none_or(|cw| (0..n).all(|bit| out.hard_bit(lane, bit) == cw[bit]));
                    DecodeVerdict {
                        success,
                        iterations: out.iterations(lane),
                        correct,
                    }
                })
                .collect::<Vec<DecodeVerdict>>()
        };

        let workers = mc::resolve_threads(self.config.workers).min(jobs.len() as u32);
        if workers <= 1 {
            let mut ws = DecoderWorkspace::new();
            let mut soa = Vec::new();
            return jobs
                .iter()
                .flat_map(|job| run_job(job, &mut ws, &mut soa))
                .collect();
        }
        let slots: Vec<Mutex<Option<Vec<DecodeVerdict>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut ws = DecoderWorkspace::new();
                    let mut soa = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= jobs.len() {
                            break;
                        }
                        let out = run_job(jobs[index], &mut ws, &mut soa);
                        *slots[index].lock().expect("farm slot poisoned") = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .flat_map(|slot| {
                slot.into_inner()
                    .expect("farm slot poisoned")
                    .expect("every job ran")
            })
            .collect()
    }
}

/// Measures the mean layered/flooding iteration count per sensing depth
/// through one shared farm queue, and folds it into an
/// [`IterationProfile`] for `SsdConfig::measured_iterations`.
///
/// All depths' frames (depth `e` seeded from `mc::shard_seed(seed, e)`)
/// are generated first and submitted as **one** request list, so rungs
/// fill each other's batches — the multi-producer case the farm exists
/// for. Returns the profile plus the underlying ladder (success rate,
/// mean iterations and raw BER per depth).
///
/// # Panics
///
/// Panics if `trials_per_level == 0`.
#[allow(clippy::too_many_arguments)] // mirrors `minimum_levels`' surface
pub fn measure_iteration_profile<F>(
    code: &QcLdpcCode,
    decoder: &QuantizedMinSumDecoder,
    quantizer: &LlrQuantizer,
    max_levels: u32,
    trials_per_level: u32,
    seed: u64,
    farm_config: FarmConfig,
    mut make_channel: F,
) -> (IterationProfile, Vec<FerMeasurement>)
where
    F: FnMut(u32) -> Arc<MlcReadChannel>,
{
    assert!(trials_per_level > 0, "need at least one trial per level");
    let n = code.codeword_bits();
    let mut requests = Vec::new();
    let mut spans = Vec::new();
    for extra in 0..=max_levels {
        let channel = make_channel(extra);
        let table = channel.quantized_llr_table(quantizer);
        let mut rng = mc::shard_rng(seed, extra);
        let start = requests.len();
        for _ in 0..trials_per_level {
            let info = random_info(code, &mut rng);
            let cw = encode(code, &info).expect("random info has the right length");
            let mut qllrs = vec![0i8; n];
            for (bit, &b) in cw.iter().enumerate() {
                let region = channel.sample_region(b, &mut rng);
                qllrs[bit] = table[region];
            }
            requests.push(DecodeRequest {
                qllrs,
                expected: Some(cw),
            });
        }
        spans.push((extra, start..requests.len(), channel.raw_ber()));
    }
    let farm = DecodeFarm::new(code, *decoder, farm_config);
    let verdicts = farm.decode_all(&requests);
    let mut ladder = Vec::new();
    for (extra, span, raw_ber) in spans {
        let slice = &verdicts[span];
        let trials = slice.len() as f64;
        let correct = slice.iter().filter(|v| v.correct).count() as f64;
        let iterations: u64 = slice.iter().map(|v| u64::from(v.iterations)).sum();
        ladder.push(FerMeasurement {
            extra_levels: extra,
            success_rate: correct / trials,
            mean_iterations: iterations as f64 / trials,
            raw_ber,
        });
    }
    let profile = IterationProfile::from_ladder(&ladder).expect("ladder is non-empty");
    (profile, ladder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelStress, PageKind, SoftSensingConfig};
    use crate::quantized::Schedule;
    use flash_model::{Hours, LevelConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noisy_request(code: &QcLdpcCode, p: f64, rng: &mut StdRng) -> DecodeRequest {
        let q = LlrQuantizer::default();
        let cw = encode(code, &random_info(code, rng)).unwrap();
        let qllrs = cw
            .iter()
            .map(|&bit| {
                let observed = bit ^ u8::from(rng.gen_bool(p));
                q.quantize(if observed == 0 { 4.0 } else { -4.0 })
            })
            .collect();
        DecodeRequest {
            qllrs,
            expected: Some(cw),
        }
    }

    #[test]
    fn farm_matches_per_frame_decodes() {
        let code = QcLdpcCode::small_test_code();
        let decoder = QuantizedMinSumDecoder::new();
        let graph = DecoderGraph::cached(&code);
        let mut rng = StdRng::seed_from_u64(41);
        let requests: Vec<DecodeRequest> = (0..23)
            .map(|i| noisy_request(&code, if i % 3 == 0 { 0.0 } else { 0.02 }, &mut rng))
            .collect();
        // Odd batch width forces a partial trailing job.
        let farm = DecodeFarm::new(&code, decoder, FarmConfig::default().with_batch(7));
        let verdicts = farm.decode_all(&requests);
        assert_eq!(verdicts.len(), requests.len());
        let mut ws = DecoderWorkspace::new();
        for (req, verdict) in requests.iter().zip(&verdicts) {
            let solo = decoder.decode(&graph, &req.qllrs, &mut ws);
            assert_eq!(verdict.success, solo.success);
            assert_eq!(verdict.iterations, solo.iterations);
            let want_correct =
                solo.success && &solo.hard_decision == req.expected.as_ref().unwrap();
            assert_eq!(verdict.correct, want_correct);
        }
    }

    #[test]
    fn farm_verdicts_identical_for_any_worker_count() {
        let code = QcLdpcCode::small_test_code();
        let decoder = QuantizedMinSumDecoder::new().with_schedule(Schedule::Layered);
        let mut rng = StdRng::seed_from_u64(42);
        let requests: Vec<DecodeRequest> = (0..40)
            .map(|_| noisy_request(&code, 0.02, &mut rng))
            .collect();
        let run = |workers: u32| {
            DecodeFarm::new(
                &code,
                decoder,
                FarmConfig::default().with_workers(workers).with_batch(8),
            )
            .decode_all(&requests)
        };
        let serial = run(1);
        for workers in [2u32, 8] {
            assert_eq!(serial, run(workers), "workers {workers}");
        }
    }

    #[test]
    fn farm_handles_empty_queue() {
        let code = QcLdpcCode::small_test_code();
        let farm = DecodeFarm::new(&code, QuantizedMinSumDecoder::new(), FarmConfig::default());
        assert!(farm.decode_all(&[]).is_empty());
    }

    #[test]
    fn iteration_profile_reflects_noise() {
        let code = QcLdpcCode::small_test_code();
        let decoder = QuantizedMinSumDecoder::new().with_schedule(Schedule::Layered);
        let (profile, ladder) = measure_iteration_profile(
            &code,
            &decoder,
            &LlrQuantizer::default(),
            2,
            24,
            91,
            FarmConfig::default(),
            |extra| {
                MlcReadChannel::build_cached(
                    &LevelConfig::normal_mlc(),
                    PageKind::Lower,
                    ChannelStress::retention(5000, Hours::weeks(1.0)),
                    SoftSensingConfig::soft(extra),
                    20_000,
                    50 + u64::from(extra),
                )
            },
        );
        assert_eq!(ladder.len(), 3);
        for rung in &ladder {
            assert!(rung.mean_iterations >= 1.0);
            assert!((0.0..=1.0).contains(&rung.success_rate));
        }
        assert!(profile.mean_iterations(0) >= 1.0);
        // Deterministic: same inputs, same profile.
        let (again, _) = measure_iteration_profile(
            &code,
            &decoder,
            &LlrQuantizer::default(),
            2,
            24,
            91,
            FarmConfig::default().with_workers(4),
            |extra| {
                MlcReadChannel::build_cached(
                    &LevelConfig::normal_mlc(),
                    PageKind::Lower,
                    ChannelStress::retention(5000, Hours::weeks(1.0)),
                    SoftSensingConfig::soft(extra),
                    20_000,
                    50 + u64::from(extra),
                )
            },
        );
        assert_eq!(profile, again);
    }
}
