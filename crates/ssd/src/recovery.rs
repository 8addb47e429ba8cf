//! Read error recovery and sudden-power-off recovery (SPOR).
//!
//! Two recovery layers live here. The first is the per-read **error
//! recovery ladder** below. The second is device-level **crash
//! recovery**: [`DeviceImage`] is a versioned, length-prefixed binary
//! checkpoint of everything mutable in the simulated device (FTL,
//! buffer, reliability accumulators, fault counters, statistics), and
//! together with the FTL's append-only mapping journal it makes the
//! device crash-consistent — see `PageMapFtl::recover` and DESIGN.md
//! §5.8.
//!
//! When a frame fails to decode (see [`crate::faults`]), the controller
//! does not give up — it climbs a deterministic escalation ladder, the
//! standard sequence of real parts and of the read-retry literature
//! (arXiv:2202.05661, arXiv:1309.0566):
//!
//! 1. **Vref-shift re-read** — re-sense at the *same* soft depth with the
//!    best [`reliability::RetryTable`] reference shift; the FER improves
//!    by the table's calibrated-over-nominal gain.
//! 2. **Progressive soft-sensing escalation** — re-read with one more
//!    extra level per rung up to the schedule maximum, each rung buying
//!    a further FER factor (more soft information, larger effective
//!    correction budget).
//! 3. **Final deep calibration** — a last full-depth attempt with per-die
//!    optimal-shift search beyond the discrete table.
//!
//! If the final rung also fails the sector is declared **uncorrectable**
//! (this model has no RAID layer above the ECC) and feeds the
//! [`reliability::uber`](reliability::EccConfig) data-loss accounting.
//!
//! The ladder is resolved against *one* uniform draw `u`: rung `r` is
//! attempted iff `u` falls below rung `r−1`'s failure rate, so the
//! attempt sequence is monotone by construction and the whole outcome is
//! a pure function of `(u, initial FER, rung factors)` — no extra
//! randomness, no order dependence. Each attempted rung is then *priced*
//! by the simulator exactly like a first-class read at that rung's
//! sensing depth, occupying die, channel and decoder resources in the
//! pipelined timing model.

/// One attempted rung of the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryRung {
    /// Extra soft sensing levels this attempt was read with.
    pub levels: u32,
    /// Failure probability *after* this attempt (the chance the ladder
    /// continues past it).
    pub fer: f64,
}

/// The resolved outcome of one faulted read.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Every rung that was attempted, in order.
    pub rungs: Vec<RetryRung>,
    /// `true` if some rung decoded the frame; `false` declares the sector
    /// uncorrectable.
    pub recovered: bool,
}

impl RecoveryOutcome {
    /// Retry depth: the number of extra read attempts the ladder spent.
    pub fn depth(&self) -> usize {
        self.rungs.len()
    }
}

/// Deepest possible ladder for a read first sensed at `levels` of
/// `max_levels`: one Vref re-read, one escalation per remaining level,
/// and the final deep-calibration attempt.
pub fn max_depth(levels: u32, max_levels: u32) -> usize {
    max_levels.saturating_sub(levels) as usize + 2
}

/// Resolves the ladder for a read whose initial attempt failed: `u` is
/// the read's uniform fault draw (`u < fer0`), `fer0` the initial
/// frame-error rate at `levels` extra senses. `retry_factor`,
/// `escalate_factor` and `final_factor` are the FER multipliers of the
/// Vref rung, each escalation rung and the final deep rung; factors are
/// clamped to `(0, 1]` so the rung FERs decrease monotonically.
pub fn resolve(
    u: f64,
    fer0: f64,
    levels: u32,
    max_levels: u32,
    retry_factor: f64,
    escalate_factor: f64,
    final_factor: f64,
) -> RecoveryOutcome {
    let clamp = |f: f64| f.clamp(f64::MIN_POSITIVE, 1.0);
    let mut rungs = Vec::with_capacity(max_depth(levels, max_levels));
    let mut fer = fer0.clamp(0.0, 1.0);
    let attempt = |fer: f64, levels: u32, rungs: &mut Vec<RetryRung>| {
        rungs.push(RetryRung { levels, fer });
        u >= fer // recovered by this rung?
    };
    // Rung 1: Vref-shift re-read at the same sensing depth.
    fer *= clamp(retry_factor);
    if attempt(fer, levels, &mut rungs) {
        return RecoveryOutcome {
            rungs,
            recovered: true,
        };
    }
    // Rungs 2..: progressive escalation to deeper soft sensing.
    for deeper in (levels + 1)..=max_levels.max(levels) {
        fer *= clamp(escalate_factor);
        if attempt(fer, deeper, &mut rungs) {
            return RecoveryOutcome {
                rungs,
                recovered: true,
            };
        }
    }
    // Final rung: deep calibration at full depth; failure past this is
    // an uncorrectable sector.
    fer *= clamp(final_factor);
    let recovered = attempt(fer, max_levels.max(levels), &mut rungs);
    RecoveryOutcome { rungs, recovered }
}

// ---------------------------------------------------------------------
// Sudden-power-off recovery: the durable device image.
// ---------------------------------------------------------------------

use flash_model::{BlockId, CellMode};
use flexlevel::AccessEvalSnapshot;
use workloads::Trace;

use crate::config::SsdConfig;
use crate::ftl::{BlockImage, Fnv, FtlImage, GcPolicy, JournalRecord, TornPage};
use crate::stats::{Counter, SimStats, StageAccount, COUNTERS, RECOVERY_COUNTERS};

/// Why a [`DeviceImage`] could not be decoded or restored. Corrupted or
/// truncated input always surfaces as one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The byte stream ended before the encoded structure did.
    Truncated,
    /// The magic prefix is missing or wrong (not a device image).
    BadMagic,
    /// The format version is unknown to this build.
    BadVersion(u16),
    /// The image was checkpointed under a different simulator
    /// configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration doing the restore.
        expected: u64,
        /// Fingerprint stored in the image.
        found: u64,
    },
    /// The image was checkpointed against a different trace.
    TraceMismatch {
        /// Fingerprint of the trace driving the resume.
        expected: u64,
        /// Fingerprint stored in the image.
        found: u64,
    },
    /// A structurally invalid encoding (bad tag, bad length, trailing
    /// bytes, out-of-range reference).
    Corrupt(&'static str),
    /// The decoded state violates an FTL invariant.
    Invariant(String),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::Truncated => write!(f, "device image truncated"),
            ImageError::BadMagic => write!(f, "not a device image (bad magic)"),
            ImageError::BadVersion(v) => write!(f, "unsupported device-image version {v}"),
            ImageError::ConfigMismatch { expected, found } => write!(
                f,
                "image checkpointed under a different config \
                 (expected {expected:#018x}, found {found:#018x})"
            ),
            ImageError::TraceMismatch { expected, found } => write!(
                f,
                "image checkpointed against a different trace \
                 (expected {expected:#018x}, found {found:#018x})"
            ),
            ImageError::Corrupt(what) => write!(f, "corrupt device image: {what}"),
            ImageError::Invariant(what) => write!(f, "recovered state violates invariant: {what}"),
        }
    }
}

impl std::error::Error for ImageError {}

/// Fingerprint of a simulator configuration (FNV-1a over its canonical
/// debug rendering), stored in every [`DeviceImage`] so a restore under
/// a different configuration fails typed instead of diverging silently.
pub fn config_fingerprint(config: &SsdConfig) -> u64 {
    let mut h = Fnv::new();
    h.bytes(format!("{config:?}").as_bytes());
    h.0
}

/// Fingerprint of a trace (name, footprint and every request), stored in
/// the image when the checkpoint is tied to a specific replay so a
/// resume against a different trace fails typed. Zero means unchecked.
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.bytes(trace.name.as_bytes());
    h.u64(trace.footprint_pages);
    h.u64(trace.requests.len() as u64);
    for r in &trace.requests {
        h.u64(r.arrival_us.to_bits());
        h.u64(r.lpn);
        h.u32(r.pages);
        h.byte(match r.op {
            workloads::IoOp::Read => 0,
            workloads::IoOp::Write => 1,
        });
    }
    // Avoid colliding with the "unchecked" sentinel.
    if h.0 == 0 {
        1
    } else {
        h.0
    }
}

/// A durable checkpoint of the simulated device: everything mutable that
/// the next session (or crash recovery) needs to continue bit-identically
/// — FTL image and mapping journal, write buffer, per-page retention
/// ages and RNG state, AccessEval accumulators, fault-stream counters,
/// read-disturb counters, statistics, and the request cursor.
///
/// Serialized with the same conventions as `workloads::codec`: magic
/// prefix, version, little-endian, length-prefixed collections, floats
/// as IEEE-754 bits. Pure caches (BER memos, FER memos) are excluded —
/// they repopulate deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceImage {
    /// Fingerprint of the [`SsdConfig`] the image was checkpointed under.
    pub config_fingerprint: u64,
    /// Fingerprint of the driving trace (`0` = not tied to a trace).
    pub trace_fingerprint: u64,
    /// Zero-based index of the next unserved request.
    pub request_cursor: u64,
    /// The FTL snapshot.
    pub ftl: FtlImage,
    /// Write-buffer entries as `(sequence, lpn)` in LRU order.
    pub buffer: Vec<(u64, u64)>,
    /// The buffer's next LRU sequence number.
    pub buffer_next_seq: u64,
    /// Per-page retention ages as `(lpn, hours)` sorted by LPN.
    pub ages: Vec<(u64, f64)>,
    /// Raw state of the age-sampling RNG.
    pub age_rng: [u64; 4],
    /// AccessEval accumulators (FlexLevel scheme only).
    pub access_eval: Option<AccessEvalSnapshot>,
    /// Fault-stream counters as `(kind tag, lpn, count)` sorted; `None`
    /// when fault injection is off.
    pub fault_counters: Option<Vec<(u64, u64, u64)>>,
    /// Read-disturb counters as `(lpn, reads)` sorted; `None` when no
    /// environment tracks disturb.
    pub disturb: Option<Vec<(u64, u64)>>,
    /// Statistics accumulated up to the checkpoint.
    pub stats: SimStats,
    /// Host pages written (lifetime accounting input).
    pub host_pages_written: u64,
    /// Requests until the next patrol-scrub visit.
    pub scrub_countdown: u64,
    /// The scrubber's block cursor.
    pub scrub_cursor: u32,
    /// Busy horizon per channel, µs (single-queue timing model).
    pub channel_free_at: Vec<f64>,
    /// Mapping-journal records appended after the checkpoint (empty for
    /// a clean checkpoint; non-empty when the image carries a crash).
    pub journal: Vec<JournalRecord>,
    /// Torn page left by a program the crash interrupted.
    pub torn: Option<TornPage>,
    /// Request index at which power was cut, if this image is a crash.
    pub crashed_at: Option<u64>,
    /// Time-series sampler state (emitted windows plus the open window's
    /// baselines), so a resumed campaign's series continues byte-for-byte
    /// where the checkpointed run left off. `None` when the checkpointed
    /// run recorded no series (including every version-1 image).
    pub series: Option<obs::SeriesState>,
}

const IMAGE_MAGIC: &[u8; 4] = b"FXD1";
/// Version 2 appended the optional time-series state; version-1 images
/// (no series) still decode.
const IMAGE_VERSION: u16 = 2;

/// Little-endian encoder over a growable byte buffer.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc {
            buf: Vec::with_capacity(4096),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

/// Little-endian decoder with explicit remaining-length checks; every
/// short read surfaces as [`ImageError::Truncated`].
struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Dec<'a> {
        Dec { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageError> {
        if self.data.len() - self.pos < n {
            return Err(ImageError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ImageError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ImageError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ImageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ImageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ImageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, ImageError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ImageError::Corrupt("boolean out of range")),
        }
    }

    fn len(&mut self) -> Result<usize, ImageError> {
        let n = self.u32()? as usize;
        // A length can never exceed the bytes that remain (every element
        // is at least one byte) — reject absurd lengths before allocating.
        if n > self.data.len() - self.pos {
            return Err(ImageError::Truncated);
        }
        Ok(n)
    }

    fn done(&self) -> Result<(), ImageError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(ImageError::Corrupt("trailing bytes"))
        }
    }
}

fn encode_stage(e: &mut Enc, s: &StageAccount) {
    e.u64(s.ops);
    e.f64(s.busy_us);
    e.f64(s.wait_us);
}

fn decode_stage(d: &mut Dec<'_>) -> Result<StageAccount, ImageError> {
    Ok(StageAccount {
        ops: d.u64()?,
        busy_us: d.f64()?,
        wait_us: d.f64()?,
    })
}

/// Where wire v2 interleaves the non-counter fields into [`COUNTERS`]:
/// the sensing vector, response sums, reservoir and makespan follow
/// `reduced_reads`; the retry-depth histogram follows
/// `uncorrectable_reads`.
const AFTER_REDUCED_READS: usize = 11;
const AFTER_UNCORRECTABLE_READS: usize = 14;

fn encode_counters(e: &mut Enc, s: &SimStats, counters: &[Counter]) {
    for c in counters {
        e.u64((c.get)(s));
    }
}

fn decode_counters(
    d: &mut Dec<'_>,
    s: &mut SimStats,
    counters: &[Counter],
) -> Result<(), ImageError> {
    for c in counters {
        *(c.get_mut)(s) = d.u64()?;
    }
    Ok(())
}

fn encode_stats(e: &mut Enc, s: &SimStats) {
    encode_counters(e, s, &COUNTERS[..AFTER_REDUCED_READS]);
    e.len(s.reads_by_sensing_level.len());
    for &v in &s.reads_by_sensing_level {
        e.u64(v);
    }
    e.f64(s.total_response_us);
    e.f64(s.read_response_us);
    e.f64(s.max_response_us);
    e.len(s.response_samples.len());
    for &v in &s.response_samples {
        e.f64(v);
    }
    e.u64(s.responses_seen);
    e.u64(s.sample_state);
    e.f64(s.makespan_us);
    encode_counters(
        e,
        s,
        &COUNTERS[AFTER_REDUCED_READS..AFTER_UNCORRECTABLE_READS],
    );
    e.len(s.retry_depth_histogram.len());
    for &v in &s.retry_depth_histogram {
        e.u64(v);
    }
    encode_counters(e, s, &COUNTERS[AFTER_UNCORRECTABLE_READS..]);
    e.f64(s.recovery_latency_us);
    encode_stage(e, &s.stage_sense);
    encode_stage(e, &s.stage_transfer);
    encode_stage(e, &s.stage_decode);
    encode_stage(e, &s.stage_program);
    encode_stage(e, &s.stage_erase);
    // Tenanted (open-loop serving) state is not checkpointable; the
    // count is stored so the decoder can reject a hand-edited image.
    e.len(s.tenants.len());
    encode_counters(e, s, &RECOVERY_COUNTERS);
}

/// Mirrors [`encode_stats`] field for field, in wire order.
fn decode_stats(d: &mut Dec<'_>) -> Result<SimStats, ImageError> {
    let mut s = SimStats::default();
    decode_counters(d, &mut s, &COUNTERS[..AFTER_REDUCED_READS])?;
    let n = d.len()?;
    s.reads_by_sensing_level = (0..n).map(|_| d.u64()).collect::<Result<_, _>>()?;
    s.total_response_us = d.f64()?;
    s.read_response_us = d.f64()?;
    s.max_response_us = d.f64()?;
    let n = d.len()?;
    s.response_samples = (0..n).map(|_| d.f64()).collect::<Result<_, _>>()?;
    s.responses_seen = d.u64()?;
    s.sample_state = d.u64()?;
    s.makespan_us = d.f64()?;
    decode_counters(
        d,
        &mut s,
        &COUNTERS[AFTER_REDUCED_READS..AFTER_UNCORRECTABLE_READS],
    )?;
    let n = d.len()?;
    s.retry_depth_histogram = (0..n).map(|_| d.u64()).collect::<Result<_, _>>()?;
    decode_counters(d, &mut s, &COUNTERS[AFTER_UNCORRECTABLE_READS..])?;
    s.recovery_latency_us = d.f64()?;
    s.stage_sense = decode_stage(d)?;
    s.stage_transfer = decode_stage(d)?;
    s.stage_decode = decode_stage(d)?;
    s.stage_program = decode_stage(d)?;
    s.stage_erase = decode_stage(d)?;
    if d.len()? != 0 {
        return Err(ImageError::Corrupt("tenanted stats in device image"));
    }
    decode_counters(d, &mut s, &RECOVERY_COUNTERS)?;
    Ok(s)
}

fn encode_record(e: &mut Enc, r: &JournalRecord) {
    match *r {
        JournalRecord::Write {
            lpn,
            block,
            page,
            mode,
        } => {
            e.u8(1);
            e.u64(lpn);
            e.u32(block.0);
            e.u32(page);
            e.u8(match mode {
                CellMode::Normal => 0,
                CellMode::Reduced => 1,
            });
        }
        JournalRecord::Invalidate { lpn } => {
            e.u8(2);
            e.u64(lpn);
        }
        JournalRecord::Map { lpn, block, page } => {
            e.u8(3);
            e.u64(lpn);
            e.u32(block.0);
            e.u32(page);
        }
        JournalRecord::Erase { block } => {
            e.u8(4);
            e.u32(block.0);
        }
        JournalRecord::Retire { block } => {
            e.u8(5);
            e.u32(block.0);
        }
        JournalRecord::Commit { request } => {
            e.u8(6);
            e.u64(request);
        }
    }
}

fn decode_record(d: &mut Dec<'_>) -> Result<JournalRecord, ImageError> {
    Ok(match d.u8()? {
        1 => JournalRecord::Write {
            lpn: d.u64()?,
            block: BlockId(d.u32()?),
            page: d.u32()?,
            mode: match d.u8()? {
                0 => CellMode::Normal,
                1 => CellMode::Reduced,
                _ => return Err(ImageError::Corrupt("cell mode out of range")),
            },
        },
        2 => JournalRecord::Invalidate { lpn: d.u64()? },
        3 => JournalRecord::Map {
            lpn: d.u64()?,
            block: BlockId(d.u32()?),
            page: d.u32()?,
        },
        4 => JournalRecord::Erase {
            block: BlockId(d.u32()?),
        },
        5 => JournalRecord::Retire {
            block: BlockId(d.u32()?),
        },
        6 => JournalRecord::Commit { request: d.u64()? },
        _ => return Err(ImageError::Corrupt("unknown journal record tag")),
    })
}

impl DeviceImage {
    /// Serializes the image to its versioned binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.buf.extend_from_slice(IMAGE_MAGIC);
        e.u16(IMAGE_VERSION);
        e.u64(self.config_fingerprint);
        e.u64(self.trace_fingerprint);
        e.u64(self.request_cursor);
        // FTL image.
        let ftl = &self.ftl;
        e.u32(ftl.blocks);
        e.u32(ftl.pages_per_block);
        e.u32(ftl.page_bytes);
        e.u32(ftl.over_provisioning_pct);
        e.u32(ftl.gc_low_watermark);
        e.u8(match ftl.gc_policy {
            GcPolicy::Greedy => 0,
            GcPolicy::WearAware => 1,
        });
        e.len(ftl.block_states.len());
        for b in &ftl.block_states {
            e.u8(match b.mode {
                CellMode::Normal => 0,
                CellMode::Reduced => 1,
            });
            e.u32(b.frontier);
            e.u32(b.valid);
            e.u32(b.erases);
            e.bool(b.retired);
            e.len(b.slots.len());
            for slot in &b.slots {
                match slot {
                    Some(lpn) => {
                        e.u8(1);
                        e.u64(*lpn);
                    }
                    None => e.u8(0),
                }
            }
        }
        e.len(ftl.free.len());
        for &b in &ftl.free {
            e.u32(b);
        }
        for f in &ftl.frontier {
            match f {
                Some(b) => {
                    e.u8(1);
                    e.u32(*b);
                }
                None => e.u8(0),
            }
        }
        // Buffer.
        e.len(self.buffer.len());
        for &(seq, lpn) in &self.buffer {
            e.u64(seq);
            e.u64(lpn);
        }
        e.u64(self.buffer_next_seq);
        // Reliability accumulators.
        e.len(self.ages.len());
        for &(lpn, age) in &self.ages {
            e.u64(lpn);
            e.f64(age);
        }
        for &s in &self.age_rng {
            e.u64(s);
        }
        // AccessEval.
        match &self.access_eval {
            Some(snap) => {
                e.u8(1);
                e.len(snap.read_counts.len());
                for &(lpn, count) in &snap.read_counts {
                    e.u64(lpn);
                    e.u32(count);
                }
                e.u64(snap.reads_since_aging);
                e.len(snap.pool.len());
                for &(seq, lpn) in &snap.pool {
                    e.u64(seq);
                    e.u64(lpn);
                }
                e.u64(snap.pool_next_seq);
                e.u64(snap.stats.reads);
                e.u64(snap.stats.reduced_hits);
                e.u64(snap.stats.promotions);
                e.u64(snap.stats.demotions);
            }
            None => e.u8(0),
        }
        // Fault counters.
        match &self.fault_counters {
            Some(counters) => {
                e.u8(1);
                e.len(counters.len());
                for &(tag, lpn, count) in counters {
                    e.u64(tag);
                    e.u64(lpn);
                    e.u64(count);
                }
            }
            None => e.u8(0),
        }
        // Read-disturb counters.
        match &self.disturb {
            Some(disturb) => {
                e.u8(1);
                e.len(disturb.len());
                for &(lpn, reads) in disturb {
                    e.u64(lpn);
                    e.u64(reads);
                }
            }
            None => e.u8(0),
        }
        encode_stats(&mut e, &self.stats);
        e.u64(self.host_pages_written);
        e.u64(self.scrub_countdown);
        e.u32(self.scrub_cursor);
        e.len(self.channel_free_at.len());
        for &t in &self.channel_free_at {
            e.f64(t);
        }
        // Journal + crash markers.
        e.len(self.journal.len());
        for r in &self.journal {
            encode_record(&mut e, r);
        }
        match &self.torn {
            Some(t) => {
                e.u8(1);
                e.u32(t.block.0);
                e.u32(t.page);
            }
            None => e.u8(0),
        }
        match self.crashed_at {
            Some(at) => {
                e.u8(1);
                e.u64(at);
            }
            None => e.u8(0),
        }
        match &self.series {
            Some(s) => {
                e.u8(1);
                e.u64(s.interval_us);
                e.u64(s.window);
                e.len(s.last.len());
                for &v in &s.last {
                    e.u64(v);
                }
                e.len(s.snapshots.len());
                for snap in &s.snapshots {
                    e.u64(snap.window);
                    e.f64(snap.t_us);
                    e.len(snap.cumulative.len());
                    for &v in &snap.cumulative {
                        e.u64(v);
                    }
                    e.len(snap.delta.len());
                    for &v in &snap.delta {
                        e.u64(v);
                    }
                    e.len(snap.gauges.len());
                    for &v in &snap.gauges {
                        e.f64(v);
                    }
                }
            }
            None => e.u8(0),
        }
        e.buf
    }

    /// Decodes an image, verifying magic, version and structure.
    ///
    /// # Errors
    ///
    /// Any [`ImageError`]; truncated or corrupted input never panics.
    pub fn from_bytes(data: &[u8]) -> Result<DeviceImage, ImageError> {
        let mut d = Dec::new(data);
        if d.take(4)? != IMAGE_MAGIC {
            return Err(ImageError::BadMagic);
        }
        let version = d.u16()?;
        if version == 0 || version > IMAGE_VERSION {
            return Err(ImageError::BadVersion(version));
        }
        let config_fingerprint = d.u64()?;
        let trace_fingerprint = d.u64()?;
        let request_cursor = d.u64()?;
        let blocks = d.u32()?;
        let pages_per_block = d.u32()?;
        let page_bytes = d.u32()?;
        let over_provisioning_pct = d.u32()?;
        let gc_low_watermark = d.u32()?;
        let gc_policy = match d.u8()? {
            0 => GcPolicy::Greedy,
            1 => GcPolicy::WearAware,
            _ => return Err(ImageError::Corrupt("gc policy out of range")),
        };
        let n = d.len()?;
        let mut block_states = Vec::with_capacity(n);
        for _ in 0..n {
            let mode = match d.u8()? {
                0 => CellMode::Normal,
                1 => CellMode::Reduced,
                _ => return Err(ImageError::Corrupt("cell mode out of range")),
            };
            let frontier = d.u32()?;
            let valid = d.u32()?;
            let erases = d.u32()?;
            let retired = d.bool()?;
            let slots = d.len()?;
            let slots = (0..slots)
                .map(|_| {
                    Ok(match d.u8()? {
                        0 => None,
                        1 => Some(d.u64()?),
                        _ => return Err(ImageError::Corrupt("slot presence out of range")),
                    })
                })
                .collect::<Result<Vec<_>, ImageError>>()?;
            block_states.push(BlockImage {
                mode,
                frontier,
                valid,
                erases,
                retired,
                slots,
            });
        }
        let n = d.len()?;
        let free = (0..n).map(|_| d.u32()).collect::<Result<Vec<_>, _>>()?;
        let mut frontier = [None, None];
        for f in &mut frontier {
            *f = match d.u8()? {
                0 => None,
                1 => Some(d.u32()?),
                _ => return Err(ImageError::Corrupt("frontier presence out of range")),
            };
        }
        let ftl = FtlImage {
            blocks,
            pages_per_block,
            page_bytes,
            over_provisioning_pct,
            gc_low_watermark,
            gc_policy,
            block_states,
            free,
            frontier,
        };
        let n = d.len()?;
        let buffer = (0..n)
            .map(|_| Ok((d.u64()?, d.u64()?)))
            .collect::<Result<Vec<_>, ImageError>>()?;
        let buffer_next_seq = d.u64()?;
        let n = d.len()?;
        let ages = (0..n)
            .map(|_| Ok((d.u64()?, d.f64()?)))
            .collect::<Result<Vec<_>, ImageError>>()?;
        let mut age_rng = [0u64; 4];
        for s in &mut age_rng {
            *s = d.u64()?;
        }
        let access_eval = match d.u8()? {
            0 => None,
            1 => {
                let n = d.len()?;
                let read_counts = (0..n)
                    .map(|_| Ok((d.u64()?, d.u32()?)))
                    .collect::<Result<Vec<_>, ImageError>>()?;
                let reads_since_aging = d.u64()?;
                let n = d.len()?;
                let pool = (0..n)
                    .map(|_| Ok((d.u64()?, d.u64()?)))
                    .collect::<Result<Vec<_>, ImageError>>()?;
                let pool_next_seq = d.u64()?;
                let stats = flexlevel::AccessEvalStats {
                    reads: d.u64()?,
                    reduced_hits: d.u64()?,
                    promotions: d.u64()?,
                    demotions: d.u64()?,
                };
                Some(AccessEvalSnapshot {
                    read_counts,
                    reads_since_aging,
                    pool,
                    pool_next_seq,
                    stats,
                })
            }
            _ => return Err(ImageError::Corrupt("access-eval presence out of range")),
        };
        let fault_counters = match d.u8()? {
            0 => None,
            1 => {
                let n = d.len()?;
                Some(
                    (0..n)
                        .map(|_| Ok((d.u64()?, d.u64()?, d.u64()?)))
                        .collect::<Result<Vec<_>, ImageError>>()?,
                )
            }
            _ => return Err(ImageError::Corrupt("fault-counter presence out of range")),
        };
        let disturb = match d.u8()? {
            0 => None,
            1 => {
                let n = d.len()?;
                Some(
                    (0..n)
                        .map(|_| Ok((d.u64()?, d.u64()?)))
                        .collect::<Result<Vec<_>, ImageError>>()?,
                )
            }
            _ => return Err(ImageError::Corrupt("disturb presence out of range")),
        };
        let stats = decode_stats(&mut d)?;
        let host_pages_written = d.u64()?;
        let scrub_countdown = d.u64()?;
        let scrub_cursor = d.u32()?;
        let n = d.len()?;
        let channel_free_at = (0..n).map(|_| d.f64()).collect::<Result<Vec<_>, _>>()?;
        let n = d.len()?;
        let journal = (0..n)
            .map(|_| decode_record(&mut d))
            .collect::<Result<Vec<_>, _>>()?;
        let torn = match d.u8()? {
            0 => None,
            1 => Some(TornPage {
                block: BlockId(d.u32()?),
                page: d.u32()?,
            }),
            _ => return Err(ImageError::Corrupt("torn presence out of range")),
        };
        let crashed_at = match d.u8()? {
            0 => None,
            1 => Some(d.u64()?),
            _ => return Err(ImageError::Corrupt("crash presence out of range")),
        };
        let series = if version < 2 {
            None
        } else {
            match d.u8()? {
                0 => None,
                1 => {
                    let interval_us = d.u64()?;
                    let window = d.u64()?;
                    let n = d.len()?;
                    let last = (0..n).map(|_| d.u64()).collect::<Result<Vec<_>, _>>()?;
                    let n = d.len()?;
                    let snapshots = (0..n)
                        .map(|_| {
                            let window = d.u64()?;
                            let t_us = d.f64()?;
                            let n = d.len()?;
                            let cumulative =
                                (0..n).map(|_| d.u64()).collect::<Result<Vec<_>, _>>()?;
                            let n = d.len()?;
                            let delta = (0..n).map(|_| d.u64()).collect::<Result<Vec<_>, _>>()?;
                            let n = d.len()?;
                            let gauges = (0..n).map(|_| d.f64()).collect::<Result<Vec<_>, _>>()?;
                            Ok(obs::SeriesSnapshot {
                                window,
                                t_us,
                                cumulative,
                                delta,
                                gauges,
                            })
                        })
                        .collect::<Result<Vec<_>, ImageError>>()?;
                    Some(obs::SeriesState {
                        interval_us,
                        window,
                        last,
                        snapshots,
                    })
                }
                _ => return Err(ImageError::Corrupt("series presence out of range")),
            }
        };
        d.done()?;
        Ok(DeviceImage {
            config_fingerprint,
            trace_fingerprint,
            request_cursor,
            ftl,
            buffer,
            buffer_next_seq,
            ages,
            age_rng,
            access_eval,
            fault_counters,
            disturb,
            stats,
            host_pages_written,
            scrub_countdown,
            scrub_cursor,
            channel_free_at,
            journal,
            torn,
            crashed_at,
            series,
        })
    }

    /// Checks the image against the trace about to drive the resume; a
    /// `trace_fingerprint` of `0` means the image is not tied to any
    /// trace and always passes.
    ///
    /// # Errors
    ///
    /// [`ImageError::TraceMismatch`] if the image was checkpointed
    /// against a different trace.
    pub fn verify_trace(&self, trace: &Trace) -> Result<(), ImageError> {
        if self.trace_fingerprint == 0 {
            return Ok(());
        }
        let expected = trace_fingerprint(trace);
        if self.trace_fingerprint != expected {
            return Err(ImageError::TraceMismatch {
                expected,
                found: self.trace_fingerprint,
            });
        }
        Ok(())
    }

    /// Writes the image to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O failure from the filesystem.
    pub fn save<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads an image from `path`; decode failures map to
    /// [`std::io::ErrorKind::InvalidData`], mirroring `workloads::codec`.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` wrapping the [`ImageError`].
    pub fn load<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<DeviceImage> {
        let data = std::fs::read(path)?;
        DeviceImage::from_bytes(&data)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FACTORS: (f64, f64, f64) = (0.3, 0.25, 0.1);

    fn run(u: f64, fer0: f64, levels: u32) -> RecoveryOutcome {
        resolve(u, fer0, levels, 6, FACTORS.0, FACTORS.1, FACTORS.2)
    }

    #[test]
    fn wire_v2_split_points_follow_their_counters() {
        assert_eq!(COUNTERS[AFTER_REDUCED_READS - 1].name, "reduced_reads");
        assert_eq!(
            COUNTERS[AFTER_UNCORRECTABLE_READS - 1].name,
            "uncorrectable_reads"
        );
    }

    #[test]
    fn shallow_fault_recovers_on_the_vref_rung() {
        // u just below fer0 but above fer0 × retry_factor: one re-read.
        let out = run(5e-3, 1e-2, 4);
        assert!(out.recovered);
        assert_eq!(out.depth(), 1);
        assert_eq!(out.rungs[0].levels, 4, "same depth, shifted references");
    }

    #[test]
    fn deeper_faults_climb_monotonically() {
        let out = run(1e-4, 1e-2, 3);
        assert!(out.recovered);
        assert!(out.depth() >= 2);
        // Sensing depth never decreases along the ladder.
        assert!(out.rungs.windows(2).all(|w| w[0].levels <= w[1].levels));
        // Rung FERs strictly decrease (factors < 1).
        assert!(out.rungs.windows(2).all(|w| w[0].fer > w[1].fer));
    }

    #[test]
    fn hopeless_draw_is_uncorrectable_at_max_depth() {
        let out = run(0.0, 1e-2, 2);
        assert!(!out.recovered);
        assert_eq!(out.depth(), max_depth(2, 6));
        assert_eq!(out.rungs.last().unwrap().levels, 6);
    }

    #[test]
    fn ladder_from_full_depth_has_two_rungs() {
        // A read already at max sensing can only Vref-retry and deep-cal.
        assert_eq!(max_depth(6, 6), 2);
        let out = run(0.0, 1e-2, 6);
        assert_eq!(out.depth(), 2);
        assert!(out.rungs.iter().all(|r| r.levels == 6));
    }

    #[test]
    fn depth_is_monotone_in_the_draw() {
        // Smaller u (a worse fault) never yields a shallower ladder.
        let mut prev = 0;
        for u in [9e-3, 2e-3, 4e-4, 1e-5, 1e-8, 0.0] {
            let d = run(u, 1e-2, 0).depth();
            assert!(d >= prev, "u={u}: depth {d} < {prev}");
            prev = d;
        }
        assert_eq!(prev, max_depth(0, 6));
    }

    #[test]
    fn degenerate_factors_are_clamped() {
        // Zero/negative factors must not freeze the ladder at fer 0-division
        // weirdness; they clamp to a tiny positive value, so the first
        // rung recovers anything with u > 0.
        let out = resolve(1e-300, 1.0, 0, 6, 0.0, -1.0, 0.0);
        assert!(out.recovered);
        assert_eq!(out.depth(), 1);
        // And a factor > 1 cannot make rungs *worse* than the last.
        let out = resolve(5e-3, 1e-2, 5, 6, 7.0, 7.0, 7.0);
        assert!(out.rungs.windows(2).all(|w| w[0].fer >= w[1].fer));
    }

    #[test]
    fn resolved_outcome_is_pure() {
        let a = run(3e-4, 8e-3, 1);
        let b = run(3e-4, 8e-3, 1);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod image_tests {
    use super::*;
    use crate::config::{Scheme, SsdConfig};
    use crate::sim::SsdSimulator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use workloads::WorkloadSpec;

    fn checkpointed(scheme: Scheme) -> (SsdConfig, Trace, DeviceImage) {
        let trace = WorkloadSpec::fin2()
            .with_requests(600)
            .with_footprint(1_200)
            .generate(&mut StdRng::seed_from_u64(11));
        let config = SsdConfig::scaled(scheme, 64).with_seed(3);
        let mut sim = SsdSimulator::new(config.clone());
        sim.run_prefix(&trace, 300).expect("prefix runs");
        let mut image = sim.checkpoint().expect("checkpoint");
        image.trace_fingerprint = trace_fingerprint(&trace);
        (config, trace, image)
    }

    #[test]
    fn image_round_trips_bit_identically() {
        for scheme in [Scheme::Baseline, Scheme::FlexLevel] {
            let (_, _, image) = checkpointed(scheme);
            let bytes = image.to_bytes();
            let back = DeviceImage::from_bytes(&bytes).expect("decodes");
            assert_eq!(back, image);
            assert_eq!(back.to_bytes(), bytes, "re-encoding must be stable");
        }
    }

    #[test]
    fn every_truncation_fails_typed() {
        let (_, _, image) = checkpointed(Scheme::FlexLevel);
        let bytes = image.to_bytes();
        // Every strict prefix must produce an error, never a panic and
        // never a bogus image. Stride keeps the sweep fast; the edges
        // (empty, header, one-short) are hit explicitly.
        let edges = [0, 1, 3, IMAGE_MAGIC.len(), bytes.len() - 1];
        for len in (0..bytes.len()).step_by(131).chain(edges) {
            assert!(
                DeviceImage::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (_, _, image) = checkpointed(Scheme::Baseline);
        let mut bytes = image.to_bytes();
        bytes.push(0);
        assert_eq!(
            DeviceImage::from_bytes(&bytes),
            Err(ImageError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let (_, _, image) = checkpointed(Scheme::Baseline);
        let mut bytes = image.to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(DeviceImage::from_bytes(&bytes), Err(ImageError::BadMagic));
        let mut bytes = image.to_bytes();
        bytes[4] = 0x7F;
        assert!(matches!(
            DeviceImage::from_bytes(&bytes),
            Err(ImageError::BadVersion(_))
        ));
    }

    #[test]
    fn corrupted_bytes_never_panic() {
        let (_, _, image) = checkpointed(Scheme::FlexLevel);
        let bytes = image.to_bytes();
        let mut state = 0x5EED_CAFE_u64;
        for _ in 0..256 {
            let mut mutated = bytes.clone();
            let r = crate::faults::splitmix64(&mut state);
            let index = (r as usize) % mutated.len();
            mutated[index] ^= (1 << ((r >> 48) % 8)) as u8;
            // Either a typed error or a (different or identical) image —
            // the decoder must stay total.
            let _ = DeviceImage::from_bytes(&mutated);
        }
    }

    #[test]
    fn verify_trace_distinguishes_traces() {
        let (_, trace, image) = checkpointed(Scheme::Baseline);
        assert_eq!(image.verify_trace(&trace), Ok(()));
        let other = WorkloadSpec::fin2()
            .with_requests(600)
            .with_footprint(1_200)
            .generate(&mut StdRng::seed_from_u64(12));
        assert!(matches!(
            image.verify_trace(&other),
            Err(ImageError::TraceMismatch { .. })
        ));
        let mut untied = image.clone();
        untied.trace_fingerprint = 0;
        assert_eq!(untied.verify_trace(&other), Ok(()));
    }

    #[test]
    fn save_load_round_trips_via_disk() {
        let (_, _, image) = checkpointed(Scheme::Baseline);
        let path = std::env::temp_dir().join("flexlevel_image_roundtrip.bin");
        image.save(&path).expect("save");
        let back = DeviceImage::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, image);
    }
}
