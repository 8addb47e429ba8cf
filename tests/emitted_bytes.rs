//! Byte-level pins of the simulator's artifacts across versions.
//!
//! The round-trip and determinism suites prove that an artifact is stable
//! *within* one build: the image decoder reads back what the encoder
//! wrote, and repeated runs agree. Neither notices if encoder and decoder
//! drift together, or if a refactor renames a registry family. This test
//! runs one fixed, short, faulty campaign — observer on (metrics plus a
//! series interval), a midpoint checkpoint, a power cut, recovery and
//! resume — and pins FNV-1a digests of every byte it emits: the
//! checkpoint and crash images (`DeviceImage::to_bytes`), the Prometheus
//! text and the series JSONL.
//!
//! A deliberate change to any of these formats must re-bless the
//! constants (see TESTING.md); an accidental one fails here.

use obs::export;
use rand::{rngs::StdRng, SeedableRng};
use ssd::{
    trace_fingerprint, CrashPlan, DeviceImage, FaultConfig, PageMapFtl, Scheme, SimError,
    SimObserver, SsdConfig, SsdSimulator,
};
use workloads::WorkloadSpec;

const CHECKPOINT_IMAGE: u64 = 0x59A0_AE4C_55AA_A260;
const CRASH_IMAGE: u64 = 0xC908_8666_9426_A341;
const PROMETHEUS: u64 = 0xD9E2_175C_DA3E_21EF;
const SERIES_JSONL: u64 = 0x8A05_B69A_D6A4_E306;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn observer() -> SimObserver {
    SimObserver::new(Scheme::FlexLevel, 100).with_series(2_000)
}

#[test]
fn emitted_bytes_match_pinned_digests() {
    let trace = WorkloadSpec::prj1()
        .with_requests(3_000)
        .with_footprint(1_500)
        .generate(&mut StdRng::seed_from_u64(0xB17E5));
    let config = SsdConfig::scaled(Scheme::FlexLevel, 64)
        .with_base_pe(6000)
        .with_seed(7)
        .with_faults(FaultConfig::enabled().with_scale(25.0).with_seed(11));

    let mut sim = SsdSimulator::new(config.clone()).with_observer(observer());
    sim.run_prefix(&trace, 1_500).expect("prefix completes");
    let mut checkpoint = sim.checkpoint().expect("checkpoint serializes");
    checkpoint.trace_fingerprint = trace_fingerprint(&trace);
    sim.set_crash_plan(Some(CrashPlan::at_request(0x5EED, 2_250)));
    let err = sim.resume(&trace).expect_err("armed crash plan fires");
    assert!(matches!(err, SimError::PowerLoss { at_request: 2_250 }));
    let crash = sim
        .crash_image(&checkpoint)
        .expect("crash image serializes");

    let crash_bytes = crash.to_bytes();
    let image = DeviceImage::from_bytes(&crash_bytes).expect("crash image decodes");
    let (_, report) =
        PageMapFtl::recover(&image.ftl, &image.journal, image.torn).expect("journal replays");
    let age = image
        .crashed_at
        .map_or(0, |at| (at + 1).saturating_sub(image.request_cursor));
    let mut resumed = SsdSimulator::restore(config, &image).expect("image restores");
    resumed.attach_observer(observer());
    resumed.note_recovery(&report, age);
    resumed.resume(&trace).expect("resumed run completes");
    let recorder = resumed
        .take_observer()
        .expect("observer attached")
        .into_recorder();
    let prom = export::prometheus(&recorder.metrics);
    let series = export::series_jsonl(&recorder.series);
    assert!(
        prom.contains("flexlevel_journal_replayed_total"),
        "the recovery counters must be exported"
    );
    assert!(resumed.stats().retry_reads > 0, "faults must fire");

    let digests = [
        (
            "checkpoint image",
            fnv1a(&checkpoint.to_bytes()),
            CHECKPOINT_IMAGE,
        ),
        ("crash image", fnv1a(&crash_bytes), CRASH_IMAGE),
        ("Prometheus text", fnv1a(prom.as_bytes()), PROMETHEUS),
        ("series JSONL", fnv1a(series.as_bytes()), SERIES_JSONL),
    ];
    for (what, got, _) in digests {
        println!("{what}: {got:#018x}");
    }
    for (what, got, pinned) in digests {
        assert_eq!(got, pinned, "{what} bytes moved (digest {got:#018x})");
    }
}
