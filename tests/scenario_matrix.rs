//! Golden regression matrix for the scenario engine: every named
//! [`ScenarioSpec`] preset × all four storage schemes replayed over the
//! pinned golden trace, with the integer [`SimStats`] counters and the
//! retry-depth histogram of every cell asserted exactly.
//!
//! The matrix extends `tests/golden_sim.rs` sideways: the `baseline`
//! rows reproduce that fixture byte-for-byte (the empty environment is
//! the identity), and every other row fingerprints one hostile
//! environment — correlated SEU clusters, a thermal gradient, read
//! disturb, TLC cell technology — through the whole stack. A drift in
//! any cell prints a readable matrix diff; to bless a deliberate change,
//! re-run with `--nocapture` and replace the `GOLDEN` table with the
//! printed rows (see TESTING.md).

use rand::{rngs::StdRng, SeedableRng};
use reliability::{parallel_map, EccConfig};
use ssd::{ScenarioSpec, Scheme, SimStats, SsdConfig, SsdSimulator, TimingModel};
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

/// One matrix cell: `spec` applied over the golden base configuration.
fn cell_config(spec: &ScenarioSpec, scheme: Scheme, timing: TimingModel) -> SsdConfig {
    spec.apply(
        SsdConfig::scaled(scheme, 64)
            .with_base_pe(6000)
            .with_seed(7)
            .with_timing_model(timing),
    )
}

fn run_cell(spec: &ScenarioSpec, scheme: Scheme, trace: &Trace, timing: TimingModel) -> SimStats {
    let mut sim = SsdSimulator::new(cell_config(spec, scheme, timing));
    sim.run(trace)
        .unwrap_or_else(|e| panic!("{}/{} failed: {e}", spec.name, scheme.label()))
        .clone()
}

/// Histogram rendered with trailing zeros trimmed (stable under a
/// `max_extra_levels` widening that only appends empty bins).
fn fmt_hist(h: &[u64]) -> String {
    let trimmed = h.len() - h.iter().rev().take_while(|&&n| n == 0).count();
    format!("{:?}", &h[..trimmed.max(1)])
}

/// One golden row: every integer counter of the cell, formatted so a
/// diff reads as a labelled record rather than a bare tuple.
fn row_line(scenario: &str, scheme: Scheme, s: &SimStats) -> String {
    format!(
        "{scenario:<17} {:<12} host={}/{}/{} flash={}/{}/{} gc={}/{} acc={}/{} red={} \
         lvls={} retry={}/{}/{} depths={} scrub={}/{}/{} die={} pfail={}/{}",
        scheme.label(),
        s.host_reads,
        s.host_writes,
        s.buffer_read_hits,
        s.flash_reads,
        s.flash_programs,
        s.erases,
        s.gc_runs,
        s.gc_migrated_pages,
        s.promotions,
        s.demotions,
        s.reduced_reads,
        fmt_hist(&s.reads_by_sensing_level),
        s.retry_reads,
        s.recovered_reads,
        s.uncorrectable_reads,
        fmt_hist(&s.retry_depth_histogram),
        s.scrub_runs,
        s.scrub_reads,
        s.scrub_refreshes,
        s.die_resets,
        s.program_failures,
        s.retired_blocks,
    )
}

/// Pinned rows: every preset × every scheme over the golden trace.
/// Regenerate with
/// `cargo test -p bench --test scenario_matrix -- --nocapture`.
const GOLDEN: &[&str] = &[
    "baseline          baseline     host=2064/3936/137 flash=12358/19725/281 gc=281/4424 acc=0/0 red=0 lvls=[495, 1266, 831, 0, 4634, 0, 708] retry=0/0/0 depths=[0] scrub=0/0/0 die=0 pfail=0/0",
    "baseline          LDPC-in-SSD  host=2064/3936/137 flash=12358/19725/281 gc=281/4424 acc=0/0 red=0 lvls=[495, 1266, 831, 0, 4634, 0, 708] retry=0/0/0 depths=[0] scrub=0/0/0 die=0 pfail=0/0",
    "baseline          LevelAdjust-only host=2064/3936/137 flash=18779/26146/507 gc=507/10845 acc=0/0 red=6423 lvls=[105, 223, 154, 0, 895, 0, 134] retry=0/0/0 depths=[0] scrub=0/0/0 die=0 pfail=0/0",
    "baseline          LevelAdjust+AccessEval host=2064/3936/137 flash=12941/20308/299 gc=299/4865 acc=142/0 red=677 lvls=[448, 1163, 740, 0, 4236, 0, 670] retry=0/0/0 depths=[0] scrub=0/0/0 die=0 pfail=0/0",
    "seu-burst         baseline     host=2064/3936/137 flash=13661/20715/298 gc=298/4949 acc=0/0 red=0 lvls=[541, 1246, 746, 0, 4404, 0, 997] retry=258/243/7 depths=[7684, 242, 8] scrub=12/431/373 die=0 pfail=3/3",
    "seu-burst         LDPC-in-SSD  host=2064/3936/137 flash=13697/20715/298 gc=298/4949 acc=0/0 red=0 lvls=[541, 1246, 746, 0, 4404, 0, 997] retry=294/279/7 depths=[7648, 278, 8] scrub=12/431/373 die=0 pfail=3/3",
    "seu-burst         LevelAdjust-only host=2064/3936/137 flash=21475/28136/548 gc=548/12713 acc=0/0 red=6423 lvls=[78, 221, 142, 0, 682, 0, 388] retry=289/276/6 depths=[7652, 275, 7] scrub=12/420/0 die=0 pfail=3/3",
    "seu-burst         LevelAdjust+AccessEval host=2064/3936/137 flash=14345/21369/318 gc=318/5419 acc=148/0 red=709 lvls=[485, 1103, 698, 0, 4024, 0, 915] retry=288/271/7 depths=[7656, 270, 7, 0, 1] scrub=12/430/372 die=0 pfail=3/3",
    "thermal-tilt      baseline     host=2064/3936/137 flash=15284/20579/296 gc=296/4876 acc=0/0 red=0 lvls=[414, 564, 415, 0, 2120, 0, 4421] retry=2046/1965/29 depths=[5940, 1942, 52] scrub=12/343/314 die=0 pfail=3/3",
    "thermal-tilt      LDPC-in-SSD  host=2064/3936/137 flash=15303/20579/296 gc=296/4876 acc=0/0 red=0 lvls=[414, 564, 415, 0, 2120, 0, 4421] retry=2065/1983/29 depths=[5922, 1959, 53] scrub=12/343/314 die=0 pfail=3/3",
    "thermal-tilt      LevelAdjust-only host=2064/3936/137 flash=21561/28136/548 gc=548/12713 acc=0/0 red=6423 lvls=[72, 129, 84, 0, 385, 0, 841] retry=375/362/3 depths=[7569, 355, 10] scrub=12/420/0 die=0 pfail=3/3",
    "thermal-tilt      LevelAdjust+AccessEval host=2064/3936/137 flash=15840/21283/316 gc=316/5321 acc=157/0 red=729 lvls=[400, 510, 390, 0, 1842, 0, 4063] retry=1888/1811/25 depths=[6098, 1784, 52] scrub=12/376/337 die=0 pfail=3/3",
    "read-disturb-hot  baseline     host=2064/3936/137 flash=13479/20812/299 gc=299/5012 acc=0/0 red=0 lvls=[611, 1224, 798, 0, 4439, 1, 861] retry=0/0/0 depths=[7934] scrub=12/410/373 die=0 pfail=3/3",
    "read-disturb-hot  LDPC-in-SSD  host=2064/3936/137 flash=13529/20812/299 gc=299/5012 acc=0/0 red=0 lvls=[611, 1224, 798, 0, 4439, 1, 861] retry=50/39/2 depths=[7893, 39, 0, 0, 1, 0, 0, 1] scrub=12/410/373 die=0 pfail=3/3",
    "read-disturb-hot  LevelAdjust-only host=2064/3936/137 flash=21195/28136/548 gc=548/12713 acc=0/0 red=6423 lvls=[101, 239, 168, 0, 864, 1, 138] retry=9/5/1 depths=[7928, 5, 0, 0, 1] scrub=12/420/0 die=0 pfail=3/3",
    "read-disturb-hot  LevelAdjust+AccessEval host=2064/3936/137 flash=14055/21320/316 gc=316/5364 acc=146/0 red=691 lvls=[569, 1098, 725, 0, 4044, 1, 806] retry=53/42/2 depths=[7890, 40, 1, 1, 2] scrub=12/459/407 die=0 pfail=3/3",
    "tlc               baseline     host=2064/3936/137 flash=12358/19725/281 gc=281/4424 acc=0/0 red=0 lvls=[0, 0, 0, 0, 0, 0, 7934] retry=0/0/0 depths=[0] scrub=0/0/0 die=0 pfail=0/0",
    "tlc               LDPC-in-SSD  host=2064/3936/137 flash=12358/19725/281 gc=281/4424 acc=0/0 red=0 lvls=[0, 0, 0, 0, 0, 0, 7934] retry=0/0/0 depths=[0] scrub=0/0/0 die=0 pfail=0/0",
    "tlc               LevelAdjust-only host=2064/3936/137 flash=18779/26146/507 gc=507/10845 acc=0/0 red=6423 lvls=[0, 0, 0, 0, 0, 0, 1511] retry=0/0/0 depths=[0] scrub=0/0/0 die=0 pfail=0/0",
    "tlc               LevelAdjust+AccessEval host=2064/3936/137 flash=12820/20187/299 gc=299/4713 acc=173/0 red=794 lvls=[0, 0, 0, 0, 0, 0, 7140] retry=0/0/0 depths=[0] scrub=0/0/0 die=0 pfail=0/0",
    "aged-tlc          baseline     host=2064/3936/137 flash=21038/20611/297 gc=297/4848 acc=0/0 red=0 lvls=[0, 0, 0, 0, 0, 0, 7934] retry=7797/6938/282 depths=[714, 6643, 577] scrub=12/363/363 die=0 pfail=3/3",
    "aged-tlc          LDPC-in-SSD  host=2064/3936/137 flash=21038/20611/297 gc=297/4848 acc=0/0 red=0 lvls=[0, 0, 0, 0, 0, 0, 7934] retry=7797/6938/282 depths=[714, 6643, 577] scrub=12/363/363 die=0 pfail=3/3",
    "aged-tlc          LevelAdjust-only host=2064/3936/137 flash=28793/28607/558 gc=558/12728 acc=0/0 red=6423 lvls=[0, 0, 0, 0, 0, 0, 1511] retry=7556/6696/280 depths=[958, 6396, 580] scrub=12/460/460 die=0 pfail=3/3",
    "aged-tlc          LevelAdjust+AccessEval host=2064/3936/137 flash=21824/21436/320 gc=320/5409 acc=173/0 red=794 lvls=[0, 0, 0, 0, 0, 0, 7140] retry=7758/6873/293 depths=[768, 6574, 592] scrub=12/455/455 die=0 pfail=3/3",
    "hostile           baseline     host=2064/3936/137 flash=15849/20702/298 gc=298/4972 acc=0/0 red=0 lvls=[339, 534, 362, 0, 1740, 0, 4959] retry=2496/2396/37 depths=[5501, 2370, 63] scrub=12/363/342 die=0 pfail=3/3",
    "hostile           LDPC-in-SSD  host=2064/3936/137 flash=15865/20702/298 gc=298/4972 acc=0/0 red=0 lvls=[339, 534, 362, 0, 1740, 0, 4959] retry=2512/2408/38 depths=[5488, 2382, 63, 0, 1] scrub=12/363/342 die=0 pfail=3/3",
    "hostile           LevelAdjust-only host=2064/3936/137 flash=21655/28136/548 gc=548/12713 acc=0/0 red=6423 lvls=[54, 112, 63, 0, 335, 0, 947] retry=469/452/6 depths=[7476, 447, 11] scrub=12/420/0 die=0 pfail=3/3",
    "hostile           LevelAdjust+AccessEval host=2064/3936/137 flash=16349/21335/318 gc=318/5365 acc=163/0 red=749 lvls=[323, 474, 331, 0, 1443, 0, 4614] retry=2327/2232/34 depths=[5668, 2205, 61] scrub=12/436/379 die=0 pfail=3/3",
];

#[test]
fn scenario_matrix_rows_are_pinned() {
    let trace = golden_trace();
    let mut actual = Vec::new();
    for spec in ScenarioSpec::registry() {
        for scheme in Scheme::ALL {
            let stats = run_cell(&spec, scheme, &trace, TimingModel::SingleQueue);
            actual.push(row_line(spec.name, scheme, &stats));
        }
    }
    // Blessing output: the full matrix, ready to paste into GOLDEN.
    for line in &actual {
        println!("{line:?},");
    }
    let mut diff = String::new();
    for i in 0..actual.len().max(GOLDEN.len()) {
        let want = GOLDEN.get(i).copied().unwrap_or("<missing row>");
        let got = actual.get(i).map(String::as_str).unwrap_or("<missing row>");
        if want != got {
            diff.push_str(&format!("- {want}\n+ {got}\n"));
        }
    }
    assert!(
        diff.is_empty(),
        "scenario matrix drifted from the golden run \
         (bless with --nocapture if deliberate):\n{diff}"
    );
}

/// The `baseline` preset is the identity: its FlexLevel cell reproduces
/// the `tests/golden_sim.rs` fixture byte-for-byte, with the whole fault
/// and environment panel at zero.
#[test]
fn baseline_rows_cross_check_the_golden_fixture() {
    let spec = ScenarioSpec::find("baseline").expect("baseline registered");
    let stats = run_cell(
        &spec,
        Scheme::FlexLevel,
        &golden_trace(),
        TimingModel::SingleQueue,
    );
    assert_eq!(
        (stats.host_reads, stats.host_writes, stats.buffer_read_hits),
        (2064, 3936, 137)
    );
    assert_eq!(
        (stats.flash_reads, stats.flash_programs, stats.erases),
        (12941, 20308, 299)
    );
    assert_eq!((stats.gc_runs, stats.gc_migrated_pages), (299, 4865));
    assert_eq!((stats.promotions, stats.reduced_reads), (142, 677));
    assert_eq!(
        (
            stats.retry_reads,
            stats.uncorrectable_reads,
            stats.die_resets
        ),
        (0, 0, 0)
    );
    assert_eq!(
        (stats.scrub_runs, stats.scrub_reads, stats.scrub_refreshes),
        (0, 0, 0)
    );
}

/// Every matrix cell is bit-identical no matter how many worker threads
/// the surrounding harness runs cells under — the environment draws are
/// keyed by the scenario seed alone, never by execution interleaving.
#[test]
fn matrix_cells_are_thread_invariant() {
    let trace = golden_trace();
    let cells: Vec<(ScenarioSpec, Scheme)> = ScenarioSpec::registry()
        .into_iter()
        .flat_map(|spec| Scheme::ALL.map(|scheme| (spec.clone(), scheme)))
        .collect();
    let reference: Vec<SimStats> = cells
        .iter()
        .map(|(spec, scheme)| run_cell(spec, *scheme, &trace, TimingModel::SingleQueue))
        .collect();
    for threads in [1u32, 2, 8] {
        let replicas = parallel_map(cells.clone(), threads, |_, (spec, scheme)| {
            run_cell(&spec, scheme, &trace, TimingModel::SingleQueue)
        });
        for (i, (got, want)) in replicas.iter().zip(&reference).enumerate() {
            assert_eq!(
                got,
                want,
                "cell {}/{} diverged under {threads} threads",
                cells[i].0.name,
                cells[i].1.label()
            );
        }
    }
}

/// Both timing backends resolve every cell to the same logical counters:
/// the environment lives in the shared logical layer, so only
/// clock-domain metrics may differ between them.
#[test]
fn matrix_cells_agree_across_timing_models() {
    let trace = golden_trace();
    let logical = |s: &SimStats| {
        (
            s.counter_values(),
            s.reads_by_sensing_level.clone(),
            s.retry_depth_histogram.clone(),
        )
    };
    for spec in ScenarioSpec::registry() {
        for scheme in Scheme::ALL {
            let single = run_cell(&spec, scheme, &trace, TimingModel::SingleQueue);
            let piped = run_cell(&spec, scheme, &trace, TimingModel::Pipelined);
            assert_eq!(
                logical(&single),
                logical(&piped),
                "cell {}/{} diverged between timing models",
                spec.name,
                scheme.label()
            );
        }
    }
}

/// Satellite: the read-disturb ↔ patrol-scrub interaction. On a hot-LPN
/// workload (tiny footprint, so pages absorb many reads between
/// rewrites), disabling the scrubber lets disturb accumulate to the cap
/// and must show a strictly higher observed UBER than the scrubbed run
/// — pinned with exact counters at the fixed seed.
#[test]
fn scrub_caps_read_disturb_uber() {
    let trace = WorkloadSpec::fin2()
        .with_requests(6_000)
        .with_footprint(400)
        .generate(&mut StdRng::seed_from_u64(0xD157));
    let spec = ScenarioSpec::find("read-disturb-hot").expect("preset registered");
    let run = |scrub_interval: u64| {
        let mut config = cell_config(&spec, Scheme::LdpcInSsd, TimingModel::SingleQueue);
        config.faults.scrub_interval = scrub_interval;
        let mut sim = SsdSimulator::new(config);
        sim.run(&trace).expect("trace fits").clone()
    };
    let scrubbed = run(500);
    let unscrubbed = run(0);
    assert!(scrubbed.scrub_runs > 0, "scrubber must run in the fixture");
    assert_eq!(unscrubbed.scrub_runs, 0, "scrubber must be off");
    let info_bits = EccConfig::paper_ldpc().info_bits;
    let (with_scrub, without) = (
        scrubbed.observed_uber(info_bits),
        unscrubbed.observed_uber(info_bits),
    );
    println!(
        "scrubbed: uber={with_scrub:.3e} unc={} retry={} refreshes={}",
        scrubbed.uncorrectable_reads, scrubbed.retry_reads, scrubbed.scrub_refreshes
    );
    println!(
        "unscrubbed: uber={without:.3e} unc={} retry={}",
        unscrubbed.uncorrectable_reads, unscrubbed.retry_reads
    );
    assert!(
        without > with_scrub,
        "unscrubbed UBER {without:.3e} must exceed scrubbed {with_scrub:.3e}"
    );
    // Exact pins at the fixed seed (bless with --nocapture).
    assert_eq!(
        (
            scrubbed.uncorrectable_reads,
            scrubbed.retry_reads,
            scrubbed.scrub_refreshes,
        ),
        (0, 19, 280),
        "scrubbed counters drifted"
    );
    assert_eq!(
        (unscrubbed.uncorrectable_reads, unscrubbed.retry_reads),
        (1, 27),
        "unscrubbed counters drifted"
    );
}
