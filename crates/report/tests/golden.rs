//! Golden-file test: the serialization of a known two-benchmark report
//! is pinned byte-for-byte.
//!
//! The property tests prove emit/parse is self-consistent; this test
//! pins the *external* format. If a change to the renderer or schema
//! alters the bytes, this fails — which is the point: every committed
//! `BENCH_*.json` baseline and every CI `cmp` depends on the format
//! being stable. To accept a deliberate format change, regenerate with
//! `BLESS=1 cargo test -p alberta-report --test golden` and re-commit
//! the baselines.

use alberta_core::{MemoryProfile, MpkiPoint};
use alberta_report::{
    BenchmarkReport, CategoryRecord, HotPathRecord, MeasureRecord, RunRecord, SamplingRecord,
    StatusKind, SuiteReport, SummaryRecord, SCHEMA_VERSION,
};
use alberta_workloads::Scale;
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("golden/two_bench.json");

/// A small report exercising every schema feature: ok / degraded /
/// failed runs, telemetry present and absent, a phase-sampling section,
/// a lost summary, exact `u64` checksums above 2^53, and floats that
/// render without a decimal point.
fn sample_report() -> SuiteReport {
    let coverage: BTreeMap<String, f64> = [
        ("mcf::price_out_impl".to_owned(), 61.25),
        ("mcf::refresh_potential".to_owned(), 38.75),
    ]
    .into();
    SuiteReport {
        schema_version: SCHEMA_VERSION,
        scale: Scale::Test,
        benchmarks: vec![
            BenchmarkReport {
                spec_id: "505.mcf_r".to_owned(),
                short_name: "mcf".to_owned(),
                runs: vec![
                    RunRecord {
                        workload: "train".to_owned(),
                        status: StatusKind::Ok,
                        error: None,
                        retried_at: None,
                        retries: 0,
                        budget_consumed: 2687,
                        wall_nanos: None,
                        start_nanos: None,
                        worker: None,
                        dispatches: None,
                        measures: Some(MeasureRecord {
                            ratios: [0.125, 0.25, 0.0625, 0.5625],
                            cycles: 3341.5,
                            ipc: 2.0,
                            retired_ops: 2687,
                            work: 471,
                            checksum: 18131782674069289258,
                            coverage: coverage.clone(),
                            memory: MemoryProfile {
                                l1_mpki: 6.25,
                                l2_mpki: 1.875,
                                l3_mpki: 0.25,
                                row_hit_rate: 0.75,
                                dram_bytes: 4096.0,
                                footprint_lines: 321,
                                footprint_pages: 17,
                                mpki_curve: vec![
                                    MpkiPoint {
                                        size_bytes: 16 * 1024,
                                        mpki: 7.5,
                                    },
                                    MpkiPoint {
                                        size_bytes: 32 * 1024,
                                        mpki: 6.25,
                                    },
                                ],
                            },
                        }),
                        sampling: None,
                    },
                    RunRecord {
                        workload: "refrate".to_owned(),
                        status: StatusKind::Degraded,
                        error: "mcf: budget exceeded: 99 retired ops over a budget of 64"
                            .to_owned()
                            .into(),
                        retried_at: Some(Scale::Test),
                        retries: 1,
                        budget_consumed: 99,
                        wall_nanos: Some(1_250_000),
                        start_nanos: Some(4_000_000),
                        worker: Some(3),
                        dispatches: Some(2),
                        measures: Some(MeasureRecord {
                            ratios: [0.1, 0.3, 0.1, 0.5],
                            cycles: 72872.0,
                            ipc: 1.75,
                            retired_ops: 72872,
                            work: 9000,
                            checksum: 42,
                            coverage,
                            memory: MemoryProfile {
                                l1_mpki: 2.5,
                                l2_mpki: 0.5,
                                l3_mpki: 0.0625,
                                row_hit_rate: 0.5,
                                dram_bytes: 1024.0,
                                footprint_lines: 4096,
                                footprint_pages: 65,
                                mpki_curve: vec![],
                            },
                        }),
                        sampling: Some(SamplingRecord {
                            interval_work: 4096,
                            intervals: 18,
                            clusters: 4,
                            detailed_ops: 16384,
                            total_ops: 72872,
                            estimate_error: Some(0.0125),
                        }),
                    },
                ],
                summary: Some(SummaryRecord {
                    workloads: 2,
                    front_end: CategoryRecord {
                        geo_mean: 0.111803398874989,
                        geo_std: 1.1722418583266577,
                        variation: 0.0482,
                    },
                    back_end: CategoryRecord {
                        geo_mean: 0.2738612787525831,
                        geo_std: 1.1382311019201213,
                        variation: 0.0375,
                    },
                    bad_speculation: CategoryRecord {
                        geo_mean: 0.0790569415042095,
                        geo_std: 1.3944333430494415,
                        variation: 0.125,
                    },
                    retiring: CategoryRecord {
                        geo_mean: 0.5303300858899106,
                        geo_std: 1.0425720702853738,
                        variation: 0.015625,
                    },
                    mu_g_v: 4.9,
                    mu_g_m: 1.25,
                    refrate_cycles: Some(72872.0),
                }),
                hot_paths: Some(vec![
                    HotPathRecord {
                        path: "mcf::solve;mcf::price_out_impl".to_owned(),
                        exclusive: 18131782674069289258,
                        calls: 42,
                    },
                    HotPathRecord {
                        path: "mcf::solve;mcf::refresh_potential".to_owned(),
                        exclusive: 977,
                        calls: 2,
                    },
                ]),
            },
            BenchmarkReport {
                spec_id: "557.xz_r".to_owned(),
                short_name: "xz".to_owned(),
                runs: vec![RunRecord {
                    workload: "train".to_owned(),
                    status: StatusKind::Failed,
                    error: "xz: panicked: corpus generator diverged".to_owned().into(),
                    retried_at: None,
                    retries: 0,
                    budget_consumed: 0,
                    wall_nanos: None,
                    start_nanos: None,
                    worker: None,
                    dispatches: None,
                    measures: None,
                    sampling: None,
                }],
                summary: None,
                hot_paths: Some(vec![]),
            },
        ],
    }
}

#[test]
fn golden_two_benchmark_report_is_stable() {
    let report = sample_report();
    let text = report.to_json();
    if std::env::var_os("BLESS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/two_bench.json");
        std::fs::write(path, &text).expect("write golden");
    }
    assert_eq!(
        text, GOLDEN,
        "serialization changed; if deliberate, regenerate with BLESS=1 and re-commit baselines"
    );
    let parsed = SuiteReport::parse(GOLDEN).expect("golden file parses");
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_json(), GOLDEN);
}

#[test]
fn golden_report_views_expose_expected_shape() {
    let report = SuiteReport::parse(GOLDEN).expect("golden file parses");
    let mcf = report.benchmark("mcf").expect("mcf present");
    assert_eq!(mcf.attempted(), 2);
    assert_eq!(mcf.survived(), 2, "degraded still counts as surviving");
    let xz = report.benchmark("557.xz_r").expect("lookup by spec id");
    assert_eq!(xz.survived(), 0);
    assert!(xz.summary.is_none());

    let cycles = alberta_report::view::refrate_cycles(&report);
    assert_eq!(cycles["mcf"], Some(72872.0));
    assert_eq!(cycles["xz"], None);

    let table = alberta_report::view::table2(&report);
    assert_eq!(table.rows.len(), 1, "xz lost every run and has no row");
    assert_eq!(table.rows[0].benchmark, "mcf");

    let fig2 = alberta_report::view::fig2_series(mcf).expect("survivors");
    assert_eq!(
        fig2.methods,
        vec![
            "mcf::price_out_impl".to_owned(),
            "mcf::refresh_potential".to_owned()
        ],
        "hottest method first"
    );
}
