//! Golden detection reports for the five paper targets.
//!
//! Each paper target runs one full campaign at the evaluation defaults
//! (`EvalConfig::default()`, the settings `table4` uses). For both Table 4
//! variants, unlimited delay injections and at most one per cycle, the
//! test checks the `table4` row and an FNV-1a digest of the
//! `DetectionReport`'s `Debug` string against `tests/golden/table4.txt`.
//! A change that moves any report field, not only the three counted
//! columns, fails here.
//!
//! The five campaigns take about 4 s together in release mode on a 2-vCPU
//! Xeon, minutes in debug, so the tests are `#[ignore]`d and CI runs
//! them in release:
//!
//! ```sh
//! cargo test --release --test golden_reports -- --ignored
//! ```
//!
//! On a mismatch the failure message prints the lines the current code
//! produces, in the file's format.

use csnake::core::{beam_search, build_report, cluster_cycles, fnv1a_bytes, BeamConfig};
use csnake::core::{DetectionReport, TargetSystem};
use csnake_bench::{run_csnake, EvalConfig};

const GOLDEN: &str = include_str!("golden/table4.txt");

/// One golden line: `<system> <variant> cycles=<n> clusters=<n> tp=<n>
/// report=<fnv1a of the report's Debug string>`.
fn line(system: &str, variant: &str, report: &DetectionReport) -> String {
    format!(
        "{system} {variant} cycles={} clusters={} tp={} report={:016x}",
        report.cycles.len(),
        report.clusters.len(),
        report.tp_clusters(),
        fnv1a_bytes(format!("{report:?}").as_bytes()),
    )
}

/// Runs the campaign and derives both Table 4 variants the way the
/// `table4` binary does: the session's own report, then a second beam
/// search over the same causal database limited to one delay per cycle.
fn actual_lines(target: &dyn TargetSystem) -> Vec<String> {
    let detection = run_csnake(target, &EvalConfig::default());
    let sim_of = |f| detection.alloc.sim_score_of(f);
    let limited_cfg = BeamConfig {
        max_delay_injections: Some(1),
        ..BeamConfig::default()
    };
    let cycles = beam_search(&detection.alloc.db, &sim_of, &limited_cfg);
    let clusters = cluster_cycles(&cycles, &detection.alloc.db, &detection.alloc.cluster_of);
    let limited = build_report(target, &detection.alloc, cycles, clusters);
    vec![
        line(target.name(), "unlimited", &detection.report),
        line(target.name(), "max1delay", &limited),
    ]
}

fn check(target: &dyn TargetSystem) {
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| l.split(' ').next() == Some(target.name()))
        .collect();
    let actual = actual_lines(target);
    assert_eq!(
        expected,
        actual,
        "{} drifted from tests/golden/table4.txt; current lines:\n{}",
        target.name(),
        actual.join("\n")
    );
}

#[test]
#[ignore = "full campaign: about 2 s in release on a 2-vCPU Xeon, minutes in debug; CI runs it in release"]
fn mini_hdfs2_matches_golden() {
    check(&csnake::targets::MiniHdfs2::new());
}

#[test]
#[ignore = "full campaign: about 2 s in release on a 2-vCPU Xeon, minutes in debug; CI runs it in release"]
fn mini_hdfs3_matches_golden() {
    check(&csnake::targets::MiniHdfs3::new());
}

#[test]
#[ignore = "full campaign: under 0.2 s in release on a 2-vCPU Xeon, much longer in debug; CI runs it in release"]
fn mini_hbase_matches_golden() {
    check(&csnake::targets::MiniHBase::new());
}

#[test]
#[ignore = "full campaign: under 0.2 s in release on a 2-vCPU Xeon, much longer in debug; CI runs it in release"]
fn mini_flink_matches_golden() {
    check(&csnake::targets::MiniFlink::new());
}

#[test]
#[ignore = "full campaign: under 0.2 s in release on a 2-vCPU Xeon, much longer in debug; CI runs it in release"]
fn mini_ozone_matches_golden() {
    check(&csnake::targets::MiniOzone::new());
}
