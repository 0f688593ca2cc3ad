//! Full-campaign tests on the two HDFS targets.
//!
//! These run the complete pipeline with the evaluation budget: about 3 s
//! each in release mode on a 2-vCPU Xeon, minutes in debug, so they are
//! `#[ignore]`d by default and CI runs them in release:
//!
//! ```sh
//! cargo test --release --test hdfs_full_campaign -- --ignored
//! ```

use csnake::core::{detect, DetectConfig};
use csnake::targets::{MiniHdfs2, MiniHdfs3};

fn cfg() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800, 3200];
    cfg.alloc.budget_per_fault = 12;
    cfg
}

#[test]
#[ignore = "full campaign: about 3 s in release on a 2-vCPU Xeon, minutes in debug; CI runs it in release"]
fn hdfs2_detects_all_six_seeded_bugs() {
    let target = MiniHdfs2::new();
    let d = detect(&target, &cfg());
    let found: Vec<&str> = d.report.matches.iter().map(|m| m.bug.id).collect();
    for bug in [
        "hdfs2-lease-recovery",
        "hdfs2-editlog-failover",
        "hdfs2-block-recovery",
        "hdfs2-write-pipeline",
        "hdfs2-block-cache",
        "hdfs2-ibr-throttle",
    ] {
        assert!(
            found.contains(&bug),
            "missing {bug}; undetected: {:?}",
            d.report.undetected
        );
    }
    // Every matched cycle uses exactly one delay injection (Table 3 shape).
    for m in &d.report.matches {
        assert_eq!(m.composition.delays, 1, "{}", m.bug.id);
    }
}

#[test]
#[ignore = "full campaign: about 3 s in release on a 2-vCPU Xeon, minutes in debug; CI runs it in release"]
fn hdfs3_detects_v3_bugs_and_shared_ibr_throttle() {
    let target = MiniHdfs3::new();
    let d = detect(&target, &cfg());
    let found: Vec<&str> = d.report.matches.iter().map(|m| m.bug.id).collect();
    for bug in [
        "hdfs3-block-deletion",
        "hdfs3-reconstruction-ibr",
        "hdfs2-ibr-throttle",
    ] {
        assert!(
            found.contains(&bug),
            "missing {bug}; undetected: {:?}",
            d.report.undetected
        );
    }
    // The reconstruction bug is the paper's only 2-delay cycle.
    let recon = d
        .report
        .matches
        .iter()
        .find(|m| m.bug.id == "hdfs3-reconstruction-ibr")
        .unwrap();
    assert_eq!(recon.composition.delays, 2);
    assert_eq!(recon.composition.negations, 1);
}
