//! Flight-recorder smoke for CI: telemetry must observe, never perturb.
//!
//! For each representative campaign (the `kafka-isr` corpus scenario and
//! one generated `gen:<seed>` system) this harness proves:
//!
//! 1. **Non-perturbation, single-process**: a session with a
//!    [`FlightRecorder`] attached lands on a report Debug-identical to a
//!    recorder-off baseline.
//! 2. **Non-perturbation, distributed**: a 2-worker fleet with the
//!    recorder fanned out next to the [`ProgressCollector`] produces the
//!    same identical report, with worker events actually forwarded.
//! 3. **Journal integrity**: every JSONL line schema-validates with the
//!    first-party parser, the binary journal round-trips to the in-memory
//!    record count, every stage/phase span closes, and the exported
//!    Chrome trace is loadable JSON with a non-empty `traceEvents` array.
//! 4. **Digest sanity**: the [`MetricsDigest`] agrees with the report on
//!    experiment and edge counts.
//!
//! Gated on `CSNAKE_TELEMETRY_SMOKE=1` so plain `cargo run` stays inert;
//! CI sets the variable (plus `CSNAKE_STAGE_DEADLINE_S`).
//!
//! Run with:
//! `CSNAKE_TELEMETRY_SMOKE=1 cargo run --release -p csnake-bench --bin telemetry_smoke`

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use csnake_bench::watchdog;
use csnake_core::{
    CampaignObserver, DetectConfig, FanoutObserver, ProgressCollector, Session, ThreePhase,
};
use csnake_daemon::{run_distributed, RunOptions};
use csnake_telemetry::{
    chrome_trace_json, json, read_journal, unbalanced_spans, FlightRecorder, MetricsDigest,
};

const GEN_SEED: u64 = 5;
const WORKERS: usize = 2;

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

/// Scratch path unique to this process and label.
fn scratch(label: &str, suffix: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "csnake-telemetry-smoke-{}-{}{}",
        std::process::id(),
        label.replace(':', "-"),
        suffix
    ))
}

fn recorder_for(label: &str) -> Result<(Arc<FlightRecorder>, PathBuf, PathBuf), String> {
    let jsonl = scratch(label, ".jsonl");
    let binary = scratch(label, ".csnj");
    let rec = FlightRecorder::builder()
        .jsonl(jsonl.clone())
        .binary(binary.clone())
        .build()
        .map_err(|e| format!("{label}: open journal: {e}"))?;
    Ok((Arc::new(rec), jsonl, binary))
}

/// The journal-integrity block: schema-valid JSONL, lossless binary
/// round-trip, complete spans, loadable Chrome trace.
fn validate_journal(
    label: &str,
    rec: &FlightRecorder,
    jsonl: &PathBuf,
    binary: &PathBuf,
) -> Result<usize, String> {
    rec.finish().map_err(|e| format!("{label}: finish: {e}"))?;
    let records = rec.records();
    if records.is_empty() {
        return Err(format!("{label}: recorder captured no events"));
    }
    let bad = unbalanced_spans(&records);
    if !bad.is_empty() {
        return Err(format!("{label}: unbalanced spans: {bad:?}"));
    }

    let text =
        std::fs::read_to_string(jsonl).map_err(|e| format!("{label}: read {jsonl:?}: {e}"))?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != records.len() {
        return Err(format!(
            "{label}: JSONL has {} lines for {} records",
            lines.len(),
            records.len()
        ));
    }
    for (i, line) in lines.iter().enumerate() {
        json::validate_record_line(line)
            .map_err(|e| format!("{label}: JSONL line {i} invalid: {e}"))?;
    }

    let reread = read_journal(binary).map_err(|e| format!("{label}: read {binary:?}: {e}"))?;
    if reread.len() != records.len() {
        return Err(format!(
            "{label}: binary journal has {} records, expected {}",
            reread.len(),
            records.len()
        ));
    }

    let trace = chrome_trace_json(&records);
    let value =
        json::parse(&trace).map_err(|e| format!("{label}: chrome trace unparsable: {e}"))?;
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("{label}: chrome trace missing traceEvents array"))?;
    if events.is_empty() {
        return Err(format!("{label}: chrome trace has no events"));
    }

    std::fs::remove_file(jsonl).ok();
    std::fs::remove_file(binary).ok();
    Ok(records.len())
}

fn single_process(
    name: &str,
    observer: Option<Arc<dyn CampaignObserver>>,
) -> Result<(String, usize, usize), String> {
    let target = csnake_daemon::targets::resolve(name).map_err(|e| format!("resolve: {e}"))?;
    let mut builder = Session::builder(target.as_ref()).config(fast_config());
    if let Some(obs) = observer {
        builder = builder.observer(obs);
    }
    let mut session = builder.build().map_err(|e| format!("build: {e}"))?;
    let report = session
        .run_to_report(&ThreePhase::default())
        .map_err(|e| format!("run_to_report: {e}"))?;
    let (experiments, edges) = (report.experiments_run, report.edge_count);
    Ok((format!("{report:?}"), experiments, edges))
}

fn smoke_target(name: &str) -> Result<(), String> {
    // 1. Recorder-off baseline.
    let wd = watchdog::guard(&format!("{name}:baseline"));
    let (baseline, experiments, edges) = single_process(name, None)?;
    drop(wd);

    // 2. Single-process with the recorder attached.
    let wd = watchdog::guard(&format!("{name}:recorded"));
    let (rec, jsonl, binary) = recorder_for(&format!("{name}-single"))?;
    let (recorded, ..) = single_process(name, Some(rec.clone() as Arc<dyn CampaignObserver>))?;
    if recorded != baseline {
        return Err(format!(
            "{name}: recorder perturbed the single-process report"
        ));
    }
    let n = validate_journal(&format!("{name}:single"), &rec, &jsonl, &binary)?;

    // 4. Digest agrees with the report's own accounting.
    let digest = MetricsDigest::from_records(&rec.records());
    if digest.experiments != experiments {
        return Err(format!(
            "{name}: digest counted {} experiments, report says {experiments}",
            digest.experiments
        ));
    }
    if digest.edges != edges {
        return Err(format!(
            "{name}: digest counted {} edges, report says {edges}",
            digest.edges
        ));
    }
    eprintln!("{name}: single-process report identical with recorder on ({n} records)");
    drop(wd);

    // 3. Two-worker fleet: recorder fanned out next to the collector.
    let wd = watchdog::guard(&format!("{name}:distributed-{WORKERS}"));
    let (rec, jsonl, binary) = recorder_for(&format!("{name}-fleet"))?;
    let progress = Arc::new(ProgressCollector::new());
    let fanout = Arc::new(FanoutObserver::new(vec![
        progress.clone() as Arc<dyn CampaignObserver>,
        rec.clone() as Arc<dyn CampaignObserver>,
    ]));
    let opts = RunOptions {
        observer: Some(fanout),
        ..RunOptions::default()
    };
    let run = run_distributed(name, fast_config(), WORKERS, opts)
        .map_err(|e| format!("run_distributed: {e}"))?;
    if format!("{:?}", run.report) != baseline {
        return Err(format!(
            "{name}: recorder perturbed the {WORKERS}-worker report"
        ));
    }
    let snap = progress.snapshot();
    if snap.events_forwarded == 0 {
        return Err(format!("{name}: fleet campaign forwarded no worker events"));
    }
    let n = validate_journal(&format!("{name}:fleet"), &rec, &jsonl, &binary)?;
    eprintln!(
        "{name}: {WORKERS}-worker report identical with recorder on ({n} records, {} events forwarded)",
        snap.events_forwarded
    );
    drop(wd);
    Ok(())
}

fn main() -> ExitCode {
    #[allow(clippy::disallowed_methods)] // smoke switch read once at start-up
    let enabled = std::env::var_os("CSNAKE_TELEMETRY_SMOKE").is_some();
    if !enabled {
        eprintln!("telemetry_smoke: set CSNAKE_TELEMETRY_SMOKE=1 to run the flight-recorder smoke");
        return ExitCode::SUCCESS;
    }
    for name in ["kafka-isr", &format!("gen:{GEN_SEED}")] {
        if let Err(e) = smoke_target(name) {
            eprintln!("telemetry_smoke: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("telemetry_smoke: recorder-on campaigns bit-identical, journals schema-valid");
    ExitCode::SUCCESS
}
