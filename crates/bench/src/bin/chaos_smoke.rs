//! Self-chaos smoke campaign for CI.
//!
//! Runs two representative campaigns — the `kafka-isr` corpus scenario and
//! one generated `gen:<seed>` system — three times each:
//!
//! 1. **clean**: no chaos, the baseline report;
//! 2. **transient chaos**: injected experiment panics, stalls, and
//!    checkpoint-IO failures that clear within the supervisor's retry
//!    budget — the report must be Debug-identical to the baseline and the
//!    run accounting unchanged (failed attempts cost zero recorded runs);
//! 3. **permanent chaos**: cells that fail every retry — the campaign must
//!    still complete, with the missing (fault, test) cells enumerated in a
//!    degraded report;
//! 4. **distributed wire chaos**: the same campaign sharded across two
//!    workers while every assignment frame risks a transient drop or
//!    stall at the coordinator's send path — the re-send machinery must
//!    keep the report and run accounting Debug-identical to the clean
//!    baseline without losing a worker.
//!
//! Gated on `CSNAKE_CHAOS_SMOKE=1` so plain `cargo run` stays inert; CI
//! sets the variable (plus `CSNAKE_STAGE_DEADLINE_S` so a hung stage names
//! itself instead of timing out the job).
//!
//! Run with:
//! `CSNAKE_CHAOS_SMOKE=1 cargo run --release -p csnake-bench --bin chaos_smoke`

use std::process::ExitCode;
use std::sync::Arc;

use csnake_bench::watchdog;
use csnake_core::{
    ChaosConfig, DetectConfig, ProgressCollector, Session, TargetSystem, ThreePhase,
};
use csnake_scenario::{corpus_dir, load_file};

const GEN_SEED: u64 = 5;

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

fn transient_chaos() -> ChaosConfig {
    ChaosConfig {
        seed: 0xC7A05,
        experiment_panic: 0.35,
        experiment_stall: 0.15,
        snapshot_io: 0.5,
        stall_ms: 1,
        transient_attempts: 1,
        ..ChaosConfig::default()
    }
}

fn permanent_chaos() -> ChaosConfig {
    ChaosConfig {
        seed: 0xDE6D,
        experiment_panic: 0.25,
        permanent: true,
        ..ChaosConfig::default()
    }
}

fn wire_chaos() -> ChaosConfig {
    ChaosConfig {
        seed: 0x317E,
        wire_drop: 0.5,
        wire_stall: 0.25,
        stall_ms: 1,
        transient_attempts: 1,
        ..ChaosConfig::default()
    }
}

/// One campaign under one chaos regime; returns (report Debug, runs).
fn run_campaign(
    target: &dyn TargetSystem,
    chaos: Option<ChaosConfig>,
    checkpoint: Option<&std::path::Path>,
    progress: &Arc<ProgressCollector>,
) -> Result<(String, usize), String> {
    let mut cfg = fast_config();
    if let Some(chaos) = chaos {
        cfg.driver.chaos = chaos;
    }
    let mut builder = Session::builder(target)
        .config(cfg)
        .observer(progress.clone());
    if let Some(path) = checkpoint {
        builder = builder.auto_checkpoint(path, 1);
    }
    let mut session = builder.build().map_err(|e| format!("build: {e}"))?;
    let report = session
        .run_to_report(&ThreePhase::default())
        .map_err(|e| format!("run_to_report: {e}"))?;
    let debug = format!("{report:?}");
    Ok((debug, session.runs_executed()))
}

fn smoke_target(name: &str, target: &dyn TargetSystem) -> Result<(), String> {
    let ckpt_dir = std::env::temp_dir().join(format!("csnake-chaos-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("temp dir: {e}"))?;
    let ckpt = ckpt_dir.join(format!("{name}.csnake"));

    let wd = watchdog::guard(&format!("{name}:clean"));
    let clean_progress = Arc::new(ProgressCollector::new());
    let (clean_report, clean_runs) = run_campaign(target, None, None, &clean_progress)?;
    drop(wd);

    let wd = watchdog::guard(&format!("{name}:transient"));
    let progress = Arc::new(ProgressCollector::new());
    let (report, runs) = run_campaign(target, Some(transient_chaos()), Some(&ckpt), &progress)?;
    let snap = progress.snapshot();
    if report != clean_report {
        return Err(format!("{name}: transient chaos changed the report"));
    }
    if runs != clean_runs {
        return Err(format!(
            "{name}: transient chaos changed run accounting ({clean_runs} → {runs})"
        ));
    }
    if snap.batch_failures != 0 {
        return Err(format!(
            "{name}: transient chaos must not fail cells permanently ({} failures)",
            snap.batch_failures
        ));
    }
    eprintln!(
        "{name}: transient chaos recovered identically ({} retries, {} checkpoints, {} runs)",
        snap.batch_retries, snap.checkpoints_written, runs
    );
    drop(wd);

    let wd = watchdog::guard(&format!("{name}:permanent"));
    let progress = Arc::new(ProgressCollector::new());
    let (report, _) = run_campaign(target, Some(permanent_chaos()), None, &progress)?;
    let snap = progress.snapshot();
    if snap.batch_failures > 0 {
        if !snap.degraded {
            return Err(format!(
                "{name}: permanent failures must surface the degraded event"
            ));
        }
        if !report.contains("missing_cells") {
            return Err(format!(
                "{name}: degraded report must enumerate missing cells"
            ));
        }
        eprintln!(
            "{name}: permanent chaos degraded gracefully ({} cells lost, campaign completed)",
            snap.batch_failures
        );
    } else {
        // The seeded rates happened to miss every cell for this target;
        // completion without degradation is the recovered case.
        eprintln!("{name}: permanent chaos injected nothing fatal; campaign completed clean");
    }
    drop(wd);

    let wd = watchdog::guard(&format!("{name}:distributed-wire"));
    let progress = Arc::new(ProgressCollector::new());
    let mut cfg = fast_config();
    cfg.driver.chaos = wire_chaos();
    let opts = csnake_daemon::RunOptions {
        observer: Some(progress.clone()),
        ..csnake_daemon::RunOptions::default()
    };
    let run = csnake_daemon::run_distributed(name, cfg, 2, opts)
        .map_err(|e| format!("{name}: distributed wire chaos: {e}"))?;
    let snap = progress.snapshot();
    if format!("{:?}", run.report) != clean_report {
        return Err(format!(
            "{name}: transient wire chaos changed the distributed report"
        ));
    }
    if run.outcome.runs_executed != clean_runs {
        return Err(format!(
            "{name}: transient wire chaos changed run accounting ({clean_runs} → {})",
            run.outcome.runs_executed
        ));
    }
    if snap.workers_lost != 0 {
        return Err(format!(
            "{name}: transient wire chaos must not cost a worker ({} lost)",
            snap.workers_lost
        ));
    }
    eprintln!(
        "{name}: transient wire chaos invisible across 2 workers ({} shard re-sends, {} runs)",
        snap.shards_reassigned, run.outcome.runs_executed
    );
    drop(wd);

    std::fs::remove_dir_all(&ckpt_dir).ok();
    Ok(())
}

fn main() -> ExitCode {
    #[allow(clippy::disallowed_methods)] // smoke switch read once at start-up
    let enabled = std::env::var_os("CSNAKE_CHAOS_SMOKE").is_some();
    if !enabled {
        eprintln!("chaos_smoke: set CSNAKE_CHAOS_SMOKE=1 to run the chaos smoke campaigns");
        return ExitCode::SUCCESS;
    }

    let kafka = match load_file(corpus_dir().join("kafka-isr.csnake-scn")) {
        Ok(sys) => sys,
        Err(e) => {
            eprintln!("chaos_smoke: kafka-isr scenario failed to load: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = smoke_target("kafka-isr", &kafka) {
        eprintln!("chaos_smoke: {e}");
        return ExitCode::FAILURE;
    }

    let generated = match csnake_gen::by_name(&format!("gen:{GEN_SEED}")) {
        Ok(sys) => sys,
        Err(e) => {
            eprintln!("chaos_smoke: gen:{GEN_SEED} failed to build: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = smoke_target(&format!("gen:{GEN_SEED}"), generated.as_ref()) {
        eprintln!("chaos_smoke: {e}");
        return ExitCode::FAILURE;
    }

    eprintln!("chaos_smoke: all campaigns degraded-or-recovered as specified");
    ExitCode::SUCCESS
}
