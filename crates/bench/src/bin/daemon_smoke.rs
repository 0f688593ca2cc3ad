//! Distributed-campaign smoke for CI: coordinator + 2 local workers.
//!
//! Runs the two representative campaigns the chaos smoke uses — the
//! `kafka-isr` corpus scenario and one generated `gen:<seed>` system —
//! in three configurations each:
//!
//! 1. **single**: the plain in-process `Session::run_to_report` baseline;
//! 2. **distributed**: a coordinator sharding the same campaign across
//!    two workers over the wire protocol — the report AND the run
//!    accounting must be Debug-identical to the baseline;
//! 3. **kill-worker**: one of the two workers dies holding a mid-phase
//!    shard — the lease/reassign machinery must land on the identical
//!    report with exactly one worker lost.
//!
//! Gated on `CSNAKE_DAEMON_SMOKE=1` so plain `cargo run` stays inert; CI
//! sets the variable (plus `CSNAKE_STAGE_DEADLINE_S` so a hung stage
//! names itself instead of timing out the job).
//!
//! Run with:
//! `CSNAKE_DAEMON_SMOKE=1 cargo run --release -p csnake-bench --bin daemon_smoke`

use std::process::ExitCode;
use std::sync::Arc;

use csnake_bench::watchdog;
use csnake_core::{DetectConfig, ProgressCollector, Session, ThreePhase};
use csnake_daemon::{run_distributed, DaemonConfig, RunOptions, WorkerOptions};

const GEN_SEED: u64 = 5;
const WORKERS: usize = 2;

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

fn single_process(name: &str) -> Result<(String, usize), String> {
    let target = csnake_daemon::targets::resolve(name).map_err(|e| format!("resolve: {e}"))?;
    let mut session = Session::builder(target.as_ref())
        .config(fast_config())
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let report = session
        .run_to_report(&ThreePhase::default())
        .map_err(|e| format!("run_to_report: {e}"))?;
    Ok((format!("{report:?}"), session.runs_executed()))
}

fn distributed(
    name: &str,
    worker_opts: Vec<WorkerOptions>,
    progress: &Arc<ProgressCollector>,
) -> Result<(String, usize), String> {
    let opts = RunOptions {
        daemon: DaemonConfig::default(),
        observer: Some(progress.clone()),
        worker_opts,
        ..RunOptions::default()
    };
    let run = run_distributed(name, fast_config(), WORKERS, opts)
        .map_err(|e| format!("run_distributed: {e}"))?;
    Ok((format!("{:?}", run.report), run.outcome.runs_executed))
}

fn smoke_target(name: &str) -> Result<(), String> {
    let wd = watchdog::guard(&format!("{name}:single"));
    let (baseline, baseline_runs) = single_process(name)?;
    drop(wd);

    let wd = watchdog::guard(&format!("{name}:distributed-{WORKERS}"));
    let progress = Arc::new(ProgressCollector::new());
    let (report, runs) = distributed(name, Vec::new(), &progress)?;
    if report != baseline {
        return Err(format!(
            "{name}: distributed report diverged from single-process"
        ));
    }
    if runs != baseline_runs {
        return Err(format!(
            "{name}: distributed run accounting diverged ({baseline_runs} → {runs})"
        ));
    }
    let snap = progress.snapshot();
    eprintln!(
        "{name}: {WORKERS}-worker campaign identical to single-process ({} shards, {} runs)",
        snap.shards_assigned, runs
    );
    drop(wd);

    let wd = watchdog::guard(&format!("{name}:kill-worker"));
    let progress = Arc::new(ProgressCollector::new());
    // Worker 0 completes one shard, then dies holding its next one.
    let (report, runs) = distributed(
        name,
        vec![WorkerOptions {
            fail_after: Some(1),
            ..WorkerOptions::default()
        }],
        &progress,
    )?;
    if report != baseline {
        return Err(format!("{name}: worker-kill recovery changed the report"));
    }
    if runs != baseline_runs {
        return Err(format!(
            "{name}: worker-kill recovery changed run accounting ({baseline_runs} → {runs})"
        ));
    }
    let snap = progress.snapshot();
    if snap.workers_lost != 1 {
        return Err(format!(
            "{name}: exactly the killed worker should be lost (saw {})",
            snap.workers_lost
        ));
    }
    eprintln!(
        "{name}: worker kill mid-phase recovered identically ({} reassigned, {} runs)",
        snap.shards_reassigned, runs
    );
    drop(wd);
    Ok(())
}

fn main() -> ExitCode {
    #[allow(clippy::disallowed_methods)] // smoke switch read once at start-up
    let enabled = std::env::var_os("CSNAKE_DAEMON_SMOKE").is_some();
    if !enabled {
        eprintln!("daemon_smoke: set CSNAKE_DAEMON_SMOKE=1 to run the distributed smoke campaigns");
        return ExitCode::SUCCESS;
    }
    for name in ["kafka-isr", &format!("gen:{GEN_SEED}")] {
        if let Err(e) = smoke_target(name) {
            eprintln!("daemon_smoke: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("daemon_smoke: all distributed campaigns bit-identical to single-process");
    ExitCode::SUCCESS
}
