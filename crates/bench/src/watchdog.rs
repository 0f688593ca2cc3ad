//! Per-stage deadline watchdog for the evaluation binaries.
//!
//! The table and perf binaries run multi-minute pipelines; when one stage
//! hangs (a livelocked search, a stuck campaign), CI used to time the whole
//! job out with no indication of *where*. The watchdog gives every stage a
//! wall-clock budget: set `CSNAKE_STAGE_DEADLINE_S=<seconds>` and wrap each
//! stage in [`guard`]. If a stage overruns its budget the process prints
//! the stage name to stderr and exits with code 124 (the conventional
//! timeout status), so the CI log names the culprit instead of the job.
//!
//! Without the environment variable the watchdog is fully disarmed: no
//! thread is spawned and [`guard`] is a no-op, so local runs and
//! measurements are unaffected.
//!
//! ```no_run
//! let wd = csnake_bench::watchdog::guard("profile");
//! // ... run the profile stage ...
//! drop(wd); // stage done, deadline cleared
//! ```

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Process exit code used on deadline overrun (mirrors `timeout(1)`).
pub const EXIT_DEADLINE: i32 = 124;

struct Watchdog {
    budget: Duration,
    /// Stage currently on the clock: name + absolute deadline.
    current: Mutex<Option<(String, Instant)>>,
}

static WATCHDOG: OnceLock<Option<&'static Watchdog>> = OnceLock::new();

#[allow(clippy::disallowed_methods)] // the documented watchdog deadline
fn instance() -> Option<&'static Watchdog> {
    *WATCHDOG.get_or_init(|| {
        let secs: u64 = std::env::var("CSNAKE_STAGE_DEADLINE_S")
            .ok()?
            .parse()
            .ok()?;
        if secs == 0 {
            return None;
        }
        let wd: &'static Watchdog = Box::leak(Box::new(Watchdog {
            budget: Duration::from_secs(secs),
            current: Mutex::new(None),
        }));
        std::thread::Builder::new()
            .name("csnake-stage-watchdog".into())
            .spawn(move || monitor(wd))
            .expect("spawn watchdog thread");
        Some(wd)
    })
}

fn monitor(wd: &'static Watchdog) -> ! {
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let overrun = {
            let current = wd.current.lock().unwrap();
            current
                .as_ref()
                .filter(|(_, deadline)| Instant::now() >= *deadline)
                .map(|(stage, _)| stage.clone())
        };
        if let Some(stage) = overrun {
            eprintln!(
                "watchdog: stage {stage:?} exceeded the {}s deadline (CSNAKE_STAGE_DEADLINE_S)",
                wd.budget.as_secs()
            );
            std::process::exit(EXIT_DEADLINE);
        }
    }
}

/// Puts `stage` on the clock until the returned guard is dropped.
///
/// Stages are exclusive: entering a new stage replaces the previous
/// deadline, so sequential `guard` calls need no explicit `drop` between
/// them (the drop of the old guard after the new call is a no-op for the
/// clock, which already tracks the new stage).
pub fn guard(stage: &str) -> StageGuard {
    let wd = instance();
    if let Some(wd) = wd {
        *wd.current.lock().unwrap() = Some((stage.to_string(), Instant::now() + wd.budget));
    }
    StageGuard {
        wd,
        stage: stage.to_string(),
    }
}

/// Clears the stage deadline on drop (only if this guard's stage is still
/// the one on the clock).
pub struct StageGuard {
    wd: Option<&'static Watchdog>,
    stage: String,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        if let Some(wd) = self.wd {
            let mut current = wd.current.lock().unwrap();
            if current
                .as_ref()
                .is_some_and(|(name, _)| *name == self.stage)
            {
                *current = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // The armed path is exercised by the chaos smoke binary (which CI runs
    // with the deadline set); in-process tests can only cover the disarmed
    // default because arming is process-global.
    #[test]
    fn disarmed_guard_is_a_no_op() {
        let g = super::guard("anything");
        drop(g);
        let g1 = super::guard("a");
        let g2 = super::guard("b");
        drop(g1);
        drop(g2);
    }
}
