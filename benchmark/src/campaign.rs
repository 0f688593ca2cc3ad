//! One timed unit of work per workload: a campaign driven stage by stage
//! through the public API, or one re-stitch pass over a stored session.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use csnake_core::{
    build_report, cluster_cycles, fnv1a_bytes, AllocationResult, BeamConfig, CampaignObserver,
    DetectConfig, DetectionReport, Driver, Session, StitchIndex, TargetSystem, ThreePhase,
};
use csnake_daemon::{run_worker, DaemonConfig, DistributedEngine, WorkerOptions};

use crate::spans::{Counters, Tracer};
use crate::wrap::{timed_channel_pair, CountingObserver, TimedEngine, TimedTarget};

/// Per-unit counts summed over a pass, keyed by per-layer metric name.
pub type Tally = BTreeMap<&'static str, f64>;

/// Adds `v` to the tally entry `k`.
pub fn tally(t: &mut Tally, k: &'static str, v: f64) {
    *t.entry(k).or_insert(0.0) += v;
}

/// Stable hash of a report's Debug form.
pub fn report_hash(report: &DetectionReport) -> u64 {
    fnv1a_bytes(format!("{report:?}").as_bytes())
}

/// What a unit hands back for the correctness check.
pub struct UnitResult {
    /// Hash of every report the unit produced.
    pub hash: u64,
    /// Hash of the unit's first report.
    pub primary: u64,
    /// Planted bugs matched.
    pub matched: usize,
    /// Planted bugs.
    pub planted: usize,
    /// Whether any report lists missing cells.
    pub degraded: bool,
}

impl UnitResult {
    /// Checks a unit's reports; called after the unit's timed window.
    pub fn of(reports: &[DetectionReport]) -> Self {
        let hashes: Vec<u8> = reports
            .iter()
            .flat_map(|r| report_hash(r).to_le_bytes())
            .collect();
        UnitResult {
            hash: fnv1a_bytes(&hashes),
            primary: report_hash(&reports[0]),
            matched: reports.iter().map(|r| r.matches.len()).sum(),
            planted: reports
                .iter()
                .map(|r| r.matches.len() + r.undetected.len())
                .sum(),
            degraded: reports.iter().any(|r| r.degraded()),
        }
    }
}

/// Where the allocation stage's experiments run.
pub enum Engine<'n> {
    /// On the session's target in this process, through a [`Driver`]
    /// built from the session's profile runs.
    Local,
    /// On `workers` in-process daemon workers that resolve the target by
    /// `name`.
    Fleet {
        /// Target name the workers resolve.
        name: &'n str,
        /// Worker threads.
        workers: usize,
    },
}

/// Builds the stitch index of an allocated campaign's causal database.
fn build_index(
    alloc: &AllocationResult,
    beam: &BeamConfig,
    tracer: &Tracer,
    t: &mut Tally,
) -> StitchIndex {
    let index = {
        let _s = tracer.span("stitch.index_build");
        StitchIndex::build(&alloc.db, beam.threads)
    };
    tally(t, "stitch.edges", index.len() as f64);
    tally(
        t,
        "stitch.distinct_state_pairs",
        index.compat_stats().distinct_state_pairs as f64,
    );
    index
}

fn report_on_index(
    target: &dyn TargetSystem,
    alloc: &AllocationResult,
    index: &StitchIndex,
    beam: &BeamConfig,
    tracer: &Tracer,
    t: &mut Tally,
) -> DetectionReport {
    let sim_of = |f| alloc.sim_score_of(f);
    let cycles = {
        let _s = tracer.span("stitch.search");
        index.search(&sim_of, beam)
    };
    tally(t, "stitch.cycles", cycles.len() as f64);
    let clusters = {
        let _s = tracer.span("beam.cluster_cycles");
        cluster_cycles(&cycles, &alloc.db, &alloc.cluster_of)
    };
    let _s = tracer.span("report.build");
    build_report(target, alloc, cycles, clusters)
}

/// Runs one whole campaign — profile, allocate, stitch, report — on
/// `target`, with each stage and layer timed.
pub fn campaign(
    target: &TimedTarget<'_>,
    cfg: &DetectConfig,
    engine: Engine<'_>,
    observer: Arc<dyn CampaignObserver>,
    counting: &CountingObserver,
    tracer: &Arc<Tracer>,
    t: &mut Tally,
) -> Result<Vec<DetectionReport>, String> {
    let err = |e: csnake_core::CsnakeError| e.to_string();
    let mut session = Session::builder(target)
        .config(cfg.clone())
        .observer(observer)
        .build()
        .map_err(err)?;
    {
        let s = tracer.span("profile");
        let _a = tracer.ambient(&s);
        session.profile().map_err(err)?;
    }
    let strategy = ThreePhase::new(cfg.alloc.clone());
    let outcome = match engine {
        Engine::Local => {
            let mut driver = {
                let _s = tracer.span("bench.engine");
                let profiles = session
                    .engine_mut()
                    .expect("profiled session has a driver")
                    .profiles()
                    .clone();
                Driver::from_profiles(target, cfg.driver.clone(), profiles, 0)
            };
            let mut timed = TimedEngine::new(&mut driver, Arc::clone(tracer));
            let outcome = {
                let _s = tracer.span("alloc");
                session.allocate_with_engine(&strategy, &mut timed)
            };
            tally(t, "driver.batches", timed.batches as f64);
            tally(t, "driver.experiments", timed.experiments as f64);
            outcome.map_err(err)?
        }
        Engine::Fleet { name, workers } => {
            let (coord, work): (Vec<_>, Vec<_>) =
                (0..workers).map(|_| timed_channel_pair(tracer)).unzip();
            std::thread::scope(|scope| {
                let handles: Vec<_> = work
                    .into_iter()
                    .map(|ep| scope.spawn(move || run_worker(ep, WorkerOptions::default())))
                    .collect();
                let connected = {
                    let _s = tracer.span("daemon.connect");
                    let target = session.target();
                    let driver = session.engine_mut().expect("profiled session has a driver");
                    DistributedEngine::connect(
                        name,
                        target,
                        cfg,
                        driver,
                        coord,
                        DaemonConfig::default(),
                    )
                };
                let outcome = connected.and_then(|mut fleet| {
                    let mut timed = TimedEngine::new(&mut fleet, Arc::clone(tracer));
                    let outcome = {
                        let _s = tracer.span("alloc");
                        session.allocate_with_engine(&strategy, &mut timed)
                    };
                    tally(t, "driver.batches", timed.batches as f64);
                    tally(t, "driver.experiments", timed.experiments as f64);
                    let _s = tracer.span("daemon.shutdown");
                    fleet.shutdown();
                    outcome
                });
                let _s = tracer.span("daemon.shutdown");
                for h in handles {
                    match h.join() {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => return Err(format!("worker failed: {e}")),
                        Err(_) => return Err("worker panicked".to_string()),
                    }
                }
                outcome.map_err(err)
            })?
        }
    };
    tally(t, "alloc.edges", outcome.edges as f64);
    tally(t, "alloc.fault_clusters", outcome.fault_clusters as f64);
    tally(
        t,
        "alloc.experiments",
        Counters::get(&counting.experiments) as f64,
    );
    tally(t, "alloc.useful", Counters::get(&counting.useful) as f64);
    // Direct calls to the stitch, beam and report layers: the same calls,
    // in the same order, as `Session::stitch` followed by `Session::report`.
    let alloc = session
        .allocation()
        .expect("allocated session has a result");
    let index = build_index(alloc, &cfg.beam, tracer, t);
    let report = report_on_index(target, alloc, &index, &cfg.beam, tracer, t);
    Ok(vec![report])
}

/// One re-stitch pass over the allocated session stored at `path`: resume
/// it, write it back with `Session::checkpoint`, stitch with both Table 4
/// beam variants (unlimited and at most one delay injection) over one
/// index, cluster and build both reports.
pub fn restitch(
    target: &TimedTarget<'_>,
    path: &Path,
    tracer: &Tracer,
    t: &mut Tally,
) -> Result<Vec<DetectionReport>, String> {
    let err = |e: csnake_core::CsnakeError| e.to_string();
    let resumed = {
        let _s = tracer.span("snapshot.decode");
        Session::resume(target, path).map_err(err)?
    };
    {
        let _s = tracer.span("snapshot.encode");
        resumed.checkpoint(path).map_err(err)?;
    }
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    tally(t, "snapshot.bytes", bytes as f64);
    let alloc = resumed
        .allocation()
        .ok_or("resumed session is not allocated")?;
    let beam = resumed.config().beam.clone();
    let index = build_index(alloc, &beam, tracer, t);
    let unlimited = report_on_index(target, alloc, &index, &beam, tracer, t);
    let one_delay = BeamConfig {
        max_delay_injections: Some(1),
        ..beam
    };
    let limited = report_on_index(target, alloc, &index, &one_delay, tracer, t);
    Ok(vec![unlimited, limited])
}

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_targets::ToySystem;

    fn config() -> DetectConfig {
        let mut cfg = DetectConfig::default();
        cfg.driver.reps = 3;
        cfg.driver.delay_values_ms = vec![800];
        cfg
    }

    /// The report the program produces on its own, unwrapped.
    fn plain_report(target: &dyn TargetSystem, cfg: &DetectConfig) -> String {
        let mut session = Session::builder(target)
            .config(cfg.clone())
            .build()
            .unwrap();
        let report = session
            .run_to_report(&ThreePhase::new(cfg.alloc.clone()))
            .unwrap();
        format!("{report:?}")
    }

    fn wrapped(cfg: &DetectConfig, engine: Engine<'_>, traced: bool) -> (String, Arc<Tracer>) {
        let toy = ToySystem::new();
        let tracer = Arc::new(Tracer::new(traced));
        let target = TimedTarget::new(&toy, Arc::clone(&tracer));
        let counting = Arc::new(CountingObserver::default());
        let mut t = Tally::new();
        let reports = campaign(
            &target,
            cfg,
            engine,
            counting.clone(),
            &counting,
            &tracer,
            &mut t,
        )
        .unwrap();
        assert_eq!(reports.len(), 1);
        assert!(Counters::get(&counting.experiments) > 0);
        (format!("{:?}", reports[0]), tracer)
    }

    #[test]
    fn wrapped_local_campaign_reports_exactly_what_the_program_reports() {
        let cfg = config();
        let plain = plain_report(&ToySystem::new(), &cfg);
        for traced in [false, true] {
            let (report, tracer) = wrapped(&cfg, Engine::Local, traced);
            assert_eq!(report, plain, "traced = {traced}");
            assert!(Counters::get(&tracer.counters.runs) > 0);
            let spans = tracer.spans();
            assert_eq!(spans.is_empty(), !traced);
            if traced {
                let name_of = |s: &crate::spans::Span| s.parent.map(|p| spans[p].name);
                for s in spans.iter().filter(|s| s.name == "sim.run") {
                    let parent = name_of(s);
                    assert!(
                        parent == Some("profile") || parent == Some("driver.batch"),
                        "run span parented by {parent:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sequential_driver_reports_the_same() {
        let mut cfg = config();
        let plain = plain_report(&ToySystem::new(), &cfg);
        cfg.driver.parallel = false;
        assert_eq!(wrapped(&cfg, Engine::Local, true).0, plain);
    }

    #[test]
    fn fleet_campaign_over_timed_endpoints_reports_the_same() {
        let mut cfg = config();
        cfg.driver.parallel = false;
        let plain = plain_report(&ToySystem::new(), &cfg);
        let engine = Engine::Fleet {
            name: "toy",
            workers: 2,
        };
        let (report, tracer) = wrapped(&cfg, engine, true);
        assert_eq!(report, plain);
        assert!(Counters::get(&tracer.counters.frames) > 0);
        assert!(Counters::get(&tracer.counters.wire_bytes) > 0);
        assert!(tracer.spans().iter().any(|s| s.name == "daemon.connect"));
    }

    #[test]
    fn restitch_reports_what_session_stitch_and_report_produce() {
        let toy = ToySystem::new();
        let cfg = config();
        let mut session = Session::builder(&toy).config(cfg.clone()).build().unwrap();
        session.profile().unwrap();
        session
            .allocate(&ThreePhase::new(cfg.alloc.clone()))
            .unwrap();
        let dir = std::env::temp_dir().join(format!("csnake-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.csnake");
        session.checkpoint(&path).unwrap();
        let tracer = Arc::new(Tracer::new(true));
        let target = TimedTarget::new(&toy, Arc::clone(&tracer));
        let mut t = Tally::new();
        let reports = restitch(&target, &path, &tracer, &mut t).unwrap();
        let again = restitch(&target, &path, &tracer, &mut t).unwrap();
        assert_eq!(
            format!("{reports:?}"),
            format!("{again:?}"),
            "write-back is lossless"
        );
        session.stitch().unwrap();
        let expected = format!("{:?}", session.report().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(format!("{:?}", reports[0]), expected);
        assert!(t["snapshot.bytes"] > 0.0);
        for name in [
            "snapshot.encode",
            "snapshot.decode",
            "stitch.search",
            "report.build",
        ] {
            assert!(tracer.spans().iter().any(|s| s.name == name), "{name}");
        }
    }
}
