//! The four workloads: what each sets up, and what one timed unit is.
//!
//! The program sees only what the workload seed generates: `DetectConfig`
//! seeds derived from it and, on `corpus-fleet`, `gen:<seed+i>` names.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use csnake_bench::EvalConfig;
use csnake_core::{
    CampaignObserver, DetectConfig, DetectionReport, FanoutObserver, Session, TargetSystem,
    ThreePhase,
};
use csnake_sim::VirtualTime;
use csnake_telemetry::FlightRecorder;
use csnake_workload::{Arrival, ArrivalSource, WorkloadSpec, WorkloadSystem};

use crate::campaign::{self, report_hash, tally, Engine, Tally, UnitResult};
use crate::spans::{Counters, Tracer};
use crate::wrap::{CountingObserver, TimedTarget};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = [
    "hdfs2-campaign",
    "restitch-hdfs3",
    "corpus-fleet",
    "open-loop-1m",
];

/// Campaign configurations per run. A run's figures are medians over
/// units drawn from all of them, so one seed's unusually large or small
/// campaign moves a run's figures less.
const CONFIGS_PER_RUN: u64 = 2;

/// Stored sessions per `restitch-hdfs3` run. Stitch cost depends on the
/// causal database far more than campaign cost depends on the seed, so
/// this workload draws its units from more campaigns.
const STORED_SESSIONS: u64 = 6;

/// A set-up runs at least `SETUP_MIN_REPEATS` times, and again while
/// fewer than `SETUP_SECONDS` have passed, so that `setup_s` is a median.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 0.25;

/// `gen:<seed+i>` campaigns per `corpus-fleet` round, next to the six
/// scenario files.
const GEN_CAMPAIGNS: u64 = 24;

/// Daemon worker threads on `corpus-fleet`: one per core here.
const FLEET_WORKERS: usize = 2;

/// Open-loop arrival rate and requests per simulated run.
const OPEN_LOOP_RPS: f64 = 50_000.0;
const OPEN_LOOP_REQUESTS: u64 = 1_000_000;
/// Speculative retries per timed-out request (one round), which plants
/// the drain-loop → timeout → retry cascade the campaign must find.
const OPEN_LOOP_RETRY_FANOUT: u32 = 2;

/// One unit's wall time and checked result.
pub struct Timed {
    /// Seconds from the first stage call to the finished report(s).
    pub secs: f64,
    /// Report hash and recall counts.
    pub result: UnitResult,
}

/// A workload after set-up: a list of units to run in rounds.
pub trait Units {
    /// Distinct units in one round.
    fn count(&self) -> usize;
    /// Runs unit `idx`, adding its per-layer counts to `t`.
    fn run(&mut self, idx: usize, tracer: &Arc<Tracer>, t: &mut Tally) -> Result<Timed, String>;
    /// Switches the driver's experiment pool off (`true`) or back on.
    /// Returns whether the workload has an in-process pool to switch.
    fn set_sequential(&mut self, _on: bool) -> bool {
        false
    }
    /// Threads the in-process experiment pool runs on; 0 when the
    /// experiments run in daemon workers.
    fn threads(&self) -> usize {
        0
    }
    /// Removes the files the units wrote.
    fn cleanup(&mut self) {}
}

/// Times `f` over and over (see [`SETUP_SECONDS`]); returns the last
/// result and every sample.
fn repeat_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t0 = Instant::now();
        let value = f()?;
        samples.push(t0.elapsed().as_secs_f64());
        if samples.len() >= SETUP_MIN_REPEATS && started.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return Ok((value, samples));
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `i`-th configuration seed derived from the workload seed.
fn derived(seed: u64, i: u64) -> u64 {
    splitmix(splitmix(seed) ^ i)
}

/// The paper-target evaluation configuration (3 reps, delays 800/3200 ms,
/// budget 12·|F|) at a derived seed.
fn eval_config(seed: u64) -> DetectConfig {
    EvalConfig {
        seed,
        ..EvalConfig::default()
    }
    .detect_config()
}

/// The reduced configuration the corpus and open-loop campaigns use
/// elsewhere in the repository (3 reps, one 800 ms delay).
fn small_config(seed: u64) -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.base_seed = seed;
    cfg.alloc.seed = seed ^ 0x3A;
    cfg
}

/// The 1M-request open-loop target.
fn open_loop_target() -> WorkloadSystem {
    let virtual_secs = (OPEN_LOOP_REQUESTS as f64 / OPEN_LOOP_RPS).ceil() as u64 + 5;
    let spec = WorkloadSpec {
        source: ArrivalSource::Process {
            arrival: Arrival::Poisson {
                rate_per_sec: OPEN_LOOP_RPS,
            },
            offered: OPEN_LOOP_REQUESTS,
        },
        service: VirtualTime::from_micros(10),
        tick: VirtualTime::from_millis(5),
        horizon: VirtualTime::from_secs(virtual_secs),
        event_limit: OPEN_LOOP_REQUESTS * 4,
        retry_fanout: OPEN_LOOP_RETRY_FANOUT,
        max_retries: 1,
        ..WorkloadSpec::default()
    };
    WorkloadSystem::with_spec("workload:open-loop-1m", spec)
}

/// Sets up `workload` at `seed`, writing files under `out_dir`. Returns
/// the units and the set-up time samples that `setup_s` is the median of.
pub fn setup(
    workload: &str,
    seed: u64,
    out_dir: &Path,
) -> Result<(Box<dyn Units>, Vec<f64>), String> {
    let seeds = (0..CONFIGS_PER_RUN).map(|i| derived(seed, i));
    match workload {
        "hdfs2-campaign" => {
            let configs: Vec<DetectConfig> = seeds.map(eval_config).collect();
            repeat_setup(|| {
                LocalCampaigns {
                    target: Box::new(csnake_targets::MiniHdfs2::new()),
                    configs: configs.clone(),
                    load: None,
                }
                .warmed_up()
            })
            .map(boxed)
        }
        "restitch-hdfs3" => {
            Restitch::setup((0..STORED_SESSIONS).map(|i| derived(seed, i)), out_dir).map(boxed)
        }
        "corpus-fleet" => repeat_setup(|| Fleet::setup(seed, out_dir)).map(boxed),
        "open-loop-1m" => {
            let configs: Vec<DetectConfig> = seeds
                .map(|s| {
                    let mut cfg = small_config(s);
                    cfg.driver.retry.backoff_base_ms = 1;
                    cfg
                })
                .collect();
            let attempts = 1 + u64::from(OPEN_LOOP_RETRY_FANOUT);
            repeat_setup(|| {
                LocalCampaigns {
                    target: Box::new(open_loop_target()),
                    configs: configs.clone(),
                    load: Some((OPEN_LOOP_REQUESTS, attempts)),
                }
                .warmed_up()
            })
            .map(boxed)
        }
        other => Err(format!(
            "unknown workload {other:?}; known: {}",
            NAMES.join(", ")
        )),
    }
}

fn boxed<U: Units + 'static>((units, samples): (U, Vec<f64>)) -> (Box<dyn Units>, Vec<f64>) {
    (Box::new(units), samples)
}

/// Finishes a unit: its wall time and the check of its reports, which is
/// made after the timed window.
fn timed(t0: Instant, reports: Vec<DetectionReport>) -> Timed {
    let secs = t0.elapsed().as_secs_f64();
    Timed {
        secs,
        result: UnitResult::of(&reports),
    }
}

/// Whole campaigns on one in-process target (`hdfs2-campaign`,
/// `open-loop-1m`).
struct LocalCampaigns {
    target: Box<dyn TargetSystem>,
    configs: Vec<DetectConfig>,
    /// Offered requests per run and most attempts per request, on
    /// open-loop targets.
    load: Option<(u64, u64)>,
}

impl LocalCampaigns {
    /// Profiles the target once, untimed by the units, so that lazy
    /// initialisation and cold caches are paid in set-up.
    fn warmed_up(self) -> Result<Self, String> {
        warm_up(self.target.as_ref(), &self.configs[0])?;
        Ok(self)
    }
}

/// One profile pass over `target`: the warm-up every set-up ends with.
fn warm_up(target: &dyn TargetSystem, cfg: &DetectConfig) -> Result<(), String> {
    let mut session = Session::builder(target)
        .config(cfg.clone())
        .build()
        .map_err(|e| format!("{}: {e}", target.name()))?;
    session.profile().map_err(|e| e.to_string())?;
    drop(target.drain_workload_summaries());
    Ok(())
}

impl Units for LocalCampaigns {
    fn count(&self) -> usize {
        self.configs.len()
    }

    fn run(&mut self, idx: usize, tracer: &Arc<Tracer>, t: &mut Tally) -> Result<Timed, String> {
        let mut target = TimedTarget::new(self.target.as_ref(), Arc::clone(tracer));
        if let Some((offered, attempts)) = self.load {
            target = target.expecting_load(offered, attempts);
        }
        let counting = Arc::new(CountingObserver::default());
        let t0 = Instant::now();
        let unit = tracer.span("unit");
        let reports = campaign::campaign(
            &target,
            &self.configs[idx],
            Engine::Local,
            counting.clone(),
            &counting,
            tracer,
            t,
        )?;
        drop(unit);
        let done = timed(t0, reports);
        tally(
            t,
            "workload.summaries",
            Counters::get(&counting.workload_summaries) as f64,
        );
        Ok(done)
    }

    fn set_sequential(&mut self, on: bool) -> bool {
        for cfg in &mut self.configs {
            cfg.driver.parallel = !on;
        }
        true
    }

    fn threads(&self) -> usize {
        if self.configs.iter().all(|c| c.driver.parallel) {
            csnake_core::pool::hardware_threads()
        } else {
            1
        }
    }
}

/// One allocated `mini-hdfs3` session, stored as a checkpoint file.
struct Stored {
    path: PathBuf,
    /// Hash of the report `Session::stitch` + `Session::report` produce.
    reference: u64,
}

/// Re-stitch passes over allocated `mini-hdfs3` sessions.
struct Restitch {
    target: csnake_targets::MiniHdfs3,
    stored: Vec<Stored>,
}

impl Restitch {
    /// Runs one campaign per seed through `allocate` and stores its
    /// session; each campaign is one timed set-up.
    fn setup(
        seeds: impl Iterator<Item = u64>,
        out_dir: &Path,
    ) -> Result<(Restitch, Vec<f64>), String> {
        let err = |e: csnake_core::CsnakeError| e.to_string();
        let target = csnake_targets::MiniHdfs3::new();
        let mut stored = Vec::new();
        let mut samples = Vec::new();
        for (i, seed) in seeds.enumerate() {
            let t0 = Instant::now();
            let cfg = eval_config(seed);
            let strategy = ThreePhase::new(cfg.alloc.clone());
            let mut session = Session::builder(&target).config(cfg).build().map_err(err)?;
            session.profile().map_err(err)?;
            session.allocate(&strategy).map_err(err)?;
            let path = out_dir.join(format!("restitch-hdfs3-{i}.csnake"));
            session.checkpoint(&path).map_err(err)?;
            samples.push(t0.elapsed().as_secs_f64());
            session.stitch().map_err(err)?;
            let reference = report_hash(session.report().map_err(err)?);
            stored.push(Stored { path, reference });
        }
        Ok((Restitch { target, stored }, samples))
    }
}

impl Units for Restitch {
    fn count(&self) -> usize {
        self.stored.len()
    }

    fn run(&mut self, idx: usize, tracer: &Arc<Tracer>, t: &mut Tally) -> Result<Timed, String> {
        let stored = &self.stored[idx];
        let target = TimedTarget::new(&self.target, Arc::clone(tracer));
        let t0 = Instant::now();
        let unit = tracer.span("unit");
        let reports = campaign::restitch(&target, &stored.path, tracer, t)?;
        drop(unit);
        let done = timed(t0, reports);
        if done.result.primary != stored.reference {
            return Err("re-stitched report differs from Session::stitch + report".into());
        }
        Ok(done)
    }

    fn cleanup(&mut self) {
        for s in &self.stored {
            let _ = std::fs::remove_file(&s.path);
        }
    }
}

/// Small campaigns through the daemon on in-process workers, with a
/// flight-recorder journal on the coordinator.
struct Fleet {
    names: Vec<String>,
    configs: Vec<DetectConfig>,
    journal_dir: PathBuf,
}

impl Fleet {
    /// Parses the scenario corpus, names the generated targets, and
    /// resolves and warms up every target.
    fn setup(seed: u64, out_dir: &Path) -> Result<Fleet, String> {
        let corpus = csnake_scenario::corpus_specs().map_err(|e| e.to_string())?;
        let mut names: Vec<String> = corpus.keys().cloned().collect();
        names.extend((0..GEN_CAMPAIGNS).map(|i| format!("gen:{}", seed.wrapping_add(i))));
        let configs: Vec<DetectConfig> = (0..names.len() as u64)
            .map(|i| {
                let mut cfg = small_config(derived(seed, i));
                // Each worker thread runs its shard's experiments one at a
                // time, so busy threads stay within the two workers.
                cfg.driver.parallel = false;
                cfg
            })
            .collect();
        for (name, cfg) in names.iter().zip(&configs) {
            let target = csnake_gen::by_name(name).map_err(|e| e.to_string())?;
            warm_up(target.as_ref(), cfg)?;
        }
        Ok(Fleet {
            names,
            configs,
            journal_dir: out_dir.to_path_buf(),
        })
    }
}

impl Fleet {
    /// One campaign: resolve the target by name, journal the campaign,
    /// drive it through the fleet, and flush the journal.
    fn campaign(
        &self,
        i: usize,
        tracer: &Arc<Tracer>,
        t: &mut Tally,
    ) -> Result<(DetectionReport, Arc<FlightRecorder>), String> {
        let name = &self.names[i];
        let system = {
            let _s = tracer.span("scenario.load");
            csnake_gen::by_name(name).map_err(|e| e.to_string())?
        };
        let target = TimedTarget::new(system.as_ref(), Arc::clone(tracer));
        let recorder = {
            let _s = tracer.span("telemetry.open");
            Arc::new(
                FlightRecorder::builder()
                    .binary(self.journal(i))
                    .build()
                    .map_err(|e| e.to_string())?,
            )
        };
        let counting = Arc::new(CountingObserver::default());
        let observer: Arc<dyn CampaignObserver> = Arc::new(FanoutObserver::new(vec![
            recorder.clone() as Arc<dyn CampaignObserver>,
            counting.clone(),
        ]));
        let engine = Engine::Fleet {
            name,
            workers: FLEET_WORKERS,
        };
        let mut reports = campaign::campaign(
            &target,
            &self.configs[i],
            engine,
            observer,
            &counting,
            tracer,
            t,
        )?;
        {
            let _s = tracer.span("telemetry.finish");
            recorder.finish().map_err(|e| e.to_string())?;
        }
        Ok((reports.remove(0), recorder))
    }

    fn journal(&self, i: usize) -> PathBuf {
        self.journal_dir.join(format!("corpus-fleet-{i}.csnj"))
    }
}

/// One unit is one round over the corpus. Campaign times differ by an
/// order of magnitude between targets, so the median of single campaigns
/// would jump between neighbouring targets' times from run to run.
impl Units for Fleet {
    fn count(&self) -> usize {
        1
    }

    fn run(&mut self, _idx: usize, tracer: &Arc<Tracer>, t: &mut Tally) -> Result<Timed, String> {
        let t0 = Instant::now();
        let unit = tracer.span("unit");
        let mut reports = Vec::with_capacity(self.names.len());
        let mut recorders = Vec::with_capacity(self.names.len());
        for i in 0..self.names.len() {
            let (report, recorder) = self.campaign(i, tracer, t)?;
            reports.push(report);
            recorders.push(recorder);
        }
        drop(unit);
        let done = timed(t0, reports);
        for (i, recorder) in recorders.iter().enumerate() {
            tally(t, "telemetry.records", recorder.records().len() as f64);
            let bytes = std::fs::metadata(self.journal(i)).map_or(0, |m| m.len());
            tally(t, "telemetry.journal_bytes", bytes as f64);
        }
        Ok(done)
    }

    fn cleanup(&mut self) {
        for i in 0..self.names.len() {
            let _ = std::fs::remove_file(self.journal(i));
        }
    }
}
