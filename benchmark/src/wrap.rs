//! Delegating wrappers that time each layer from outside the program.
//!
//! Each wrapper forwards every trait method to the wrapped value and adds
//! spans and counters around the calls that cross a layer boundary. With
//! tracing off they only forward and count, so the untraced run takes the
//! same code path as the traced one.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use csnake_core::alloc::ShardSpan;
use csnake_core::{
    CampaignObserver, ExperimentEngine, ExperimentOutcome, KnownBug, TargetSystem, TestCase,
    WorkloadSummary,
};
use csnake_daemon::transport::{WireRx, WireTx};
use csnake_daemon::wire::{open_frame, seal_frame, WireMsg};
use csnake_daemon::Endpoint;
use csnake_inject::{FaultId, InjectionPlan, Registry, RunTrace, TestId};

use crate::spans::{Counters, Tracer};

/// A [`TargetSystem`] that times `run` (`sim.run` spans) and counts runs,
/// events and hooks. On open-loop targets it also checks every drained
/// [`WorkloadSummary`] against the workload's accounting invariants.
pub struct TimedTarget<'a> {
    inner: &'a dyn TargetSystem,
    tracer: Arc<Tracer>,
    /// Set once any injected run has started: until then every drained
    /// summary comes from an uninjected run, which must complete its load.
    injected_seen: AtomicBool,
    /// Offered load every summary must report, and the most attempts one
    /// request may make (itself plus its retries), when known.
    expect_load: Option<(u64, u64)>,
}

impl<'a> TimedTarget<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn TargetSystem, tracer: Arc<Tracer>) -> Self {
        TimedTarget {
            inner,
            tracer,
            injected_seen: AtomicBool::new(false),
            expect_load: None,
        }
    }

    /// Requires every drained summary to report `offered` requests, each
    /// attempted at most `attempts` times.
    pub fn expecting_load(mut self, offered: u64, attempts: u64) -> Self {
        self.expect_load = Some((offered, attempts));
        self
    }

    fn summary_ok(&self, s: &WorkloadSummary, uninjected: bool) -> bool {
        let windows: u64 = s.windows.iter().map(|w| w.completed).sum();
        let (offered, attempts) = self.expect_load.unwrap_or((s.offered, 1));
        s.offered == offered
            && s.completed + s.dropped <= s.offered * attempts
            && windows == s.completed
            && s.p50_us <= s.p90_us
            && s.p90_us <= s.p99_us
            && s.p99_us <= s.max_us
            && s.windows.windows(2).all(|w| w[0].start_ms < w[1].start_ms)
            && (!uninjected || (s.completed == s.offered && s.dropped == 0))
    }
}

impl TargetSystem for TimedTarget<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn registry(&self) -> Arc<Registry> {
        self.inner.registry()
    }

    fn tests(&self) -> Vec<TestCase> {
        self.inner.tests()
    }

    fn run(&self, test: TestId, plan: Option<InjectionPlan>, seed: u64) -> RunTrace {
        if plan.is_some() {
            self.injected_seen.store(true, Ordering::Relaxed);
        }
        let trace = {
            let _s = self.tracer.span("sim.run");
            self.inner.run(test, plan, seed)
        };
        let c = &self.tracer.counters;
        Counters::add(&c.runs, 1);
        Counters::add(&c.events, trace.events);
        Counters::add(&c.hooks, trace.hook_count);
        trace
    }

    fn known_bugs(&self) -> Vec<KnownBug> {
        self.inner.known_bugs()
    }

    fn expected_contention_labels(&self) -> Vec<&'static str> {
        self.inner.expected_contention_labels()
    }

    fn drain_workload_summaries(&self) -> Vec<WorkloadSummary> {
        let drained = self.inner.drain_workload_summaries();
        let uninjected = !self.injected_seen.load(Ordering::Relaxed);
        let c = &self.tracer.counters;
        for s in &drained {
            Counters::add(&c.requests, s.offered);
            if !self.summary_ok(s, uninjected) {
                Counters::add(&c.summary_violations, 1);
            }
        }
        drained
    }
}

/// An [`ExperimentEngine`] that times each batch (`driver.batch` spans)
/// and makes the batch the parent of runs on the engine's pool threads.
pub struct TimedEngine<'e> {
    inner: &'e mut dyn ExperimentEngine,
    tracer: Arc<Tracer>,
    /// Batches run.
    pub batches: u64,
    /// Experiments run.
    pub experiments: u64,
}

impl<'e> TimedEngine<'e> {
    /// Wraps `inner`.
    pub fn new(inner: &'e mut dyn ExperimentEngine, tracer: Arc<Tracer>) -> Self {
        TimedEngine {
            inner,
            tracer,
            batches: 0,
            experiments: 0,
        }
    }

    /// Runs `f` on the inner engine inside a `driver.batch` span, which
    /// also parents the batch's runs on the engine's pool threads.
    fn batch<R>(&mut self, jobs: usize, f: impl FnOnce(&mut dyn ExperimentEngine) -> R) -> R {
        self.batches += 1;
        self.experiments += jobs as u64;
        let span = self.tracer.span("driver.batch");
        let _parent = self.tracer.ambient(&span);
        f(&mut *self.inner)
    }
}

impl ExperimentEngine for TimedEngine<'_> {
    fn faults(&self) -> Vec<FaultId> {
        self.inner.faults()
    }

    fn tests_reaching(&self, f: FaultId) -> Vec<TestId> {
        self.inner.tests_reaching(f)
    }

    fn coverage_size(&self, t: TestId) -> usize {
        self.inner.coverage_size(t)
    }

    fn run_experiment(&mut self, f: FaultId, t: TestId, phase: u8) -> ExperimentOutcome {
        self.batch(1, |e| e.run_experiment(f, t, phase))
    }

    fn run_experiments(&mut self, batch: &[(FaultId, TestId, u8)]) -> Vec<ExperimentOutcome> {
        self.batch(batch.len(), |e| e.run_experiments(batch))
    }

    fn run_experiments_checkpointed(
        &mut self,
        batch: &[(FaultId, TestId, u8)],
        progress: &mut dyn FnMut(&[ShardSpan]),
    ) -> Vec<ExperimentOutcome> {
        self.batch(batch.len(), |e| {
            e.run_experiments_checkpointed(batch, progress)
        })
    }

    fn take_gaps(&mut self) -> Vec<(FaultId, TestId, u8)> {
        self.inner.take_gaps()
    }

    fn runs_executed(&self) -> usize {
        self.inner.runs_executed()
    }

    fn attach_observer(&mut self, observer: Arc<dyn CampaignObserver>) {
        self.inner.attach_observer(observer)
    }

    fn trace_cache_stats(&self) -> (usize, usize) {
        self.inner.trace_cache_stats()
    }
}

/// Sending half of [`timed_channel_pair`]: seals each message into a
/// fully encoded frame, counts it and its bytes, and times the send.
pub struct TimedTx {
    inner: Sender<Vec<u8>>,
    tracer: Arc<Tracer>,
    timed: bool,
}

impl WireTx for TimedTx {
    fn send(&mut self, msg: &WireMsg) -> io::Result<()> {
        let _s = self.timed.then(|| self.tracer.span("daemon.send"));
        let frame = seal_frame(msg);
        let c = &self.tracer.counters;
        Counters::add(&c.frames, 1);
        Counters::add(&c.wire_bytes, frame.len() as u64);
        self.inner
            .send(frame)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer hung up"))
    }
}

/// Receiving half of [`timed_channel_pair`]: times the blocking wait plus
/// the frame decode.
pub struct TimedRx {
    inner: Receiver<Vec<u8>>,
    tracer: Arc<Tracer>,
    timed: bool,
}

impl WireRx for TimedRx {
    fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        let _s = self.timed.then(|| self.tracer.span("daemon.recv_wait"));
        match self.inner.recv() {
            Ok(bytes) => open_frame(&bytes).map(Some).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("wire decode failed: {e}"),
                )
            }),
            Err(_) => Ok(None),
        }
    }
}

/// An in-process connection like [`csnake_daemon::channel_pair`], whose
/// frames cross the channel fully encoded. Returns `(coordinator side,
/// worker side)`; only the coordinator side records spans, both count
/// frames and bytes.
pub fn timed_channel_pair(tracer: &Arc<Tracer>) -> (Endpoint, Endpoint) {
    let (to_worker, worker_in) = channel();
    let (to_coord, coord_in) = channel();
    let half = |tx, rx, timed| Endpoint {
        tx: Box::new(TimedTx {
            inner: tx,
            tracer: Arc::clone(tracer),
            timed,
        }),
        rx: Box::new(TimedRx {
            inner: rx,
            tracer: Arc::clone(tracer),
            timed,
        }),
    };
    (
        half(to_worker, coord_in, true),
        half(to_coord, worker_in, false),
    )
}

/// A [`CampaignObserver`] that counts the events the per-layer table needs.
#[derive(Default)]
pub struct CountingObserver {
    /// Experiments completed.
    pub experiments: AtomicU64,
    /// Experiments that yielded at least one causal edge.
    pub useful: AtomicU64,
    /// Causal edges emitted.
    pub edges: AtomicU64,
    /// Workload summaries streamed to observers.
    pub workload_summaries: AtomicU64,
}

impl CampaignObserver for CountingObserver {
    fn experiment_completed(&self, outcome: &ExperimentOutcome) {
        self.experiments.fetch_add(1, Ordering::Relaxed);
        if !outcome.edges.is_empty() {
            self.useful.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn edge_emitted(&self, _edge: &csnake_core::CausalEdge) {
        self.edges.fetch_add(1, Ordering::Relaxed);
    }

    fn workload_summary(&self, _summary: &WorkloadSummary) {
        self.workload_summaries.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_core::{Driver, DriverConfig, WorkloadWindow};
    use csnake_targets::ToySystem;

    #[test]
    fn target_wrapper_forwards_every_method() {
        let toy = ToySystem::new();
        let tracer = Arc::new(Tracer::new(false));
        let timed = TimedTarget::new(&toy, Arc::clone(&tracer));
        assert_eq!(timed.name(), toy.name());
        let fp = |r: Arc<Registry>| csnake_core::registry_fingerprint(&r);
        assert_eq!(fp(timed.registry()), fp(toy.registry()));
        assert_eq!(timed.tests(), toy.tests());
        assert_eq!(timed.known_bugs(), toy.known_bugs());
        assert_eq!(
            timed.expected_contention_labels(),
            toy.expected_contention_labels()
        );
        let test = toy.tests()[0].id;
        let a = format!("{:?}", timed.run(test, None, 7));
        assert_eq!(a, format!("{:?}", toy.run(test, None, 7)));
        assert_eq!(Counters::get(&tracer.counters.runs), 1);
        assert!(timed.drain_workload_summaries().is_empty());
    }

    #[test]
    fn engine_wrapper_forwards_every_method() {
        let toy = ToySystem::new();
        let cfg = DriverConfig {
            reps: 3,
            delay_values_ms: vec![800],
            ..DriverConfig::default()
        };
        let mut plain = Driver::new(&toy, cfg.clone());
        let mut inner = Driver::new(&toy, cfg);
        let tracer = Arc::new(Tracer::new(true));
        let mut timed = TimedEngine::new(&mut inner, Arc::clone(&tracer));
        let faults = plain.faults();
        assert_eq!(timed.faults(), faults);
        let f = faults[0];
        let tests = plain.tests_reaching(f);
        assert_eq!(timed.tests_reaching(f), tests);
        assert_eq!(timed.coverage_size(tests[0]), plain.coverage_size(tests[0]));
        assert_eq!(timed.runs_executed(), plain.runs_executed());
        let one = timed.run_experiment(f, tests[0], 1);
        assert_eq!(
            format!("{one:?}"),
            format!("{:?}", plain.run_experiment(f, tests[0], 1))
        );
        let batch = [(f, tests[0], 2), (faults[1], tests[0], 2)];
        let got = timed.run_experiments(&batch);
        assert_eq!(
            format!("{got:?}"),
            format!("{:?}", plain.run_experiments(&batch))
        );
        let got = timed.run_experiments_checkpointed(&batch, &mut |_| {});
        let want = plain.run_experiments_checkpointed(&batch, &mut |_| {});
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(timed.take_gaps(), plain.take_gaps());
        assert_eq!(timed.runs_executed(), plain.runs_executed());
        assert_eq!(timed.trace_cache_stats(), plain.trace_cache_stats());
        timed.attach_observer(Arc::new(CountingObserver::default()));
        assert_eq!((timed.batches, timed.experiments), (3, 5));
        let batches = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "driver.batch")
            .count();
        assert_eq!(batches, 3);
    }

    fn summary(completed: u64, dropped: u64) -> WorkloadSummary {
        WorkloadSummary {
            test: TestId(0),
            seed: 1,
            offered: 100,
            completed,
            dropped,
            p50_us: 10,
            p90_us: 20,
            p99_us: 30,
            max_us: 40,
            windows: vec![
                WorkloadWindow {
                    start_ms: 0,
                    completed: completed / 2,
                    p50_us: 10,
                    p99_us: 30,
                },
                WorkloadWindow {
                    start_ms: 250,
                    completed: completed - completed / 2,
                    p50_us: 10,
                    p99_us: 30,
                },
            ],
        }
    }

    #[test]
    fn summary_invariants() {
        let toy = ToySystem::new();
        let timed = TimedTarget::new(&toy, Arc::new(Tracer::new(false))).expecting_load(100, 3);
        assert!(timed.summary_ok(&summary(100, 0), true));
        assert!(
            !timed.summary_ok(&summary(90, 0), true),
            "uninjected runs complete all"
        );
        assert!(timed.summary_ok(&summary(90, 5), false));
        assert!(
            timed.summary_ok(&summary(250, 0), false),
            "retries may complete"
        );
        assert!(
            !timed.summary_ok(&summary(301, 0), false),
            "at most 3 attempts each"
        );
        let mut s = summary(100, 0);
        s.windows[0].completed += 1;
        assert!(
            !timed.summary_ok(&s, false),
            "windows must sum to completed"
        );
        let mut s = summary(100, 0);
        s.p99_us = 5;
        assert!(!timed.summary_ok(&s, false), "percentiles must be ordered");
        let mut s = summary(100, 0);
        s.offered = 99;
        assert!(
            !timed.summary_ok(&s, false),
            "offered load is fixed by the spec"
        );
    }
}
