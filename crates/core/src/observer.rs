//! The campaign event layer: observe a detection session while it runs.
//!
//! A [`CampaignObserver`] receives the session's progress events — stage
//! transitions, 3PA phase boundaries, individual experiment completions,
//! causal edges as they enter the database, cycles as the stitcher reports
//! them, and budget consumption. The default implementation of every method
//! is a no-op, so observers implement only what they care about.
//!
//! Event vocabulary (all emitted on the session's coordinating thread, in
//! deterministic order — observers never affect campaign results):
//!
//! | event | emitted when |
//! |---|---|
//! | [`stage_started`] / [`stage_finished`] | a session stage begins / ends |
//! | [`phase_started`] / [`phase_finished`] | an allocation phase's planned batch begins / ends |
//! | [`experiment_completed`] | one `(fault, test)` experiment's FCA finished |
//! | [`edge_emitted`] | a *new* causal edge entered the database (sweep repeats are deduplicated first) |
//! | [`cycle_found`] | the stitcher reported a deduplicated cycle |
//! | [`budget_spent`] | the allocation strategy's spent/total counters moved |
//! | [`trace_cache`] | the driver's injection-run cache counters, after a campaign |
//! | [`clustering`] | the phase-one clustering ran (size counters, §5.2) |
//! | [`workload_summary`] | an open-loop workload run's latency summary was drained from the target |
//! | [`batch_retried`] | the supervisor quarantined failed jobs and scheduled a retry |
//! | [`batch_failed`] | a `(fault, test)` cell exhausted its retries and became a gap |
//! | [`checkpoint_written`] | a mid-phase checkpoint landed on disk (after the atomic rename) |
//! | [`degraded`] | the campaign completed with missing cells in its report |
//! | [`worker_connected`] / [`worker_lost`] | a daemon worker completed its handshake / missed its lease |
//! | [`shard_assigned`] / [`shard_reassigned`] | the daemon coordinator leased a shard / moved it off a dead worker |
//! | [`event_forwarded`] | the daemon coordinator relayed a worker-side event ([`ForwardedEvent`]) for live attribution |
//! | [`journal_flushed`] | a telemetry flight recorder flushed its journal to disk |
//!
//! The daemon/telemetry rows are *operational*: [`event_forwarded`] mirrors
//! work the deterministic stream already reports at merge time (with
//! worker attribution, as it happens on the fleet), and [`journal_flushed`]
//! describes the recorder itself. Neither feeds the deterministic
//! campaign-total counters, so forwarding can never double-count.
//!
//! [`stage_started`]: CampaignObserver::stage_started
//! [`stage_finished`]: CampaignObserver::stage_finished
//! [`phase_started`]: CampaignObserver::phase_started
//! [`phase_finished`]: CampaignObserver::phase_finished
//! [`experiment_completed`]: CampaignObserver::experiment_completed
//! [`edge_emitted`]: CampaignObserver::edge_emitted
//! [`cycle_found`]: CampaignObserver::cycle_found
//! [`budget_spent`]: CampaignObserver::budget_spent
//! [`trace_cache`]: CampaignObserver::trace_cache
//! [`clustering`]: CampaignObserver::clustering
//! [`workload_summary`]: CampaignObserver::workload_summary
//! [`batch_retried`]: CampaignObserver::batch_retried
//! [`batch_failed`]: CampaignObserver::batch_failed
//! [`checkpoint_written`]: CampaignObserver::checkpoint_written
//! [`degraded`]: CampaignObserver::degraded
//! [`worker_connected`]: CampaignObserver::worker_connected
//! [`worker_lost`]: CampaignObserver::worker_lost
//! [`shard_assigned`]: CampaignObserver::shard_assigned
//! [`shard_reassigned`]: CampaignObserver::shard_reassigned
//! [`event_forwarded`]: CampaignObserver::event_forwarded
//! [`journal_flushed`]: CampaignObserver::journal_flushed

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use csnake_inject::{FaultId, TestId};

use crate::beam::Cycle;
use crate::cluster::ClusterStats;
use crate::edge::CausalEdge;
use crate::fca::ExperimentOutcome;
use crate::session::Stage;
use crate::workload::WorkloadSummary;

/// A worker-side observer event relayed to the coordinator by the daemon's
/// `Event` wire frame and re-emitted through
/// [`CampaignObserver::event_forwarded`] with worker attribution.
///
/// Forwarded events exist for *liveness*: the deterministic event stream
/// ([`experiment_completed`](CampaignObserver::experiment_completed),
/// [`edge_emitted`](CampaignObserver::edge_emitted),
/// [`batch_retried`](CampaignObserver::batch_retried), …) is emitted
/// coordinator-side at shard-merge time, in deterministic order — which
/// means it lags the fleet by up to one in-flight shard per worker. The
/// forwarded copies arrive as the work happens, attributed to the worker
/// that did it, and deliberately carry only summaries (counts, ids) rather
/// than full outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardedEvent {
    /// A worker finished one `(fault, test)` experiment; `edges` is the
    /// number of causal edges its FCA produced (before coordinator-side
    /// deduplication against the campaign database).
    ExperimentCompleted {
        /// The injected fault.
        fault: FaultId,
        /// The workload the fault was injected into.
        test: TestId,
        /// Causal edges the experiment's FCA emitted.
        edges: usize,
    },
    /// A worker's retry supervisor quarantined failed jobs and scheduled a
    /// retry.
    BatchRetried {
        /// Jobs that failed and were re-queued.
        failed_jobs: usize,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// Backoff pause before the retry.
        backoff_ms: u64,
    },
    /// A cell exhausted a worker's retry budget and became a gap.
    BatchFailed {
        /// The abandoned cell's fault.
        fault: FaultId,
        /// The abandoned cell's test.
        test: TestId,
        /// The abandoned cell's 3PA phase.
        phase: u8,
    },
    /// A worker's cumulative injection-run cache counters.
    TraceCache {
        /// Cache hits so far on that worker.
        hits: usize,
        /// Cache misses so far on that worker.
        misses: usize,
    },
}

/// Receives progress events from a running detection session.
///
/// All methods have no-op defaults. Implementations must be `Send + Sync`:
/// the session itself calls them from one thread at a time, but sessions
/// (and their observers) may be driven from worker threads.
pub trait CampaignObserver: Send + Sync {
    /// A session stage ([`Stage`]) started executing.
    fn stage_started(&self, stage: Stage) {
        let _ = stage;
    }

    /// A session stage finished executing.
    fn stage_finished(&self, stage: Stage) {
        let _ = stage;
    }

    /// An allocation phase is about to execute its planned batch.
    /// `phase` is the strategy's phase label (3PA: 1–3; baselines: 0),
    /// `planned` the number of experiments in the batch.
    fn phase_started(&self, phase: u8, planned: usize) {
        let _ = (phase, planned);
    }

    /// An allocation phase executed its batch; `executed` experiments ran.
    fn phase_finished(&self, phase: u8, executed: usize) {
        let _ = (phase, executed);
    }

    /// One `(fault, test)` experiment completed fault-causality analysis.
    fn experiment_completed(&self, outcome: &ExperimentOutcome) {
        let _ = outcome;
    }

    /// A new causal edge was accepted into the campaign database.
    fn edge_emitted(&self, edge: &CausalEdge) {
        let _ = edge;
    }

    /// The stitcher reported a (deduplicated) causal cycle.
    fn cycle_found(&self, cycle: &Cycle) {
        let _ = cycle;
    }

    /// The allocation strategy's budget counters moved.
    fn budget_spent(&self, spent: usize, total: usize) {
        let _ = (spent, total);
    }

    /// The driver's injection-run cache counters
    /// ([`DriverConfig::cache_injections`](crate::driver::DriverConfig::cache_injections)),
    /// emitted when an allocation stage finishes: `hits` experiments
    /// reused a recorded run set, `misses` simulated and indexed one.
    /// Both stay zero while the cache is disabled.
    fn trace_cache(&self, hits: usize, misses: usize) {
        let _ = (hits, misses);
    }

    /// The phase-one clustering ran; `stats` carries the sparse-run size
    /// counters (vectors, duplicate groups, candidate edges, and the
    /// matrix-vs-sparse-graph byte comparison). Emitted once per
    /// allocation stage, after the cluster cut.
    fn clustering(&self, stats: &ClusterStats) {
        let _ = stats;
    }

    /// An open-loop workload run's latency summary was drained from the
    /// target. Emitted by the [`Driver`](crate::Driver) after each
    /// experiment batch, in deterministic `(test, seed)` order. Summaries
    /// are telemetry only — they never feed FCA or campaign results.
    /// Only simulated runs produce one: an injection rep the driver
    /// replays from its profile trace, because its plan can never fire,
    /// adds none. On the bundled `workload:*` targets every planned run
    /// can fire, so none is replayed.
    fn workload_summary(&self, summary: &WorkloadSummary) {
        let _ = summary;
    }

    /// The supervisor quarantined `failed_jobs` panicked/stalled jobs of
    /// experiment batch `batch` and scheduled retry attempt `attempt`
    /// (1-based) after a `backoff_ms` pause. The backoff paces wall-clock
    /// execution only; it never enters campaign results.
    fn batch_retried(&self, batch: usize, failed_jobs: usize, attempt: u32, backoff_ms: u64) {
        let _ = (batch, failed_jobs, attempt, backoff_ms);
    }

    /// A `(fault, test)` experiment exhausted its retry budget in batch
    /// `batch` and was recorded as a gap; `reason` is the final panic
    /// message. The campaign continues degraded — see
    /// [`degraded`](CampaignObserver::degraded).
    fn batch_failed(&self, batch: usize, fault: FaultId, test: TestId, phase: u8, reason: &str) {
        let _ = (batch, fault, test, phase, reason);
    }

    /// A mid-phase checkpoint reached disk: emitted *after* the atomic
    /// temp-file + rename completed, so by the time an observer sees the
    /// event the file at `path` is a complete, resumable snapshot covering
    /// `executed_in_phase` experiments of allocation phase `phase`.
    fn checkpoint_written(&self, path: &Path, phase: u8, executed_in_phase: usize) {
        let _ = (path, phase, executed_in_phase);
    }

    /// The campaign completed with permanently failed cells: `missing`
    /// enumerates every `(fault, test, phase)` whose experiment never
    /// produced an outcome. Emitted at most once, while the report stage
    /// assembles the annotated partial [`DetectionReport`](crate::DetectionReport).
    fn degraded(&self, missing: &[(FaultId, TestId, u8)]) {
        let _ = missing;
    }

    /// A daemon worker process completed its handshake and is ready for
    /// shard assignments. Operational telemetry only — worker membership
    /// never influences campaign results.
    fn worker_connected(&self, worker: u32) {
        let _ = worker;
    }

    /// A daemon worker's lease expired (stalled heartbeat) or its
    /// connection dropped; its unacknowledged shards will be reassigned.
    fn worker_lost(&self, worker: u32, reason: &str) {
        let _ = (worker, reason);
    }

    /// The daemon coordinator leased shard `shard` (`jobs` experiments) to
    /// `worker`.
    fn shard_assigned(&self, shard: u32, worker: u32, jobs: usize) {
        let _ = (shard, worker, jobs);
    }

    /// The daemon coordinator moved shard `shard` from a lost worker to
    /// `worker` (reassignment `attempt`, 1-based). Reassignment replays
    /// the identical jobs, so results are unaffected.
    fn shard_reassigned(&self, shard: u32, worker: u32, attempt: u32) {
        let _ = (shard, worker, attempt);
    }

    /// The daemon coordinator relayed a worker-side event as it happened on
    /// the fleet. Operational telemetry only: the deterministic stream
    /// reports the same work at merge time, so implementations must *not*
    /// fold forwarded events into campaign-total counters (that would
    /// double-count) — use them for per-worker attribution and liveness.
    fn event_forwarded(&self, worker: u32, event: &ForwardedEvent) {
        let _ = (worker, event);
    }

    /// A telemetry flight recorder flushed `records` journal records to
    /// `path`. Emitted by the recorder itself (not the session), after the
    /// corresponding bytes reached the file.
    fn journal_flushed(&self, path: &Path, records: usize) {
        let _ = (path, records);
    }
}

/// Fans every event out to a list of observers, in order.
///
/// Sessions accept exactly one observer; campaigns that want both the
/// counting [`ProgressCollector`] and a telemetry recorder (or any other
/// combination) wrap them in a fanout:
///
/// ```
/// use std::sync::Arc;
/// use csnake_core::{CampaignObserver, FanoutObserver, ProgressCollector};
///
/// let progress = Arc::new(ProgressCollector::new());
/// let observer: Arc<dyn CampaignObserver> =
///     Arc::new(FanoutObserver::new(vec![progress.clone()]));
/// observer.budget_spent(1, 8);
/// assert_eq!(progress.snapshot().budget_spent, 1);
/// ```
#[derive(Default)]
pub struct FanoutObserver {
    sinks: Vec<std::sync::Arc<dyn CampaignObserver>>,
}

impl FanoutObserver {
    /// A fanout over `sinks`; events are delivered in vector order.
    pub fn new(sinks: Vec<std::sync::Arc<dyn CampaignObserver>>) -> Self {
        FanoutObserver { sinks }
    }

    /// Appends another sink.
    pub fn push(&mut self, sink: std::sync::Arc<dyn CampaignObserver>) {
        self.sinks.push(sink);
    }
}

macro_rules! fanout {
    ($self:ident . $method:ident ( $($arg:expr),* )) => {
        for sink in &$self.sinks {
            sink.$method($($arg),*);
        }
    };
}

impl CampaignObserver for FanoutObserver {
    fn stage_started(&self, stage: Stage) {
        fanout!(self.stage_started(stage));
    }
    fn stage_finished(&self, stage: Stage) {
        fanout!(self.stage_finished(stage));
    }
    fn phase_started(&self, phase: u8, planned: usize) {
        fanout!(self.phase_started(phase, planned));
    }
    fn phase_finished(&self, phase: u8, executed: usize) {
        fanout!(self.phase_finished(phase, executed));
    }
    fn experiment_completed(&self, outcome: &ExperimentOutcome) {
        fanout!(self.experiment_completed(outcome));
    }
    fn edge_emitted(&self, edge: &CausalEdge) {
        fanout!(self.edge_emitted(edge));
    }
    fn cycle_found(&self, cycle: &Cycle) {
        fanout!(self.cycle_found(cycle));
    }
    fn budget_spent(&self, spent: usize, total: usize) {
        fanout!(self.budget_spent(spent, total));
    }
    fn trace_cache(&self, hits: usize, misses: usize) {
        fanout!(self.trace_cache(hits, misses));
    }
    fn clustering(&self, stats: &ClusterStats) {
        fanout!(self.clustering(stats));
    }
    fn workload_summary(&self, summary: &WorkloadSummary) {
        fanout!(self.workload_summary(summary));
    }
    fn batch_retried(&self, batch: usize, failed_jobs: usize, attempt: u32, backoff_ms: u64) {
        fanout!(self.batch_retried(batch, failed_jobs, attempt, backoff_ms));
    }
    fn batch_failed(&self, batch: usize, fault: FaultId, test: TestId, phase: u8, reason: &str) {
        fanout!(self.batch_failed(batch, fault, test, phase, reason));
    }
    fn checkpoint_written(&self, path: &Path, phase: u8, executed_in_phase: usize) {
        fanout!(self.checkpoint_written(path, phase, executed_in_phase));
    }
    fn degraded(&self, missing: &[(FaultId, TestId, u8)]) {
        fanout!(self.degraded(missing));
    }
    fn worker_connected(&self, worker: u32) {
        fanout!(self.worker_connected(worker));
    }
    fn worker_lost(&self, worker: u32, reason: &str) {
        fanout!(self.worker_lost(worker, reason));
    }
    fn shard_assigned(&self, shard: u32, worker: u32, jobs: usize) {
        fanout!(self.shard_assigned(shard, worker, jobs));
    }
    fn shard_reassigned(&self, shard: u32, worker: u32, attempt: u32) {
        fanout!(self.shard_reassigned(shard, worker, attempt));
    }
    fn event_forwarded(&self, worker: u32, event: &ForwardedEvent) {
        fanout!(self.event_forwarded(worker, event));
    }
    fn journal_flushed(&self, path: &Path, records: usize) {
        fanout!(self.journal_flushed(path, records));
    }
}

/// The default observer: ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl CampaignObserver for NoopObserver {}

/// Monotonic counters of campaign progress, filled in by a
/// [`ProgressCollector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Stages finished so far.
    pub stages_finished: usize,
    /// Allocation phases finished so far.
    pub phases_finished: usize,
    /// Experiments completed.
    pub experiments: usize,
    /// Causal edges accepted into the database.
    pub edges: usize,
    /// Cycles reported by the stitcher.
    pub cycles: usize,
    /// Budget spent (last seen value).
    pub budget_spent: usize,
    /// Total budget (last seen value).
    pub budget_total: usize,
    /// Injection-run cache hits (last seen value).
    pub trace_cache_hits: usize,
    /// Injection-run cache misses (last seen value).
    pub trace_cache_misses: usize,
    /// Largest vector count any clustering run saw.
    pub clustering_peak_vectors: usize,
    /// Peak `8·n²` bytes a dense distance matrix would have needed
    /// (what the sparse formulation avoids allocating).
    pub clustering_peak_matrix_bytes: u64,
    /// Peak sparse-graph working-set bytes actually implied by the run
    /// counts (see [`crate::ClusterStats::sparse_graph_bytes`]).
    pub clustering_peak_sparse_bytes: u64,
    /// Open-loop workload summaries drained from the target.
    pub workload_summaries: usize,
    /// Requests those workload runs completed, in total.
    pub workload_completed: u64,
    /// Worst whole-run p99 latency any workload summary reported, µs.
    pub workload_peak_p99_us: u64,
    /// Workload runs whose windowed p99 showed an inflection
    /// ([`WorkloadSummary::p99_inflection_milli`]).
    pub workload_inflections: usize,
    /// Retry rounds the supervisor scheduled.
    pub batch_retries: usize,
    /// `(fault, test)` cells that exhausted retries and became gaps.
    pub batch_failures: usize,
    /// Mid-phase checkpoints written to disk.
    pub checkpoints_written: usize,
    /// Whether a degraded completion was reported.
    pub degraded: bool,
    /// Daemon workers that completed their handshake.
    pub workers_connected: usize,
    /// Daemon workers lost to lease expiry or dropped connections.
    pub workers_lost: usize,
    /// Shards the daemon coordinator assigned (first leases only).
    pub shards_assigned: usize,
    /// Shards moved off dead workers.
    pub shards_reassigned: usize,
    /// Worker-side events relayed live by the daemon coordinator.
    pub events_forwarded: usize,
    /// Telemetry journal flushes reported by a flight recorder.
    pub journal_flushes: usize,
}

/// Per-worker live state accumulated by a [`ProgressCollector`] from the
/// daemon lifecycle and [`ForwardedEvent`] streams. Operational telemetry
/// only — none of it feeds campaign results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerProgress {
    /// Whether the worker currently holds a live connection.
    pub connected: bool,
    /// Why the worker was lost, when it was (`None` while live).
    pub lost_reason: Option<String>,
    /// Shards ever leased to this worker (first leases + reassignments).
    pub shards_assigned: usize,
    /// The shard ordinal the worker was most recently leased.
    pub current_shard: Option<u32>,
    /// Experiments the worker has reported via forwarded events.
    pub experiments: usize,
    /// Causal edges the worker's experiments produced (pre-dedup).
    pub edges: usize,
    /// Retry rounds the worker's supervisor reported.
    pub retries: usize,
    /// Cells the worker abandoned as gaps.
    pub failures: usize,
    /// Last-seen injection-cache hit counter from the worker.
    pub cache_hits: usize,
    /// Last-seen injection-cache miss counter from the worker.
    pub cache_misses: usize,
}

/// The bundled metrics observer: counts events with atomics so a monitoring
/// thread can poll [`ProgressCollector::snapshot`] while the campaign runs.
#[derive(Debug, Default)]
pub struct ProgressCollector {
    stages_finished: AtomicUsize,
    phases_finished: AtomicUsize,
    experiments: AtomicUsize,
    edges: AtomicUsize,
    cycles: AtomicUsize,
    /// Budget `spent`/`total` packed into one word (`total` in the high 32
    /// bits, `spent` in the low 32) so a polling thread can never observe
    /// a torn pair — the two values always come from the same
    /// [`budget_spent`](CampaignObserver::budget_spent) event.
    budget: AtomicU64,
    trace_cache_hits: AtomicUsize,
    trace_cache_misses: AtomicUsize,
    clustering_peak_vectors: AtomicUsize,
    clustering_peak_matrix_bytes: AtomicU64,
    clustering_peak_sparse_bytes: AtomicU64,
    workload_summaries: AtomicUsize,
    workload_completed: AtomicU64,
    workload_peak_p99_us: AtomicU64,
    workload_inflections: AtomicUsize,
    batch_retries: AtomicUsize,
    batch_failures: AtomicUsize,
    checkpoints_written: AtomicUsize,
    degraded: std::sync::atomic::AtomicBool,
    workers_connected: AtomicUsize,
    workers_lost: AtomicUsize,
    shards_assigned: AtomicUsize,
    shards_reassigned: AtomicUsize,
    events_forwarded: AtomicUsize,
    journal_flushes: AtomicUsize,
    /// Per-worker attribution (forwarded events, lease state, loss
    /// reasons). A mutex, not atomics: observer calls may block briefly,
    /// they just must never perturb campaign results.
    workers: Mutex<BTreeMap<u32, WorkerProgress>>,
    /// Reason string of the most recent [`worker_lost`] event.
    ///
    /// [`worker_lost`]: CampaignObserver::worker_lost
    last_loss_reason: Mutex<Option<String>>,
}

/// Packs a budget pair into one `u64` word (`total` high, `spent` low).
fn pack_budget(spent: usize, total: usize) -> u64 {
    let spent = u64::try_from(spent)
        .unwrap_or(u64::MAX)
        .min(u32::MAX as u64);
    let total = u64::try_from(total)
        .unwrap_or(u64::MAX)
        .min(u32::MAX as u64);
    (total << 32) | spent
}

impl ProgressCollector {
    /// A fresh collector with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reason of the most recent [`worker_lost`](CampaignObserver::worker_lost)
    /// event, if any worker has been lost.
    pub fn last_loss_reason(&self) -> Option<String> {
        self.last_loss_reason
            .lock()
            .expect("loss reason poisoned")
            .clone()
    }

    /// Per-worker live state (sorted by worker id), accumulated from the
    /// daemon lifecycle events and forwarded worker events.
    pub fn worker_progress(&self) -> Vec<(u32, WorkerProgress)> {
        self.workers
            .lock()
            .expect("worker table poisoned")
            .iter()
            .map(|(&w, p)| (w, p.clone()))
            .collect()
    }

    fn with_worker(&self, worker: u32, f: impl FnOnce(&mut WorkerProgress)) {
        let mut table = self.workers.lock().expect("worker table poisoned");
        f(table.entry(worker).or_default());
    }

    /// Current counter values.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let budget = self.budget.load(Ordering::Relaxed);
        ProgressSnapshot {
            stages_finished: self.stages_finished.load(Ordering::Relaxed),
            phases_finished: self.phases_finished.load(Ordering::Relaxed),
            experiments: self.experiments.load(Ordering::Relaxed),
            edges: self.edges.load(Ordering::Relaxed),
            cycles: self.cycles.load(Ordering::Relaxed),
            budget_spent: (budget & u32::MAX as u64) as usize,
            budget_total: (budget >> 32) as usize,
            trace_cache_hits: self.trace_cache_hits.load(Ordering::Relaxed),
            trace_cache_misses: self.trace_cache_misses.load(Ordering::Relaxed),
            clustering_peak_vectors: self.clustering_peak_vectors.load(Ordering::Relaxed),
            clustering_peak_matrix_bytes: self.clustering_peak_matrix_bytes.load(Ordering::Relaxed),
            clustering_peak_sparse_bytes: self.clustering_peak_sparse_bytes.load(Ordering::Relaxed),
            workload_summaries: self.workload_summaries.load(Ordering::Relaxed),
            workload_completed: self.workload_completed.load(Ordering::Relaxed),
            workload_peak_p99_us: self.workload_peak_p99_us.load(Ordering::Relaxed),
            workload_inflections: self.workload_inflections.load(Ordering::Relaxed),
            batch_retries: self.batch_retries.load(Ordering::Relaxed),
            batch_failures: self.batch_failures.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            workers_connected: self.workers_connected.load(Ordering::Relaxed),
            workers_lost: self.workers_lost.load(Ordering::Relaxed),
            shards_assigned: self.shards_assigned.load(Ordering::Relaxed),
            shards_reassigned: self.shards_reassigned.load(Ordering::Relaxed),
            events_forwarded: self.events_forwarded.load(Ordering::Relaxed),
            journal_flushes: self.journal_flushes.load(Ordering::Relaxed),
        }
    }
}

impl CampaignObserver for ProgressCollector {
    fn stage_finished(&self, _stage: Stage) {
        self.stages_finished.fetch_add(1, Ordering::Relaxed);
    }

    fn phase_finished(&self, _phase: u8, _executed: usize) {
        self.phases_finished.fetch_add(1, Ordering::Relaxed);
    }

    fn experiment_completed(&self, _outcome: &ExperimentOutcome) {
        self.experiments.fetch_add(1, Ordering::Relaxed);
    }

    fn edge_emitted(&self, _edge: &CausalEdge) {
        self.edges.fetch_add(1, Ordering::Relaxed);
    }

    fn cycle_found(&self, _cycle: &Cycle) {
        self.cycles.fetch_add(1, Ordering::Relaxed);
    }

    fn budget_spent(&self, spent: usize, total: usize) {
        // One store for the pair: a concurrent snapshot() sees either the
        // previous pair or this one, never a spent/total mix of the two.
        self.budget
            .store(pack_budget(spent, total), Ordering::Relaxed);
    }

    fn trace_cache(&self, hits: usize, misses: usize) {
        self.trace_cache_hits.store(hits, Ordering::Relaxed);
        self.trace_cache_misses.store(misses, Ordering::Relaxed);
    }

    fn clustering(&self, stats: &ClusterStats) {
        self.clustering_peak_vectors
            .fetch_max(stats.vectors, Ordering::Relaxed);
        self.clustering_peak_matrix_bytes
            .fetch_max(stats.matrix_bytes, Ordering::Relaxed);
        self.clustering_peak_sparse_bytes
            .fetch_max(stats.sparse_graph_bytes, Ordering::Relaxed);
    }

    fn workload_summary(&self, summary: &WorkloadSummary) {
        self.workload_summaries.fetch_add(1, Ordering::Relaxed);
        self.workload_completed
            .fetch_add(summary.completed, Ordering::Relaxed);
        self.workload_peak_p99_us
            .fetch_max(summary.p99_us, Ordering::Relaxed);
        if summary.p99_inflection_milli().is_some() {
            self.workload_inflections.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn batch_retried(&self, _batch: usize, _failed_jobs: usize, _attempt: u32, _backoff_ms: u64) {
        self.batch_retries.fetch_add(1, Ordering::Relaxed);
    }

    fn batch_failed(&self, _batch: usize, _f: FaultId, _t: TestId, _phase: u8, _reason: &str) {
        self.batch_failures.fetch_add(1, Ordering::Relaxed);
    }

    fn checkpoint_written(&self, _path: &Path, _phase: u8, _executed_in_phase: usize) {
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
    }

    fn degraded(&self, _missing: &[(FaultId, TestId, u8)]) {
        self.degraded.store(true, Ordering::Relaxed);
    }

    fn worker_connected(&self, worker: u32) {
        self.workers_connected.fetch_add(1, Ordering::Relaxed);
        self.with_worker(worker, |p| {
            p.connected = true;
            p.lost_reason = None;
        });
    }

    fn worker_lost(&self, worker: u32, reason: &str) {
        self.workers_lost.fetch_add(1, Ordering::Relaxed);
        *self.last_loss_reason.lock().expect("loss reason poisoned") = Some(reason.to_string());
        self.with_worker(worker, |p| {
            p.connected = false;
            p.lost_reason = Some(reason.to_string());
            p.current_shard = None;
        });
    }

    fn shard_assigned(&self, shard: u32, worker: u32, _jobs: usize) {
        self.shards_assigned.fetch_add(1, Ordering::Relaxed);
        self.with_worker(worker, |p| {
            p.shards_assigned += 1;
            p.current_shard = Some(shard);
        });
    }

    fn shard_reassigned(&self, shard: u32, worker: u32, _attempt: u32) {
        self.shards_reassigned.fetch_add(1, Ordering::Relaxed);
        self.with_worker(worker, |p| {
            p.shards_assigned += 1;
            p.current_shard = Some(shard);
        });
    }

    fn event_forwarded(&self, worker: u32, event: &ForwardedEvent) {
        self.events_forwarded.fetch_add(1, Ordering::Relaxed);
        self.with_worker(worker, |p| match event {
            ForwardedEvent::ExperimentCompleted { edges, .. } => {
                p.experiments += 1;
                p.edges += edges;
            }
            ForwardedEvent::BatchRetried { .. } => p.retries += 1,
            ForwardedEvent::BatchFailed { .. } => p.failures += 1,
            ForwardedEvent::TraceCache { hits, misses } => {
                p.cache_hits = *hits;
                p.cache_misses = *misses;
            }
        });
    }

    fn journal_flushed(&self, _path: &Path, _records: usize) {
        self.journal_flushes.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::{CausalEdge, CompatState, EdgeKind};

    fn edge() -> CausalEdge {
        CausalEdge {
            cause: FaultId(1),
            effect: FaultId(2),
            kind: EdgeKind::EI,
            test: TestId(0),
            phase: 1,
            cause_state: CompatState::empty(),
            effect_state: CompatState::empty(),
        }
    }

    #[test]
    fn noop_observer_accepts_everything() {
        let o = NoopObserver;
        o.stage_started(Stage::Built);
        o.stage_finished(Stage::Profiled);
        o.phase_started(1, 10);
        o.phase_finished(1, 10);
        o.edge_emitted(&edge());
        o.cycle_found(&Cycle {
            edges: vec![0],
            score: 0.5,
        });
        o.budget_spent(1, 4);
    }

    #[test]
    fn progress_collector_counts_events() {
        let c = ProgressCollector::new();
        c.stage_finished(Stage::Profiled);
        c.phase_finished(1, 3);
        c.phase_finished(2, 4);
        for _ in 0..5 {
            c.edge_emitted(&edge());
        }
        c.cycle_found(&Cycle {
            edges: vec![0],
            score: 0.5,
        });
        c.budget_spent(7, 24);
        let s = c.snapshot();
        assert_eq!(s.stages_finished, 1);
        assert_eq!(s.phases_finished, 2);
        assert_eq!(s.edges, 5);
        assert_eq!(s.cycles, 1);
        assert_eq!(s.budget_spent, 7);
        assert_eq!(s.budget_total, 24);
    }

    #[test]
    fn progress_collector_counts_supervisor_events() {
        let c = ProgressCollector::new();
        c.batch_retried(0, 3, 1, 10);
        c.batch_retried(0, 1, 2, 20);
        c.batch_failed(0, FaultId(1), TestId(2), 3, "chaos: boom");
        c.checkpoint_written(Path::new("/tmp/c.csnake"), 2, 8);
        let s = c.snapshot();
        assert_eq!(s.batch_retries, 2);
        assert_eq!(s.batch_failures, 1);
        assert_eq!(s.checkpoints_written, 1);
        assert!(!s.degraded);
        c.degraded(&[(FaultId(1), TestId(2), 3)]);
        assert!(c.snapshot().degraded);
    }

    #[test]
    fn progress_collector_counts_daemon_events() {
        let c = ProgressCollector::new();
        c.worker_connected(0);
        c.worker_connected(1);
        c.shard_assigned(0, 0, 12);
        c.shard_assigned(1, 1, 12);
        c.shard_assigned(2, 0, 11);
        c.worker_lost(1, "lease expired");
        c.shard_reassigned(1, 0, 1);
        let s = c.snapshot();
        assert_eq!(s.workers_connected, 2);
        assert_eq!(s.workers_lost, 1);
        assert_eq!(s.shards_assigned, 3);
        assert_eq!(s.shards_reassigned, 1);

        // Loss reasons survive as more than a counter.
        assert_eq!(c.last_loss_reason().as_deref(), Some("lease expired"));
        let workers = c.worker_progress();
        let w1 = &workers.iter().find(|(w, _)| *w == 1).expect("worker 1").1;
        assert!(!w1.connected);
        assert_eq!(w1.lost_reason.as_deref(), Some("lease expired"));
        let w0 = &workers.iter().find(|(w, _)| *w == 0).expect("worker 0").1;
        assert!(w0.connected);
        assert_eq!(w0.shards_assigned, 3); // two leases + one reassignment
        assert_eq!(w0.current_shard, Some(1));
    }

    #[test]
    fn budget_pair_is_never_torn() {
        // The packed store means a snapshot between two budget events sees
        // a consistent (spent, total) pair even under a concurrent writer.
        let c = std::sync::Arc::new(ProgressCollector::new());
        c.budget_spent(0, 7);
        let writer = {
            let c = c.clone();
            std::thread::spawn(move || {
                for spent in 0..=1000usize {
                    // Total moves with spent so a torn read is detectable.
                    c.budget_spent(spent, spent + 7);
                }
            })
        };
        for _ in 0..1000 {
            let s = c.snapshot();
            assert_eq!(
                s.budget_total,
                s.budget_spent + 7,
                "snapshot observed a torn budget pair"
            );
        }
        writer.join().expect("writer thread");
    }

    #[test]
    fn forwarded_events_attribute_per_worker_without_touching_totals() {
        let c = ProgressCollector::new();
        c.event_forwarded(
            2,
            &ForwardedEvent::ExperimentCompleted {
                fault: FaultId(1),
                test: TestId(0),
                edges: 3,
            },
        );
        c.event_forwarded(
            2,
            &ForwardedEvent::BatchRetried {
                failed_jobs: 1,
                attempt: 1,
                backoff_ms: 5,
            },
        );
        c.event_forwarded(2, &ForwardedEvent::TraceCache { hits: 4, misses: 9 });
        let s = c.snapshot();
        // The deterministic campaign totals stay untouched: forwarding is
        // attribution, not accounting.
        assert_eq!(s.experiments, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.batch_retries, 0);
        assert_eq!(s.trace_cache_hits, 0);
        assert_eq!(s.events_forwarded, 3);
        let workers = c.worker_progress();
        let w2 = &workers.iter().find(|(w, _)| *w == 2).expect("worker 2").1;
        assert_eq!(w2.experiments, 1);
        assert_eq!(w2.edges, 3);
        assert_eq!(w2.retries, 1);
        assert_eq!((w2.cache_hits, w2.cache_misses), (4, 9));
    }

    #[test]
    fn fanout_delivers_every_event_to_every_sink() {
        let a = std::sync::Arc::new(ProgressCollector::new());
        let b = std::sync::Arc::new(ProgressCollector::new());
        let fan = FanoutObserver::new(vec![a.clone(), b.clone()]);
        fan.stage_finished(Stage::Profiled);
        fan.edge_emitted(&edge());
        fan.budget_spent(3, 9);
        fan.worker_lost(0, "gone");
        fan.journal_flushed(Path::new("/tmp/j.jsonl"), 12);
        for c in [&a, &b] {
            let s = c.snapshot();
            assert_eq!(s.stages_finished, 1);
            assert_eq!(s.edges, 1);
            assert_eq!((s.budget_spent, s.budget_total), (3, 9));
            assert_eq!(s.workers_lost, 1);
            assert_eq!(s.journal_flushes, 1);
        }
    }

    #[test]
    fn progress_collector_tracks_workload_summaries() {
        use crate::workload::{WorkloadSummary, WorkloadWindow};
        let window = |start_ms, p99_us| WorkloadWindow {
            start_ms,
            completed: 10,
            p50_us: p99_us / 2,
            p99_us,
        };
        let c = ProgressCollector::new();
        c.workload_summary(&WorkloadSummary {
            test: TestId(0),
            seed: 1,
            offered: 50,
            completed: 40,
            dropped: 10,
            p50_us: 100,
            p90_us: 200,
            p99_us: 9_000,
            max_us: 12_000,
            windows: vec![window(0, 150), window(100, 9_000)],
        });
        c.workload_summary(&WorkloadSummary {
            test: TestId(1),
            seed: 2,
            offered: 20,
            completed: 20,
            dropped: 0,
            p50_us: 90,
            p90_us: 120,
            p99_us: 140,
            max_us: 150,
            windows: vec![window(0, 130), window(100, 140)],
        });
        let s = c.snapshot();
        assert_eq!(s.workload_summaries, 2);
        assert_eq!(s.workload_completed, 60);
        assert_eq!(s.workload_peak_p99_us, 9_000);
        assert_eq!(s.workload_inflections, 1);
    }

    #[test]
    fn progress_collector_tracks_clustering_peaks() {
        let c = ProgressCollector::new();
        c.clustering(&ClusterStats {
            vectors: 100,
            matrix_bytes: 80_000,
            sparse_graph_bytes: 5_000,
            ..ClusterStats::default()
        });
        // A smaller later run must not lower the peaks.
        c.clustering(&ClusterStats {
            vectors: 10,
            matrix_bytes: 800,
            sparse_graph_bytes: 50,
            ..ClusterStats::default()
        });
        let s = c.snapshot();
        assert_eq!(s.clustering_peak_vectors, 100);
        assert_eq!(s.clustering_peak_matrix_bytes, 80_000);
        assert_eq!(s.clustering_peak_sparse_bytes, 5_000);
    }
}
