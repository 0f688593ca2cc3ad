//! In-memory span recorder and the arithmetic the per-layer table rests on.
//!
//! A span is a named wall-clock interval with the span that caused it as
//! parent. The wrappers open spans at layer boundaries while tracing is on;
//! spans stay in memory and are written out when the run ends. Counters
//! (runs, events, hooks, frames) are kept at the same boundaries and are
//! always on, because `runs_per_s` is an end-to-end metric.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sentinel for "no ambient parent".
const NO_SPAN: usize = usize::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Small per-thread id, in order of first use.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Counters recorded at layer boundaries whether or not tracing is on.
#[derive(Default)]
pub struct Counters {
    /// Simulated target runs completed.
    pub runs: AtomicU64,
    /// Simulator events executed by those runs.
    pub events: AtomicU64,
    /// Agent hook calls made by those runs.
    pub hooks: AtomicU64,
    /// Open-loop requests offered by drained workload summaries.
    pub requests: AtomicU64,
    /// Workload summaries that broke an accounting invariant.
    pub summary_violations: AtomicU64,
    /// Wire frames sent or received.
    pub frames: AtomicU64,
    /// Encoded wire bytes sent.
    pub wire_bytes: AtomicU64,
}

impl Counters {
    /// Adds `n` to one counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads one counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: RefCell<Option<u32>> = const { RefCell::new(None) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn thread_id() -> u32 {
    THREAD_ID.with(|t| {
        *t.borrow_mut()
            .get_or_insert_with(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed) as u32)
    })
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Parent for spans opened on threads with no open span of their own:
    /// the engine wrapper sets it to its batch span so that runs on the
    /// driver's pool threads attach to the batch that caused them.
    ambient: AtomicUsize,
    /// Counters, always on.
    pub counters: Counters,
}

impl Tracer {
    /// A tracer; `enabled` decides whether spans are recorded.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            ambient: AtomicUsize::new(NO_SPAN),
            counters: Counters::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that closes when the guard drops. A no-op while
    /// tracing is off.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                idx: None,
            };
        }
        let parent = STACK.with(|s| s.borrow().last().copied()).or_else(|| {
            let a = self.ambient.load(Ordering::Relaxed);
            (a != NO_SPAN).then_some(a)
        });
        let start_ns = self.now_ns();
        let idx = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                thread: thread_id(),
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(idx));
        SpanGuard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Makes the guard's span the parent of spans opened on threads that
    /// have none open, until the returned scope drops.
    pub fn ambient<'a>(&'a self, guard: &SpanGuard<'_>) -> AmbientScope<'a> {
        let prev = self
            .ambient
            .swap(guard.idx.unwrap_or(NO_SPAN), Ordering::Relaxed);
        AmbientScope { tracer: self, prev }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.now_ns();
            if let Ok(mut spans) = self.tracer.spans.lock() {
                if let Some(s) = spans.get_mut(idx) {
                    s.end_ns = end;
                }
            }
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.last() == Some(&idx) {
                    s.pop();
                }
            });
        }
    }
}

/// Restores the previous ambient parent on drop.
pub struct AmbientScope<'a> {
    tracer: &'a Tracer,
    prev: usize,
}

impl Drop for AmbientScope<'_> {
    fn drop(&mut self) {
        self.tracer.ambient.store(self.prev, Ordering::Relaxed);
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children on other threads included, their
/// overlap counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = children.get_mut(p) {
                c.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, c)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, c))
        .collect()
}

/// The highest percentile with at least ten samples beyond it: with `n`
/// sorted samples, the sample at index `n − 11`, which has exactly ten
/// samples above it. Returns `(percentile, value)`; `None` below eleven
/// samples.
pub fn tail_with_ten_beyond(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 11 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let pct = 100.0 * (n - 10) as f64 / n as f64;
    Some((pct, sorted[n - 11]))
}

/// Median (mean of the middle two for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..30 and 20..50 overlap (40 covered),
        // 90..120 sticks out past the parent's end (10 covered).
        let spans = vec![
            span("batch", 0, 100, None),
            span("run", 10, 30, Some(0)),
            span("run", 20, 50, Some(0)),
            span("run", 90, 120, Some(0)),
            span("fca", 60, 70, Some(1)),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[0], 100 - 40 - 10);
        // A grandchild counts against its own parent only.
        assert_eq!(st[1], 20);
        assert_eq!(st[4], 10);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let spans = vec![span("leaf", 5, 17, None)];
        assert_eq!(self_times_ns(&spans), vec![12]);
    }

    #[test]
    fn covered_clips_and_merges() {
        let mut iv = vec![(0, 10), (5, 15), (20, 25), (30, 40)];
        assert_eq!(covered_ns(8, 35, &mut iv), 7 + 5 + 5);
        assert_eq!(covered_ns(50, 60, &mut iv), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_with_ten_beyond(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_with_ten_beyond(&eleven), Some((100.0 / 11.0, 1.0)));
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_with_ten_beyond(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_with_ten_beyond(&thousand), Some((99.0, 990.0)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let off = Tracer::new(false);
        drop(off.span("x"));
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        {
            let outer = on.span("outer");
            let _amb = on.ambient(&outer);
            drop(on.span("inner"));
            std::thread::scope(|s| {
                s.spawn(|| drop(on.span("pooled")));
            });
        }
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0), "same-thread nesting");
        assert_eq!(spans[2].parent, Some(0), "ambient parent on another thread");
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }
}
