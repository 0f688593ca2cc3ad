//! The runtime injection and monitoring agent.
//!
//! One [`Agent`] drives one run of one workload. Target-system code calls the
//! agent's hooks inline (the reproduction's equivalent of Byteman-instrumented
//! bytecode). The agent is used through an `Rc` so that RAII guards —
//! [`FrameGuard`] for call-stack tracking and [`LoopGuard`] for loop
//! iteration tracking — can own a handle and unwind correctly when an
//! injected exception propagates out through `?`.
//!
//! # Recording layout
//!
//! Hooks run millions of times per campaign, so the frequent ones write
//! into dense per-run slots sized from the [`Registry`] when the agent is
//! built, never into ordered maps:
//!
//! * coverage is a `Vec<bool>`, iteration counts a `Vec<u64>` and loop
//!   compatibility states a `Vec<Option<LoopState>>`, each indexed by
//!   [`FaultId`];
//! * dynamic call edges are a bitset of `fn_count²` bits, bit
//!   `caller · fn_count + callee`;
//! * the branch traces of all live frames share one flat buffer, each
//!   frame remembering where its own trace starts; the current-iteration
//!   traces of all live loops share another.
//!
//! Hooks therefore panic on ids from another registry. Error occurrences,
//! the injected fault and flags are rare and go straight into the trace.
//! [`Agent::finish`] converts the slots once into the [`RunTrace`], whose
//! type and contents are the same as when every hook wrote into its maps
//! directly.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use csnake_sim::sim::Clock;
use csnake_sim::VirtualTime;

use crate::fault::{Fault, InjectAction, InjectionPlan};
use crate::registry::{BranchId, FaultId, FaultKind, FnId, Registry};
use crate::trace::{CallStack2, LoopState, Occurrence, RunTrace};

struct LoopActivation {
    id: FaultId,
    /// Start of the current iteration's trace in `iter_branches`.
    start: usize,
    /// Whether `iter()` has been called at least once in this activation.
    started: bool,
    /// Call-stack depth at entry; used to decide whether a fault site is
    /// *syntactically* enclosed by this loop (same function).
    depth: usize,
}

struct Inner {
    plan: Option<InjectionPlan>,
    /// One-shot throw/negate still pending.
    armed: bool,
    tracing: bool,
    /// Live frames, each with the start of its trace in `branches`.
    stack: Vec<(FnId, usize)>,
    branches: Vec<(BranchId, bool)>,
    loop_stack: Vec<LoopActivation>,
    iter_branches: Vec<(BranchId, bool)>,
    /// Reached fault points, by [`FaultId`].
    coverage: Vec<bool>,
    /// Iteration counts, by loop [`FaultId`].
    loop_counts: Vec<u64>,
    /// Compatibility states, by loop [`FaultId`].
    loop_states: Vec<Option<LoopState>>,
    /// Call-edge bitset, bit `caller · fn_count + callee`.
    call_edges: Vec<u64>,
    /// Occurrences, the injected fault, flags and the hook count.
    trace: RunTrace,
}

/// Runtime injection + monitoring agent for a single run.
///
/// # Examples
///
/// ```
/// use std::rc::Rc;
/// use std::sync::Arc;
/// use csnake_inject::{Agent, ExceptionCategory, InjectionPlan, RegistryBuilder};
///
/// let mut b = RegistryBuilder::new("demo");
/// let f = b.func("Server.handle");
/// let tp = b.throw_point(f, 3, "IOException", ExceptionCategory::SystemSpecific, "ioe");
/// let reg = Arc::new(b.build());
///
/// let agent = Rc::new(Agent::new(reg, Some(InjectionPlan::throw(tp))));
/// let _frame = agent.frame(f);
/// let fault = agent.throw_guard(tp).expect("armed plan fires");
/// assert!(fault.injected);
/// assert!(agent.throw_guard(tp).is_none(), "one-shot");
/// ```
pub struct Agent {
    registry: Arc<Registry>,
    inner: RefCell<Inner>,
}

impl Agent {
    /// Creates an agent, optionally with an injection plan.
    pub fn new(registry: Arc<Registry>, plan: Option<InjectionPlan>) -> Self {
        let points = registry.points().len();
        let fn_count = registry.fn_count();
        Agent {
            inner: RefCell::new(Inner {
                plan,
                armed: plan.is_some(),
                tracing: true,
                stack: Vec::with_capacity(16),
                branches: Vec::with_capacity(64),
                loop_stack: Vec::with_capacity(8),
                iter_branches: Vec::with_capacity(64),
                coverage: vec![false; points],
                loop_counts: vec![0; points],
                loop_states: vec![None; points],
                call_edges: vec![0; (fn_count * fn_count).div_ceil(64)],
                trace: RunTrace::default(),
            }),
            registry,
        }
    }

    /// The registry this agent instruments.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Enables/disables monitoring (used by the §8.5 overhead benchmark;
    /// injection still works either way).
    pub fn set_tracing(&self, on: bool) {
        self.inner.borrow_mut().tracing = on;
    }

    /// Closest two call-stack levels above the current (top) frame.
    fn stack2(inner: &Inner) -> CallStack2 {
        let mut callers = inner.stack.iter().rev().skip(1).map(|&(f, _)| f);
        [callers.next(), callers.next()]
    }

    /// Local-compatibility state at a fault site: the branch trace of the
    /// enclosing loop iteration (if the innermost active loop lives in the
    /// current function) or of the enclosing function, plus the 2-level
    /// call stack (§6.2).
    fn occurrence_state(inner: &Inner) -> Occurrence {
        let stack = Self::stack2(inner);
        let local = match (inner.loop_stack.last(), inner.stack.last()) {
            (Some(l), _) if l.depth == inner.stack.len() => inner.iter_branches[l.start..].to_vec(),
            (_, Some(&(_, at))) => inner.branches[at..].to_vec(),
            _ => Vec::new(),
        };
        Occurrence::new(stack, local)
    }

    /// Pushes a call frame; returns a guard that pops it on drop.
    ///
    /// Also records a dynamic call-graph edge (§B.1).
    ///
    /// # Panics
    ///
    /// Panics if `f` does not belong to the registry.
    pub fn frame(self: &Rc<Self>, f: FnId) -> FrameGuard {
        {
            let mut inner = self.inner.borrow_mut();
            let n = self.registry.fn_count();
            assert!((f.0 as usize) < n, "frame called with a foreign FnId");
            inner.trace.hook_count += 1;
            if inner.tracing {
                if let Some(&(caller, _)) = inner.stack.last() {
                    let bit = caller.0 as usize * n + f.0 as usize;
                    inner.call_edges[bit / 64] |= 1 << (bit % 64);
                }
            }
            let start = inner.branches.len();
            inner.stack.push((f, start));
        }
        FrameGuard {
            agent: Rc::clone(self),
        }
    }

    /// Records a branch evaluation; returns `outcome` so it can be used
    /// inline: `if agent.branch(B1, x > 0) { ... }`.
    pub fn branch(&self, b: BranchId, outcome: bool) -> bool {
        let mut inner = self.inner.borrow_mut();
        inner.trace.hook_count += 1;
        if inner.tracing {
            if !inner.stack.is_empty() {
                inner.branches.push((b, outcome));
            }
            if !inner.loop_stack.is_empty() {
                inner.iter_branches.push((b, outcome));
            }
        }
        outcome
    }

    fn record_occurrence(inner: &mut Inner, p: FaultId) -> Occurrence {
        let occ = Self::occurrence_state(inner);
        if inner.tracing {
            inner
                .trace
                .occurrences
                .entry(p)
                .or_default()
                .push(occ.clone());
        }
        occ
    }

    /// Hook at an exception guard (if-statement or library call site).
    ///
    /// Returns `Some(fault)` when the injection plan targets this point and
    /// is still armed — the caller must propagate the fault exactly as it
    /// would its natural exception.
    pub fn throw_guard(&self, p: FaultId) -> Option<Fault> {
        let mut inner = self.inner.borrow_mut();
        inner.trace.hook_count += 1;
        inner.coverage[p.0 as usize] = true;
        let fire = matches!(
            inner.plan,
            Some(InjectionPlan {
                target,
                action: InjectAction::Throw
            }) if target == p
        ) && inner.armed;
        if !fire {
            return None;
        }
        inner.armed = false;
        let occ = Self::record_occurrence(&mut inner, p);
        inner.trace.injected = Some((p, occ));
        let class = self
            .registry
            .point(p)
            .exception
            .as_ref()
            .map(|e| e.class)
            .unwrap_or("InjectedException");
        Some(Fault {
            point: p,
            exception: class,
            injected: true,
        })
    }

    /// Hook on the natural throw path: the guard condition was true and the
    /// system is about to raise its own exception.
    pub fn throw_fired(&self, p: FaultId) -> Fault {
        let mut inner = self.inner.borrow_mut();
        inner.trace.hook_count += 1;
        inner.coverage[p.0 as usize] = true;
        Self::record_occurrence(&mut inner, p);
        let class = self
            .registry
            .point(p)
            .exception
            .as_ref()
            .map(|e| e.class)
            .unwrap_or("Exception");
        Fault {
            point: p,
            exception: class,
            injected: false,
        }
    }

    /// Hook wrapping the return value of a boolean error detector.
    ///
    /// Returns the (possibly negated) value the caller must use. An error
    /// occurrence is recorded when the produced value signals "error" per the
    /// point's [`crate::registry::NegationMeta::error_when`] polarity, or
    /// when the negation injection fired.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a negation point.
    pub fn negation_point(&self, p: FaultId, value: bool) -> bool {
        let meta = *self
            .registry
            .point(p)
            .negation
            .as_ref()
            .expect("negation_point called on non-negation fault point");
        let mut inner = self.inner.borrow_mut();
        inner.trace.hook_count += 1;
        inner.coverage[p.0 as usize] = true;
        let fire = matches!(
            inner.plan,
            Some(InjectionPlan {
                target,
                action: InjectAction::Negate
            }) if target == p
        ) && inner.armed;
        let out = if fire { !value } else { value };
        if fire {
            inner.armed = false;
            let occ = Self::record_occurrence(&mut inner, p);
            inner.trace.injected = Some((p, occ));
        } else if out == meta.error_when {
            Self::record_occurrence(&mut inner, p);
        }
        out
    }

    /// Enters a loop; returns a guard whose [`LoopGuard::iter`] must be
    /// called at the head of every iteration.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a loop point.
    pub fn loop_enter(self: &Rc<Self>, p: FaultId) -> LoopGuard {
        assert_eq!(
            self.registry.point(p).kind,
            FaultKind::LoopPoint,
            "loop_enter called on non-loop fault point"
        );
        {
            let mut inner = self.inner.borrow_mut();
            inner.trace.hook_count += 1;
            inner.coverage[p.0 as usize] = true;
            let stack = Self::stack2(&inner);
            let depth = inner.stack.len();
            if inner.tracing {
                inner.loop_states[p.0 as usize]
                    .get_or_insert_default()
                    .entry_stacks
                    .insert(stack);
            }
            let start = inner.iter_branches.len();
            inner.loop_stack.push(LoopActivation {
                id: p,
                start,
                started: false,
                depth,
            });
        }
        LoopGuard {
            agent: Rc::clone(self),
            id: p,
        }
    }

    fn finalize_iteration(inner: &mut Inner) {
        let Some(&LoopActivation {
            id,
            start,
            started: true,
            ..
        }) = inner.loop_stack.last()
        else {
            return;
        };
        let sig = crate::trace::fnv1a(
            inner.iter_branches[start..]
                .iter()
                .map(|(b, o)| ((b.0 as u64) << 1) | (*o as u64)),
        );
        inner.iter_branches.truncate(start);
        if inner.tracing {
            inner.loop_states[id.0 as usize]
                .get_or_insert_default()
                .iter_sigs
                .insert(sig);
        }
    }

    fn loop_iter(&self, id: FaultId, clock: &mut dyn Clock) {
        let mut inner = self.inner.borrow_mut();
        inner.trace.hook_count += 1;
        debug_assert_eq!(
            inner.loop_stack.last().map(|l| l.id),
            Some(id),
            "LoopGuard::iter called out of LIFO order"
        );
        Self::finalize_iteration(&mut inner);
        if let Some(l) = inner.loop_stack.last_mut() {
            l.started = true;
        }
        inner.loop_counts[id.0 as usize] += 1;
        if let Some(InjectionPlan {
            target,
            action: InjectAction::Delay(d),
        }) = inner.plan
        {
            if target == id {
                clock.advance(d);
                if inner.trace.injected.is_none() {
                    let occ = Occurrence::new(Self::stack2(&inner), Vec::new());
                    inner.trace.injected = Some((id, occ));
                }
            }
        }
    }

    fn loop_exit(&self, id: FaultId) {
        let mut inner = self.inner.borrow_mut();
        Self::finalize_iteration(&mut inner);
        let popped = inner.loop_stack.pop();
        debug_assert_eq!(
            popped.as_ref().map(|l| l.id),
            Some(id),
            "LoopGuard dropped out of LIFO order"
        );
        inner.iter_branches.truncate(popped.map_or(0, |l| l.start));
    }

    fn frame_exit(&self) {
        let mut inner = self.inner.borrow_mut();
        let start = inner.stack.pop().map_or(0, |(_, at)| at);
        inner.branches.truncate(start);
    }

    /// Raises a system-level failure flag (oracle for the black-box fuzzer).
    pub fn mark_flag(&self, flag: &str) {
        let flags = &mut self.inner.borrow_mut().trace.flags;
        if !flags.contains(flag) {
            flags.insert(flag.to_string());
        }
    }

    /// `true` if the plan's one-shot action already fired (or a delay plan
    /// applied at least once).
    pub fn injection_fired(&self) -> bool {
        self.inner.borrow().trace.injected.is_some()
    }

    /// Finalizes the run and extracts the trace, converting the dense
    /// slots into the trace's ordered maps and clearing them.
    pub fn finish(&self, end_time: VirtualTime, events: u64) -> RunTrace {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let mut t = std::mem::take(&mut inner.trace);
        t.coverage = take_slots(&mut inner.coverage)
            .filter_map(|(p, hit)| hit.then_some(p))
            .collect();
        t.loop_counts = take_slots(&mut inner.loop_counts)
            .filter(|&(_, n)| n > 0)
            .collect();
        t.loop_states = take_slots(&mut inner.loop_states)
            .filter_map(|(p, st)| Some((p, st?)))
            .collect();
        let (n, edges) = (self.registry.fn_count(), &inner.call_edges);
        t.call_edges = (0..n * n)
            .filter(|&bit| edges[bit / 64] >> (bit % 64) & 1 == 1)
            .map(|bit| (FnId((bit / n) as u32), FnId((bit % n) as u32)))
            .collect();
        inner.call_edges.fill(0);
        t.end_time = end_time;
        t.events = events;
        t
    }
}

/// Takes every slot's value out (leaving the default), with its id.
fn take_slots<T: Default>(slots: &mut [T]) -> impl Iterator<Item = (FaultId, T)> + '_ {
    slots
        .iter_mut()
        .enumerate()
        .map(|(i, s)| (FaultId(i as u32), std::mem::take(s)))
}

/// RAII call-frame guard; pops the agent's shadow stack on drop.
pub struct FrameGuard {
    agent: Rc<Agent>,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        self.agent.frame_exit();
    }
}

/// RAII loop guard; finalizes iteration signatures and pops the loop stack
/// on drop.
pub struct LoopGuard {
    agent: Rc<Agent>,
    id: FaultId,
}

impl LoopGuard {
    /// Marks the head of one loop iteration; applies delay injection.
    pub fn iter(&self, clock: &mut dyn Clock) {
        self.agent.loop_iter(self.id, clock);
    }
}

impl Drop for LoopGuard {
    fn drop(&mut self) {
        self.agent.loop_exit(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{BoolSource, ExceptionCategory, RegistryBuilder};

    struct TestClock(VirtualTime);
    impl Clock for TestClock {
        fn now(&self) -> VirtualTime {
            self.0
        }
        fn advance(&mut self, d: VirtualTime) {
            self.0 += d;
        }
    }

    struct Fixture {
        agent: Rc<Agent>,
        f_outer: FnId,
        f_inner: FnId,
        tp: FaultId,
        np: FaultId,
        lp: FaultId,
        br: BranchId,
    }

    fn fixture(plan: Option<InjectionPlan>) -> Fixture {
        let mut b = RegistryBuilder::new("t");
        let f_outer = b.func("Outer.run");
        let f_inner = b.func("Inner.step");
        let tp = b.throw_point(
            f_inner,
            5,
            "IOException",
            ExceptionCategory::SystemSpecific,
            "tp",
        );
        let np = b.negation_point(f_inner, 9, true, BoolSource::ErrorDetector, "np");
        let lp = b.workload_loop(f_outer, 2, false, "lp");
        let br = b.branch(f_inner, 4);
        let reg = Arc::new(b.build());
        Fixture {
            agent: Rc::new(Agent::new(reg, plan)),
            f_outer,
            f_inner,
            tp,
            np,
            lp,
            br,
        }
    }

    #[test]
    fn throw_guard_fires_once_then_stays_quiet() {
        let fx = fixture(Some(InjectionPlan::throw(fx_tp())));
        fn fx_tp() -> FaultId {
            FaultId(0)
        }
        let _f = fx.agent.frame(fx.f_inner);
        let fault = fx.agent.throw_guard(fx.tp).expect("fires");
        assert!(fault.injected);
        assert_eq!(fault.exception, "IOException");
        assert!(fx.agent.throw_guard(fx.tp).is_none());
        assert!(fx.agent.injection_fired());
    }

    #[test]
    fn throw_guard_ignores_other_points() {
        let fx = fixture(Some(InjectionPlan::throw(FaultId(1))));
        let _f = fx.agent.frame(fx.f_inner);
        assert!(fx.agent.throw_guard(fx.tp).is_none());
        assert!(!fx.agent.injection_fired());
    }

    #[test]
    fn natural_throw_recorded_with_stack() {
        let fx = fixture(None);
        let _o = fx.agent.frame(fx.f_outer);
        let _i = fx.agent.frame(fx.f_inner);
        let fault = fx.agent.throw_fired(fx.tp);
        assert!(!fault.injected);
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        let occ = &t.occurrences[&fx.tp][0];
        assert_eq!(occ.stack, [Some(fx.f_outer), None]);
    }

    #[test]
    fn negation_flips_once_and_records_error_occurrence() {
        let fx = fixture(Some(InjectionPlan::negate(FaultId(1))));
        let _f = fx.agent.frame(fx.f_inner);
        // error_when = true; healthy value = false. Injection flips to true.
        assert!(fx.agent.negation_point(fx.np, false));
        // One-shot: second call passes through.
        assert!(!fx.agent.negation_point(fx.np, false));
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert_eq!(t.occurrences[&fx.np].len(), 1);
        assert_eq!(t.injected.as_ref().unwrap().0, fx.np);
    }

    #[test]
    fn natural_detector_error_recorded_without_plan() {
        let fx = fixture(None);
        let _f = fx.agent.frame(fx.f_inner);
        assert!(fx.agent.negation_point(fx.np, true)); // true == error_when
        assert!(!fx.agent.negation_point(fx.np, false)); // healthy: no record
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert_eq!(t.occurrences[&fx.np].len(), 1);
        assert!(t.injected.is_none());
    }

    #[test]
    fn loop_counts_and_iteration_sigs() {
        let fx = fixture(None);
        let _o = fx.agent.frame(fx.f_outer);
        let mut clock = TestClock(VirtualTime::ZERO);
        {
            let lg = fx.agent.loop_enter(fx.lp);
            for i in 0..5 {
                lg.iter(&mut clock);
                // Branch outcome varies per iteration → ≥2 distinct sigs.
                let _f = fx.agent.frame(fx.f_inner);
                fx.agent.branch(fx.br, i % 2 == 0);
            }
        }
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert_eq!(t.loop_count(fx.lp), 5);
        let st = &t.loop_states[&fx.lp];
        assert_eq!(st.iter_sigs.len(), 2);
        assert!(st.entry_stacks.contains(&[None, None]));
        assert_eq!(clock.now(), VirtualTime::ZERO, "no delay without plan");
    }

    #[test]
    fn delay_plan_advances_clock_every_iteration() {
        let fx = fixture(Some(InjectionPlan::delay(
            FaultId(2),
            VirtualTime::from_millis(100),
        )));
        let _o = fx.agent.frame(fx.f_outer);
        let mut clock = TestClock(VirtualTime::ZERO);
        {
            let lg = fx.agent.loop_enter(fx.lp);
            for _ in 0..7 {
                lg.iter(&mut clock);
            }
        }
        assert_eq!(clock.now(), VirtualTime::from_millis(700));
        assert!(fx.agent.injection_fired());
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert_eq!(t.injected.as_ref().unwrap().0, fx.lp);
    }

    #[test]
    fn branch_trace_feeds_occurrence_state_in_loop() {
        // A fault inside a loop in the same function uses the current
        // iteration's branch buffer, not the whole frame history.
        let fx = fixture(None);
        let _o = fx.agent.frame(fx.f_outer);
        let br_outer = BranchId(0);
        let lg = fx.agent.loop_enter(fx.lp);
        lg.iter(&mut TestClock(VirtualTime::ZERO));
        fx.agent.branch(br_outer, true);
        lg.iter(&mut TestClock(VirtualTime::ZERO));
        fx.agent.branch(br_outer, false);
        // Fault in iteration 2: local trace must be just [(br, false)].
        let fault_occ = {
            // tp lives in f_inner, but for this test record at loop level via
            // a throw point declared in f_outer.
            let inner = Agent::occurrence_state(&fx.agent.inner.borrow());
            inner
        };
        assert_eq!(fault_occ.local_trace, vec![(br_outer, false)]);
        drop(lg);
    }

    #[test]
    fn call_edges_form_dynamic_call_graph() {
        let fx = fixture(None);
        {
            let _o = fx.agent.frame(fx.f_outer);
            let _i = fx.agent.frame(fx.f_inner);
        }
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert!(t.call_edges.contains(&(fx.f_outer, fx.f_inner)));
        assert_eq!(t.call_edges.len(), 1);
    }

    #[test]
    fn loop_entered_but_never_iterated_has_state_but_no_count() {
        let fx = fixture(None);
        let _o = fx.agent.frame(fx.f_outer);
        drop(fx.agent.loop_enter(fx.lp));
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert!(t.coverage.contains(&fx.lp));
        assert!(!t.loop_counts.contains_key(&fx.lp));
        let st = &t.loop_states[&fx.lp];
        assert!(st.entry_stacks.contains(&[None, None]));
        assert!(st.iter_sigs.is_empty());
    }

    #[test]
    fn call_edges_at_the_highest_fn_id_land_correctly() {
        // 9 functions: the 81-bit set spans two words and the edge between
        // the highest ids is its very last bit.
        let mut b = RegistryBuilder::new("wide");
        let fs: Vec<FnId> = ["A", "B", "C", "D", "E", "F", "G", "H", "I"]
            .into_iter()
            .map(|n| b.func(n))
            .collect();
        let (first, last) = (fs[0], fs[8]);
        let agent = Rc::new(Agent::new(Arc::new(b.build()), None));
        {
            let _a = agent.frame(last);
            let _b = agent.frame(last);
            let _c = agent.frame(first);
            let _d = agent.frame(last);
        }
        let t = agent.finish(VirtualTime::ZERO, 0);
        let edges: Vec<_> = t.call_edges.into_iter().collect();
        assert_eq!(edges, vec![(first, last), (last, first), (last, last)]);
    }

    #[test]
    fn coverage_tracks_reached_points_only() {
        let fx = fixture(None);
        let _f = fx.agent.frame(fx.f_inner);
        let _ = fx.agent.throw_guard(fx.tp);
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert!(t.coverage.contains(&fx.tp));
        assert!(!t.coverage.contains(&fx.np));
        assert!(!t.occurred(fx.tp), "guard reach is not an occurrence");
    }

    #[test]
    fn tracing_off_still_injects_but_skips_recording() {
        let fx = fixture(Some(InjectionPlan::throw(FaultId(0))));
        fx.agent.set_tracing(false);
        let _f = fx.agent.frame(fx.f_inner);
        fx.agent.branch(fx.br, true);
        assert!(fx.agent.throw_guard(fx.tp).is_some());
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert!(!t.occurrences.contains_key(&fx.tp));
        assert!(t.call_edges.is_empty());
        assert!(t.hook_count > 0);
    }

    #[test]
    fn nested_loops_track_independently() {
        let fx = fixture(None);
        let mut b = RegistryBuilder::new("t2");
        let f = b.func("X.f");
        let outer_lp = b.workload_loop(f, 1, false, "outer");
        let inner_lp = b.workload_loop(f, 2, false, "inner");
        let reg = Arc::new(b.build());
        let agent = Rc::new(Agent::new(reg, None));
        let mut clock = TestClock(VirtualTime::ZERO);
        let _frame = agent.frame(f);
        {
            let lo = agent.loop_enter(outer_lp);
            for _ in 0..3 {
                lo.iter(&mut clock);
                let li = agent.loop_enter(inner_lp);
                for _ in 0..4 {
                    li.iter(&mut clock);
                }
            }
        }
        let t = agent.finish(VirtualTime::ZERO, 0);
        assert_eq!(t.loop_count(outer_lp), 3);
        assert_eq!(t.loop_count(inner_lp), 12);
        drop(fx);
    }
}
