//! Dense agent recording ≡ ordered-map recording.
//!
//! The agent records its hot hooks into dense per-run slots and converts
//! them into a [`RunTrace`] once, at `finish`. These tests drive random hook
//! programs — nested frames, branches, nested loops with iterations,
//! throw/negate/delay plans, flags — through the real [`Agent`] and through
//! `MapModel`, a test-local model that records every hook straight into the
//! trace's ordered maps, and assert every hook result, the clock and every
//! trace field are equal, with tracing on and off.

use std::rc::Rc;
use std::sync::Arc;

use proptest::collection;
use proptest::prelude::*;

use csnake_inject::{
    fnv1a, Agent, BoolSource, BranchId, ExceptionCategory, Fault, FaultId, FnId, FrameGuard,
    InjectAction, InjectionPlan, LoopGuard, Occurrence, Registry, RegistryBuilder, RunTrace,
};
use csnake_sim::{Clock, VirtualTime};

struct TestClock(VirtualTime);

impl Clock for TestClock {
    fn now(&self) -> VirtualTime {
        self.0
    }
    fn advance(&mut self, d: VirtualTime) {
        self.0 += d;
    }
}

/// The ordered-map recording the dense slots replace: every hook updates
/// the trace's `BTreeMap`/`BTreeSet` fields directly.
struct MapModel {
    registry: Arc<Registry>,
    plan: Option<InjectionPlan>,
    armed: bool,
    tracing: bool,
    stack: Vec<FnId>,
    frame_traces: Vec<Vec<(BranchId, bool)>>,
    loop_stack: Vec<ModelLoop>,
    trace: RunTrace,
}

struct ModelLoop {
    id: FaultId,
    /// Branch events of the current iteration.
    buf: Vec<(BranchId, bool)>,
    started: bool,
    depth: usize,
}

impl MapModel {
    fn new(registry: Arc<Registry>, plan: Option<InjectionPlan>, tracing: bool) -> Self {
        MapModel {
            registry,
            plan,
            armed: plan.is_some(),
            tracing,
            stack: Vec::new(),
            frame_traces: Vec::new(),
            loop_stack: Vec::new(),
            trace: RunTrace::default(),
        }
    }

    fn stack2(&self) -> [Option<FnId>; 2] {
        let n = self.stack.len();
        [
            (n >= 2).then(|| self.stack[n - 2]),
            (n >= 3).then(|| self.stack[n - 3]),
        ]
    }

    fn occurrence_state(&self) -> Occurrence {
        let local = match self.loop_stack.last() {
            Some(l) if l.depth == self.stack.len() => l.buf.clone(),
            _ => self.frame_traces.last().cloned().unwrap_or_default(),
        };
        Occurrence::new(self.stack2(), local)
    }

    fn record_occurrence(&mut self, p: FaultId) -> Occurrence {
        let occ = self.occurrence_state();
        if self.tracing {
            self.trace
                .occurrences
                .entry(p)
                .or_default()
                .push(occ.clone());
        }
        occ
    }

    fn fires(&self, p: FaultId, action: InjectAction) -> bool {
        self.armed && self.plan == Some(InjectionPlan { target: p, action })
    }

    fn frame(&mut self, f: FnId) {
        self.trace.hook_count += 1;
        if self.tracing {
            if let Some(&caller) = self.stack.last() {
                self.trace.call_edges.insert((caller, f));
            }
        }
        self.stack.push(f);
        self.frame_traces.push(Vec::new());
    }

    fn frame_exit(&mut self) {
        self.stack.pop();
        self.frame_traces.pop();
    }

    fn branch(&mut self, b: BranchId, outcome: bool) -> bool {
        self.trace.hook_count += 1;
        if self.tracing {
            if let Some(buf) = self.frame_traces.last_mut() {
                buf.push((b, outcome));
            }
            if let Some(l) = self.loop_stack.last_mut() {
                l.buf.push((b, outcome));
            }
        }
        outcome
    }

    fn throw_guard(&mut self, p: FaultId) -> Option<Fault> {
        self.trace.hook_count += 1;
        self.trace.coverage.insert(p);
        if !self.fires(p, InjectAction::Throw) {
            return None;
        }
        self.armed = false;
        let occ = self.record_occurrence(p);
        self.trace.injected = Some((p, occ));
        Some(Fault {
            point: p,
            exception: self.registry.point(p).exception.as_ref().unwrap().class,
            injected: true,
        })
    }

    fn throw_fired(&mut self, p: FaultId) -> Fault {
        self.trace.hook_count += 1;
        self.trace.coverage.insert(p);
        self.record_occurrence(p);
        Fault {
            point: p,
            exception: self.registry.point(p).exception.as_ref().unwrap().class,
            injected: false,
        }
    }

    fn negation_point(&mut self, p: FaultId, value: bool) -> bool {
        let error_when = self.registry.point(p).negation.unwrap().error_when;
        self.trace.hook_count += 1;
        self.trace.coverage.insert(p);
        let fire = self.fires(p, InjectAction::Negate);
        let out = value != fire;
        if fire {
            self.armed = false;
            let occ = self.record_occurrence(p);
            self.trace.injected = Some((p, occ));
        } else if out == error_when {
            self.record_occurrence(p);
        }
        out
    }

    fn loop_enter(&mut self, p: FaultId) {
        self.trace.hook_count += 1;
        self.trace.coverage.insert(p);
        if self.tracing {
            let stack = self.stack2();
            self.trace
                .loop_states
                .entry(p)
                .or_default()
                .entry_stacks
                .insert(stack);
        }
        self.loop_stack.push(ModelLoop {
            id: p,
            buf: Vec::new(),
            started: false,
            depth: self.stack.len(),
        });
    }

    fn finalize_iteration(&mut self) {
        let Some(l) = self.loop_stack.last_mut().filter(|l| l.started) else {
            return;
        };
        let sig = fnv1a(l.buf.iter().map(|(b, o)| ((b.0 as u64) << 1) | (*o as u64)));
        let id = l.id;
        l.buf.clear();
        if self.tracing {
            self.trace
                .loop_states
                .entry(id)
                .or_default()
                .iter_sigs
                .insert(sig);
        }
    }

    fn loop_iter(&mut self, clock: &mut TestClock) {
        self.trace.hook_count += 1;
        self.finalize_iteration();
        let top = self.loop_stack.last_mut().expect("iter inside a loop");
        top.started = true;
        let id = top.id;
        *self.trace.loop_counts.entry(id).or_insert(0) += 1;
        if let Some(InjectionPlan {
            target,
            action: InjectAction::Delay(d),
        }) = self.plan
        {
            if target == id {
                clock.advance(d);
                if self.trace.injected.is_none() {
                    self.trace.injected = Some((id, Occurrence::new(self.stack2(), Vec::new())));
                }
            }
        }
    }

    fn loop_exit(&mut self) {
        self.finalize_iteration();
        self.loop_stack.pop();
    }
}

/// Shape of the random registry: function, throw, negation, loop and
/// branch counts.
type Shape = (u32, u32, u32, u32, u32);

struct Ids {
    fns: Vec<FnId>,
    throws: Vec<FaultId>,
    negations: Vec<FaultId>,
    loops: Vec<FaultId>,
    branches: Vec<BranchId>,
}

fn build_registry((nf, nt, nn, nl, nb): Shape) -> (Arc<Registry>, Ids) {
    let mut b = RegistryBuilder::new("prop");
    let names = ["A.a", "B.b", "C.c", "D.d", "E.e", "F.f", "G.g", "H.h"];
    let fns: Vec<FnId> = (0..nf).map(|i| b.func(names[i as usize])).collect();
    let at = |i: u32| fns[(i % nf) as usize];
    let throws = (0..nt)
        .map(|i| {
            b.throw_point(
                at(i),
                10 + i,
                "IOException",
                ExceptionCategory::SystemSpecific,
                "t",
            )
        })
        .collect();
    let negations = (0..nn)
        .map(|i| {
            b.negation_point(
                at(i + 1),
                20 + i,
                i % 2 == 0,
                BoolSource::ErrorDetector,
                "n",
            )
        })
        .collect();
    let loops = (0..nl)
        .map(|i| b.workload_loop(at(i + 2), 30 + i, false, "l"))
        .collect();
    let branches = (0..nb).map(|i| b.branch(at(i), 40 + i)).collect();
    let ids = Ids {
        fns,
        throws,
        negations,
        loops,
        branches,
    };
    (Arc::new(b.build()), ids)
}

fn plan_for(ids: &Ids, (kind, pick, delay_ms): (u8, u32, u64)) -> Option<InjectionPlan> {
    let choose = |v: &[FaultId]| v[pick as usize % v.len()];
    match kind % 4 {
        0 => None,
        1 => Some(InjectionPlan::throw(choose(&ids.throws))),
        2 => Some(InjectionPlan::negate(choose(&ids.negations))),
        _ => Some(InjectionPlan::delay(
            choose(&ids.loops),
            VirtualTime::from_millis(delay_ms),
        )),
    }
}

enum Guard {
    Frame(FrameGuard),
    Loop(LoopGuard),
}

/// Every observable hook result, in program order.
#[derive(Debug, PartialEq)]
enum Seen {
    Branch(bool),
    Guard(Option<Fault>),
    Fired(Fault),
    Negated(bool),
    InjectionFired(bool),
}

/// Hook results, final clock and trace of one side of a run.
type Outcome = (Vec<Seen>, VirtualTime, RunTrace);

/// Runs one hook program on the agent and on the model; returns each
/// side's hook results, final clock and trace.
fn run(
    shape: Shape,
    plan: (u8, u32, u64),
    tracing: bool,
    ops: &[(u8, u32, u32)],
) -> (Outcome, Outcome) {
    let (registry, ids) = build_registry(shape);
    let plan = plan_for(&ids, plan);
    let agent = Rc::new(Agent::new(Arc::clone(&registry), plan));
    agent.set_tracing(tracing);
    let mut model = MapModel::new(registry, plan, tracing);
    let (mut seen_a, mut seen_m) = (Vec::new(), Vec::new());
    let (mut clock_a, mut clock_m) = (TestClock(VirtualTime::ZERO), TestClock(VirtualTime::ZERO));
    let mut guards: Vec<Guard> = Vec::new();
    let pick = |n: usize, a: u32| a as usize % n;
    for &(kind, a, b) in ops {
        match kind % 14 {
            0..=2 => {
                let f = ids.fns[pick(ids.fns.len(), a)];
                guards.push(Guard::Frame(agent.frame(f)));
                model.frame(f);
            }
            3 | 4 => match guards.pop() {
                Some(Guard::Frame(g)) => {
                    drop(g);
                    model.frame_exit();
                }
                Some(Guard::Loop(g)) => {
                    drop(g);
                    model.loop_exit();
                }
                None => {}
            },
            5..=7 => {
                let br = ids.branches[pick(ids.branches.len(), a)];
                seen_a.push(Seen::Branch(agent.branch(br, b % 2 == 0)));
                seen_m.push(Seen::Branch(model.branch(br, b % 2 == 0)));
            }
            8 => {
                let l = ids.loops[pick(ids.loops.len(), a)];
                guards.push(Guard::Loop(agent.loop_enter(l)));
                model.loop_enter(l);
            }
            9 | 10 => {
                if let Some(g) = guards.iter().rev().find_map(|g| match g {
                    Guard::Loop(l) => Some(l),
                    Guard::Frame(_) => None,
                }) {
                    g.iter(&mut clock_a);
                    model.loop_iter(&mut clock_m);
                }
            }
            11 => {
                let p = ids.throws[pick(ids.throws.len(), a)];
                if b % 2 == 0 {
                    seen_a.push(Seen::Guard(agent.throw_guard(p)));
                    seen_m.push(Seen::Guard(model.throw_guard(p)));
                } else {
                    seen_a.push(Seen::Fired(agent.throw_fired(p)));
                    seen_m.push(Seen::Fired(model.throw_fired(p)));
                }
            }
            12 => {
                let p = ids.negations[pick(ids.negations.len(), a)];
                seen_a.push(Seen::Negated(agent.negation_point(p, b % 2 == 0)));
                seen_m.push(Seen::Negated(model.negation_point(p, b % 2 == 0)));
            }
            _ => {
                let flag = ["overload", "stall", "lost"][pick(3, a)];
                agent.mark_flag(flag);
                model.trace.flags.insert(flag.to_string());
                seen_a.push(Seen::InjectionFired(agent.injection_fired()));
                seen_m.push(Seen::InjectionFired(model.trace.injected.is_some()));
            }
        }
    }
    // Unwind what is still open, innermost first, as scope exit would.
    while let Some(g) = guards.pop() {
        match g {
            Guard::Frame(g) => {
                drop(g);
                model.frame_exit();
            }
            Guard::Loop(g) => {
                drop(g);
                model.loop_exit();
            }
        }
    }
    let end = VirtualTime::from_millis(ops.len() as u64);
    let trace_a = agent.finish(end, 99);
    let mut trace_m = std::mem::take(&mut model.trace);
    trace_m.end_time = end;
    trace_m.events = 99;
    ((seen_a, clock_a.0, trace_a), (seen_m, clock_m.0, trace_m))
}

fn assert_traces_equal(a: &RunTrace, m: &RunTrace) {
    assert_eq!(a.coverage, m.coverage, "coverage");
    assert_eq!(a.occurrences, m.occurrences, "occurrences");
    assert_eq!(a.loop_counts, m.loop_counts, "loop_counts");
    assert_eq!(a.loop_states, m.loop_states, "loop_states");
    assert_eq!(a.injected, m.injected, "injected");
    assert_eq!(a.call_edges, m.call_edges, "call_edges");
    assert_eq!(a.hook_count, m.hook_count, "hook_count");
    assert_eq!(a.flags, m.flags, "flags");
    assert_eq!(a.end_time, m.end_time, "end_time");
    assert_eq!(a.events, m.events, "events");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn dense_recording_matches_the_map_model(
        shape in (1u32..9, 1u32..4, 1u32..4, 1u32..4, 1u32..6),
        plan in (0u8..4, 0u32..8, 1u64..500),
        tracing in 0u8..4,
        ops in collection::vec((0u8..14, 0u32..64, 0u32..64), 0..160),
    ) {
        // Tracing is on in three cases of four, as in campaigns.
        let ((seen_a, clock_a, trace_a), (seen_m, clock_m, trace_m)) =
            run(shape, plan, tracing != 0, &ops);
        prop_assert_eq!(seen_a, seen_m);
        prop_assert_eq!(clock_a, clock_m);
        assert_traces_equal(&trace_a, &trace_m);
    }
}

#[test]
fn deep_programs_with_every_plan_match() {
    // Long programs nest far deeper than the property's, on the widest
    // registry, once per plan kind and tracing mode.
    for kind in 0..4u8 {
        for tracing in [true, false] {
            let ops: Vec<(u8, u32, u32)> = (0..4_000u32)
                .map(|i| {
                    let x = i.wrapping_mul(2_654_435_761);
                    ((x % 14) as u8, x >> 7, x >> 13)
                })
                .collect();
            let ((seen_a, clock_a, trace_a), (seen_m, clock_m, trace_m)) =
                run((8, 3, 3, 3, 5), (kind, 1, 250), tracing, &ops);
            assert_eq!(seen_a, seen_m);
            assert_eq!(clock_a, clock_m);
            assert_traces_equal(&trace_a, &trace_m);
        }
    }
}
