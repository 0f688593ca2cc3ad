//! Fault Causality Analysis (§4.3): counterfactual trace comparison.
//!
//! FCA compares the execution traces of an injection run against the profile
//! runs of the same workload (the counterfactual) and emits causal edges for
//! every *additional* fault triggered:
//!
//! * **Execution-trace interference** — a throw statement reached or an error
//!   detector negated in the injection runs but never in the profile runs.
//! * **Iteration-count interference** — a loop whose iteration count
//!   statistically increases (one-sided t-test, p < 0.1).
//!
//! Both run sets are repeated (five times in the paper) to absorb
//! non-determinism. Nested/consecutive workload loops additionally produce
//! the structural `ICFG`/`CFG` edges of Table 1.
//!
//! # Hot path
//!
//! [`analyze_experiment`] runs on [`TraceIndex`]es: the profile side is
//! prepared once per test ([`ProfileIndex`], including per-loop sample
//! moments for the batched Welch tests), the injection side once per
//! experiment. Per experiment the analysis then touches only the points
//! that actually occurred and the loops that were actually reached —
//! `O(occurring + active_loops)` instead of `O(points × runs)` trace
//! re-walks. [`analyze_experiment_reference`] retains the straightforward
//! implementation as the executable specification;
//! `tests/campaign_equivalence.rs` proves the two byte-identical across
//! randomized experiments.

use std::borrow::Borrow;
use std::collections::BTreeSet;

use csnake_inject::{
    merged_loop_state, merged_occurrences, FaultId, FaultKind, InjectionPlan, Registry, RunTrace,
    TestId, TraceIndex,
};
use serde::{Deserialize, Serialize};

use crate::edge::{CausalEdge, CompatState, EdgeKind};
use crate::stats::{sample_stats, welch_batch_significant, welch_one_sided_p, SampleStats};

/// FCA thresholds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FcaConfig {
    /// One-sided t-test threshold for loop-count increases (paper: 0.1).
    pub p_value: f64,
    /// Fraction of injection runs in which an exception/negation must occur
    /// to count as triggered (absorbs non-determinism across the five runs).
    pub presence_fraction: f64,
}

impl Default for FcaConfig {
    fn default() -> Self {
        FcaConfig {
            p_value: 0.1,
            presence_fraction: 0.6,
        }
    }
}

/// Result of one injection experiment `(fault, test)` after FCA.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOutcome {
    /// The injected fault.
    pub fault: FaultId,
    /// The workload it was injected into.
    pub test: TestId,
    /// The interference list `I(f, t)`: additional faults triggered.
    pub interference: BTreeSet<FaultId>,
    /// Causal edges discovered (injection edges + structural loop edges).
    pub edges: Vec<CausalEdge>,
}

/// Compatibility state of the injected fault itself across injection runs.
fn cause_state<T: Borrow<RunTrace>>(
    registry: &Registry,
    injection: &[T],
    plan: InjectionPlan,
) -> Option<CompatState> {
    let point = registry.point(plan.target);
    if point.kind == FaultKind::LoopPoint {
        merged_loop_state(injection, plan.target).map(CompatState::Loop)
    } else {
        let mut seen = BTreeSet::new();
        let mut occs = Vec::new();
        for t in injection.iter().map(Borrow::borrow) {
            if let Some((f, occ)) = &t.injected {
                if *f == plan.target && seen.insert(occ.sig) {
                    occs.push(occ.clone());
                }
            }
        }
        if occs.is_empty() {
            None
        } else {
            // Sorted by signature: the compatibility-check merge invariant.
            occs.sort_unstable_by_key(|o| o.sig);
            Some(CompatState::Occurrences(occs))
        }
    }
}

/// Profile-side state prepared once per test and shared across every
/// experiment on that test: the trace index plus the per-loop sample
/// moments the batched Welch tests reuse.
#[derive(Debug, Clone)]
pub struct ProfileIndex {
    index: TraceIndex,
    loop_stats: Vec<SampleStats>,
}

impl ProfileIndex {
    /// Indexes one test's profile runs.
    pub fn build(registry: &Registry, traces: &[RunTrace]) -> ProfileIndex {
        let index = TraceIndex::build(registry, traces);
        let loop_stats = (0..index.loop_points().len())
            .map(|s| sample_stats(index.loop_counts_row(s)))
            .collect();
        ProfileIndex { index, loop_stats }
    }

    /// The underlying trace index.
    pub fn index(&self) -> &TraceIndex {
        &self.index
    }

    /// Per-loop-slot sample moments of the profile iteration counts.
    pub fn loop_stats(&self) -> &[SampleStats] {
        &self.loop_stats
    }
}

/// Runs FCA over one experiment: profile runs vs. injection runs of the same
/// test, and extracts all causal edges (Table 1).
///
/// Returns an outcome with no edges when the injection never fired (the
/// fault was not reached — such injections are automatically deprioritized
/// by the 3PA protocol).
///
/// This is the indexed hot path (see the module docs); it builds both
/// indexes itself, which is convenient for one-off calls. Campaign drivers
/// should build the [`ProfileIndex`] once per test and call
/// [`analyze_experiment_indexed`].
pub fn analyze_experiment(
    registry: &Registry,
    profile: &[RunTrace],
    injection: &[RunTrace],
    plan: InjectionPlan,
    test: TestId,
    phase: u8,
    cfg: &FcaConfig,
) -> ExperimentOutcome {
    let prof = ProfileIndex::build(registry, profile);
    analyze_experiment_indexed(registry, &prof, injection, plan, test, phase, cfg)
}

/// The indexed FCA hot path: a prepared profile index (shared across the
/// test's experiments) against one experiment's injection runs, owned or
/// borrowed.
///
/// Byte-identical to [`analyze_experiment_reference`] — same interference
/// set, same edges in the same order, same states.
pub fn analyze_experiment_indexed<T: Borrow<RunTrace>>(
    registry: &Registry,
    profile: &ProfileIndex,
    injection: &[T],
    plan: InjectionPlan,
    test: TestId,
    phase: u8,
    cfg: &FcaConfig,
) -> ExperimentOutcome {
    let inj = TraceIndex::build(registry, injection);
    analyze_experiment_prepared(registry, profile, &inj, injection, plan, test, phase, cfg)
}

/// The fully-prepared FCA path: both sides' indexes prebuilt by the
/// caller. The driver's injection-run cache
/// (`DriverConfig::cache_injections`) stores `(traces, TraceIndex)` per
/// `(test, plan)` and calls this to skip the index rebuild when a
/// combination is revisited — results are identical to
/// [`analyze_experiment_indexed`] on the same traces.
#[allow(clippy::too_many_arguments)]
pub fn analyze_experiment_prepared<T: Borrow<RunTrace>>(
    registry: &Registry,
    profile: &ProfileIndex,
    inj: &TraceIndex,
    injection: &[T],
    plan: InjectionPlan,
    test: TestId,
    phase: u8,
    cfg: &FcaConfig,
) -> ExperimentOutcome {
    let cause = plan.target;
    let mut outcome = ExperimentOutcome {
        fault: cause,
        test,
        interference: BTreeSet::new(),
        edges: Vec::new(),
    };
    if inj.injected().is_empty() || inj.n_runs() == 0 {
        return outcome;
    }
    // The cause-state derivation is a per-run walk either way (the fired
    // injections are one entry per trace), so both paths share it.
    let Some(cstate) = cause_state(registry, injection, plan) else {
        return outcome;
    };
    let cause_is_delay = plan.action.is_delay();
    let needed = ((cfg.presence_fraction * inj.n_runs() as f64).ceil() as usize).max(1);

    // 1. Execution-trace interference. Only points that occurred in some
    //    injection run can clear the presence threshold, so the sparse
    //    occurring list (ascending id = registry order) replaces the dense
    //    registry scan.
    for &p in inj.occurring_points() {
        if p == cause || registry.point(p).kind == FaultKind::LoopPoint {
            continue;
        }
        if inj.occ_runs(p) as usize >= needed && !profile.index.occurred(p) {
            let kind = if cause_is_delay {
                EdgeKind::ED
            } else {
                EdgeKind::EI
            };
            outcome.interference.insert(p);
            outcome.edges.push(CausalEdge {
                cause,
                effect: p,
                kind,
                test,
                phase,
                cause_state: cstate.clone(),
                // Merged on demand — only edge-emitting points need the
                // union (see `csnake_inject::merged_occurrences`).
                effect_state: CompatState::Occurrences(merged_occurrences(injection, p)),
            });
        }
    }

    // 2. Iteration-count interference, batched: candidate loops are the
    //    ones reached in some injection run (the reference's all-zero skip);
    //    profile moments come precomputed from the ProfileIndex.
    let mut cand_slots: Vec<u32> = Vec::with_capacity(inj.active_loop_slots().len());
    let mut prof_stats = Vec::with_capacity(inj.active_loop_slots().len());
    let mut inj_stats = Vec::with_capacity(inj.active_loop_slots().len());
    for &s in inj.active_loop_slots() {
        if inj.loop_points()[s as usize] == cause {
            continue;
        }
        cand_slots.push(s);
        prof_stats.push(profile.loop_stats[s as usize]);
        inj_stats.push(sample_stats(inj.loop_counts_row(s as usize)));
    }
    let significant = welch_batch_significant(&prof_stats, &inj_stats, cfg.p_value);
    let mut s_plus_loops = Vec::new();
    for (k, &s) in cand_slots.iter().enumerate() {
        if !significant[k] {
            continue;
        }
        let l = inj.loop_points()[s as usize];
        let kind = if cause_is_delay {
            EdgeKind::SD
        } else {
            EdgeKind::SI
        };
        // Loop-state merges are on demand (few loops emit edges; see
        // `csnake_inject::merged_loop_state`), exactly like the reference.
        let Some(effect_state) = merged_loop_state(injection, l) else {
            continue;
        };
        outcome.interference.insert(l);
        outcome.edges.push(CausalEdge {
            cause,
            effect: l,
            kind,
            test,
            phase,
            cause_state: cstate.clone(),
            effect_state: CompatState::Loop(effect_state),
        });
        s_plus_loops.push(l);
    }

    // 3. Structural loop edges (Table 1 rows 5–6), shared with the
    //    reference.
    push_structural_loop_edges(
        registry,
        injection,
        &s_plus_loops,
        test,
        phase,
        &mut outcome,
    );

    outcome
}

/// Emits the structural `ICFG`/`CFG` edges (Table 1 rows 5–6) for every
/// statistically-increased loop: a delayed inner loop propagates to its
/// parent and, through the parent, to its next sibling. Shared by the
/// indexed and reference paths so the equivalence contract has one copy.
fn push_structural_loop_edges<T: Borrow<RunTrace>>(
    registry: &Registry,
    injection: &[T],
    s_plus_loops: &[FaultId],
    test: TestId,
    phase: u8,
    outcome: &mut ExperimentOutcome,
) {
    for &l in s_plus_loops {
        let meta = registry
            .point(l)
            .loop_meta
            .as_ref()
            .expect("loop point has meta");
        let Some(parent) = meta.parent else { continue };
        let Some(l_state) = merged_loop_state(injection, l) else {
            continue;
        };
        if let Some(parent_state) = merged_loop_state(injection, parent) {
            outcome.edges.push(CausalEdge {
                cause: l,
                effect: parent,
                kind: EdgeKind::Icfg,
                test,
                phase,
                cause_state: CompatState::Loop(l_state),
                effect_state: CompatState::Loop(parent_state.clone()),
            });
            if let Some(sib) = meta.next_sibling {
                if let Some(sib_state) = merged_loop_state(injection, sib) {
                    outcome.edges.push(CausalEdge {
                        cause: parent,
                        effect: sib,
                        kind: EdgeKind::Cfg,
                        test,
                        phase,
                        cause_state: CompatState::Loop(parent_state),
                        effect_state: CompatState::Loop(sib_state),
                    });
                }
            }
        }
    }
}

/// The retained straightforward implementation — the executable
/// specification the indexed path is proven against. Re-walks every trace
/// for every registry point (`O(points × runs)` per experiment).
pub fn analyze_experiment_reference(
    registry: &Registry,
    profile: &[RunTrace],
    injection: &[RunTrace],
    plan: InjectionPlan,
    test: TestId,
    phase: u8,
    cfg: &FcaConfig,
) -> ExperimentOutcome {
    let cause = plan.target;
    let mut outcome = ExperimentOutcome {
        fault: cause,
        test,
        interference: BTreeSet::new(),
        edges: Vec::new(),
    };
    let fired = injection.iter().any(|t| t.injected.is_some());
    if !fired || injection.is_empty() {
        return outcome;
    }
    let Some(cstate) = cause_state(registry, injection, plan) else {
        return outcome;
    };
    let cause_is_delay = plan.action.is_delay();
    let needed = ((cfg.presence_fraction * injection.len() as f64).ceil() as usize).max(1);

    // 1. Execution-trace interference: additional exceptions/negations.
    for p in registry.points() {
        if p.id == cause || p.kind == FaultKind::LoopPoint {
            continue;
        }
        let n_inj = injection.iter().filter(|t| t.occurred(p.id)).count();
        // For the cause's own injected occurrence we must not count the
        // injection itself; that is excluded above by `p.id == cause`.
        let in_profile = profile.iter().any(|t| t.occurred(p.id));
        if n_inj >= needed && !in_profile {
            let kind = if cause_is_delay {
                EdgeKind::ED
            } else {
                EdgeKind::EI
            };
            outcome.interference.insert(p.id);
            outcome.edges.push(CausalEdge {
                cause,
                effect: p.id,
                kind,
                test,
                phase,
                cause_state: cstate.clone(),
                effect_state: CompatState::Occurrences(merged_occurrences(injection, p.id)),
            });
        }
    }

    // 2. Iteration-count interference: statistically increased loops.
    let mut s_plus_loops = Vec::new();
    for p in registry.points() {
        if p.id == cause || p.kind != FaultKind::LoopPoint {
            continue;
        }
        let prof: Vec<f64> = profile.iter().map(|t| t.loop_count(p.id) as f64).collect();
        let inj: Vec<f64> = injection
            .iter()
            .map(|t| t.loop_count(p.id) as f64)
            .collect();
        if inj.iter().all(|&c| c == 0.0) {
            continue;
        }
        if welch_one_sided_p(&prof, &inj) < cfg.p_value {
            let kind = if cause_is_delay {
                EdgeKind::SD
            } else {
                EdgeKind::SI
            };
            let Some(effect_state) = merged_loop_state(injection, p.id) else {
                continue;
            };
            outcome.interference.insert(p.id);
            outcome.edges.push(CausalEdge {
                cause,
                effect: p.id,
                kind,
                test,
                phase,
                cause_state: cstate.clone(),
                effect_state: CompatState::Loop(effect_state),
            });
            s_plus_loops.push(p.id);
        }
    }

    // 3. Structural loop edges for batch processing (Table 1 rows 5–6):
    //    a delayed inner loop propagates to its parent (ICFG) and, through
    //    the parent, to its next sibling (CFG).
    push_structural_loop_edges(
        registry,
        injection,
        &s_plus_loops,
        test,
        phase,
        &mut outcome,
    );

    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_inject::{
        BoolSource, ExceptionCategory, FnId, LoopState, Occurrence, RegistryBuilder,
    };
    use csnake_sim::VirtualTime;

    struct Fx {
        reg: Registry,
        tp: FaultId,
        np: FaultId,
        inner: FaultId,
        outer: FaultId,
        sibling: FaultId,
    }

    fn fx() -> Fx {
        let mut b = RegistryBuilder::new("t");
        let f = b.func("X.f");
        let tp = b.throw_point(f, 1, "IOException", ExceptionCategory::SystemSpecific, "tp");
        let np = b.negation_point(f, 2, true, BoolSource::ErrorDetector, "np");
        let outer = b.workload_loop(f, 3, false, "outer");
        let inner = b.workload_loop(f, 4, false, "inner");
        let sibling = b.workload_loop(f, 5, false, "sibling");
        b.set_parent(inner, outer);
        b.set_parent(sibling, outer);
        b.set_sibling(inner, sibling);
        Fx {
            reg: b.build(),
            tp,
            np,
            inner,
            outer,
            sibling,
        }
    }

    fn occ(sig_seed: u32) -> Occurrence {
        Occurrence::new([Some(FnId(sig_seed)), None], vec![])
    }

    fn trace_with(
        occurrences: &[(FaultId, u32)],
        loops: &[(FaultId, u64)],
        injected: Option<FaultId>,
    ) -> RunTrace {
        let mut t = RunTrace::default();
        for (p, seed) in occurrences {
            t.occurrences.entry(*p).or_default().push(occ(*seed));
        }
        for (l, c) in loops {
            t.loop_counts.insert(*l, *c);
            let mut st = LoopState::default();
            st.entry_stacks.insert([None, None]);
            st.iter_sigs.insert(*c % 3); // a few shared signatures
            t.loop_states.insert(*l, st);
        }
        if let Some(f) = injected {
            t.injected = Some((f, occ(99)));
        }
        t
    }

    fn cfgd() -> FcaConfig {
        FcaConfig::default()
    }

    #[test]
    fn no_edges_when_injection_never_fired() {
        let fx = fx();
        let profile = vec![trace_with(&[], &[], None); 5];
        let inj = vec![trace_with(&[(fx.np, 1)], &[], None); 5];
        let out = analyze_experiment(
            &fx.reg,
            &profile,
            &inj,
            InjectionPlan::throw(fx.tp),
            TestId(0),
            1,
            &cfgd(),
        );
        assert!(out.edges.is_empty());
        assert!(out.interference.is_empty());
    }

    #[test]
    fn additional_exception_yields_ei_edge() {
        let fx = fx();
        let profile = vec![trace_with(&[], &[], None); 5];
        // Injecting np (negation) consistently triggers tp.
        let inj = vec![trace_with(&[(fx.tp, 1)], &[], Some(fx.np)); 5];
        let out = analyze_experiment(
            &fx.reg,
            &profile,
            &inj,
            InjectionPlan::negate(fx.np),
            TestId(0),
            2,
            &cfgd(),
        );
        assert_eq!(out.edges.len(), 1);
        let e = &out.edges[0];
        assert_eq!(e.kind, EdgeKind::EI);
        assert_eq!(e.cause, fx.np);
        assert_eq!(e.effect, fx.tp);
        assert_eq!(e.phase, 2);
        assert!(out.interference.contains(&fx.tp));
    }

    #[test]
    fn exception_present_in_profile_is_not_additional() {
        let fx = fx();
        // tp occurs naturally in one profile run → counterfactual fails.
        let mut profile = vec![trace_with(&[], &[], None); 4];
        profile.push(trace_with(&[(fx.tp, 1)], &[], None));
        let inj = vec![trace_with(&[(fx.tp, 1)], &[], Some(fx.np)); 5];
        let out = analyze_experiment(
            &fx.reg,
            &profile,
            &inj,
            InjectionPlan::negate(fx.np),
            TestId(0),
            1,
            &cfgd(),
        );
        assert!(out.edges.is_empty());
    }

    #[test]
    fn flaky_exception_below_presence_fraction_is_ignored() {
        let fx = fx();
        let profile = vec![trace_with(&[], &[], None); 5];
        // Occurs in only 2 of 5 injection runs (< 60%).
        let mut inj = vec![trace_with(&[], &[], Some(fx.np)); 3];
        inj.push(trace_with(&[(fx.tp, 1)], &[], Some(fx.np)));
        inj.push(trace_with(&[(fx.tp, 1)], &[], Some(fx.np)));
        let out = analyze_experiment(
            &fx.reg,
            &profile,
            &inj,
            InjectionPlan::negate(fx.np),
            TestId(0),
            1,
            &cfgd(),
        );
        assert!(out.edges.is_empty());
    }

    #[test]
    fn loop_increase_yields_sd_edge_with_delay_cause() {
        let fx = fx();
        let profile: Vec<RunTrace> = (0..5)
            .map(|i| {
                trace_with(
                    &[],
                    &[(fx.inner, 100 + i), (fx.outer, 10), (fx.sibling, 5)],
                    None,
                )
            })
            .collect();
        let inj: Vec<RunTrace> = (0..5)
            .map(|i| {
                trace_with(
                    &[],
                    &[(fx.inner, 200 + i), (fx.outer, 10), (fx.sibling, 5)],
                    Some(fx.sibling),
                )
            })
            .collect();
        let plan = InjectionPlan::delay(fx.sibling, VirtualTime::from_millis(100));
        let out = analyze_experiment(&fx.reg, &profile, &inj, plan, TestId(1), 3, &cfgd());
        // inner went 100→200 (S+); outer unchanged. inner has parent outer →
        // also an ICFG edge, and inner's sibling is `sibling` (the cause, but
        // structural edges don't exclude it) → CFG edge outer→sibling.
        let kinds: Vec<EdgeKind> = out.edges.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EdgeKind::SD), "{kinds:?}");
        assert!(kinds.contains(&EdgeKind::Icfg), "{kinds:?}");
        let sd = out.edges.iter().find(|e| e.kind == EdgeKind::SD).unwrap();
        assert_eq!(sd.effect, fx.inner);
        assert!(matches!(sd.effect_state, CompatState::Loop(_)));
        assert!(out.interference.contains(&fx.inner));
        assert!(!out.interference.contains(&fx.outer));
    }

    #[test]
    fn unreached_loop_in_injection_runs_is_skipped() {
        let fx = fx();
        // Loop count 0 in all injection runs but >0 in profile: no edge
        // (and no false S+ from the reversed direction either).
        let profile: Vec<RunTrace> = (0..5)
            .map(|_| trace_with(&[], &[(fx.inner, 50)], None))
            .collect();
        let inj: Vec<RunTrace> = (0..5).map(|_| trace_with(&[], &[], Some(fx.np))).collect();
        let out = analyze_experiment(
            &fx.reg,
            &profile,
            &inj,
            InjectionPlan::negate(fx.np),
            TestId(0),
            1,
            &cfgd(),
        );
        assert!(out.edges.is_empty());
    }

    #[test]
    fn indexed_path_matches_reference_on_fixtures() {
        let fx = fx();
        let cases: Vec<(Vec<RunTrace>, Vec<RunTrace>, InjectionPlan)> = vec![
            // Additional exception.
            (
                vec![trace_with(&[], &[], None); 5],
                vec![trace_with(&[(fx.tp, 1)], &[], Some(fx.np)); 5],
                InjectionPlan::negate(fx.np),
            ),
            // Never fired.
            (
                vec![trace_with(&[], &[], None); 5],
                vec![trace_with(&[(fx.np, 1)], &[], None); 5],
                InjectionPlan::throw(fx.tp),
            ),
            // Loop increase with structural edges.
            (
                (0..5)
                    .map(|_| {
                        trace_with(
                            &[],
                            &[(fx.inner, 100), (fx.outer, 10), (fx.sibling, 100)],
                            None,
                        )
                    })
                    .collect(),
                (0..5)
                    .map(|i| {
                        trace_with(
                            &[],
                            &[(fx.inner, 300 + i), (fx.outer, 10), (fx.sibling, 100)],
                            Some(fx.np),
                        )
                    })
                    .collect(),
                InjectionPlan::negate(fx.np),
            ),
        ];
        for (profile, inj, plan) in cases {
            let fast = analyze_experiment(&fx.reg, &profile, &inj, plan, TestId(0), 1, &cfgd());
            let slow =
                analyze_experiment_reference(&fx.reg, &profile, &inj, plan, TestId(0), 1, &cfgd());
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn icfg_and_cfg_edges_connect_nested_and_sibling_loops() {
        let fx = fx();
        let profile: Vec<RunTrace> = (0..5)
            .map(|_| {
                trace_with(
                    &[],
                    &[(fx.inner, 100), (fx.outer, 10), (fx.sibling, 100)],
                    None,
                )
            })
            .collect();
        let inj: Vec<RunTrace> = (0..5)
            .map(|i| {
                trace_with(
                    &[],
                    &[(fx.inner, 300 + i), (fx.outer, 10), (fx.sibling, 100)],
                    Some(fx.np),
                )
            })
            .collect();
        let out = analyze_experiment(
            &fx.reg,
            &profile,
            &inj,
            InjectionPlan::negate(fx.np),
            TestId(0),
            1,
            &cfgd(),
        );
        let icfg = out.edges.iter().find(|e| e.kind == EdgeKind::Icfg).unwrap();
        assert_eq!((icfg.cause, icfg.effect), (fx.inner, fx.outer));
        let cfg_edge = out.edges.iter().find(|e| e.kind == EdgeKind::Cfg).unwrap();
        assert_eq!((cfg_edge.cause, cfg_edge.effect), (fx.outer, fx.sibling));
        // Structural edges are not part of the interference list.
        assert!(!out.interference.contains(&fx.outer));
    }
}
