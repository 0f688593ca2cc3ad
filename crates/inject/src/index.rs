//! Dense per-trace-set index for the campaign analysis hot path.
//!
//! The fault-causality analysis (FCA, §4.3) compares every injection
//! experiment against profile runs of the same test. The straightforward
//! implementation re-walks every [`RunTrace`] for every one of the
//! registry's fault points — `O(points × runs)` map probes per experiment,
//! plus repeated occurrence/loop-state merges for every edge it emits.
//!
//! A [`TraceIndex`] is built **once per trace set** (once per test for the
//! cached profile runs; once per experiment for its injection runs) and
//! answers every question FCA asks in O(1) or with a precomputed slice:
//!
//! * **occurrence presence** — a dense per-point count of runs with at
//!   least one occurrence, plus the sorted list of occurring points (FCA
//!   only emits edges for points that occurred, so iterating the sparse
//!   list replaces the dense registry scan);
//! * **loop-count matrix** — per registry loop point, the run-ordered
//!   iteration counts as one contiguous `f64` row, ready for batched
//!   Welch t-tests; plus the sorted list of loops reached at least once;
//! * **injection bookkeeping** — the run-ordered `(fault, occurrence)`
//!   pairs of fired injections, from which FCA derives the cause state.
//!
//! Occurrence and loop-state merges are deliberately *not* eager — see
//! [`crate::trace::merged_occurrences`] and
//! [`crate::trace::merged_loop_state`]: the analysis needs merged states
//! only for the few points/loops that emit edges, and profiling showed
//! pre-merging every occurring point and reached loop dominates the whole
//! index build.
//!
//! Build cost is one walk over each trace's sparse maps:
//! `O(runs × entries)` plus the dense presence vectors.

use std::borrow::Borrow;

use crate::registry::{FaultKind, Registry};
use crate::trace::{Occurrence, RunTrace};
use crate::FaultId;

/// Sentinel slot for "not a loop point / never occurred".
const NO_SLOT: u32 = u32::MAX;

/// Immutable index over one set of runs of one workload (see the module
/// docs for the contents and complexity).
#[derive(Debug, Clone, Default)]
pub struct TraceIndex {
    n_runs: usize,
    /// Dense per registry point: number of runs with ≥ 1 occurrence.
    occ_runs: Vec<u32>,
    /// Points with `occ_runs > 0`, ascending (= registry order).
    occurring: Vec<FaultId>,
    /// Registry loop points, ascending.
    loop_points: Vec<FaultId>,
    /// Dense per registry point: index into the loop arrays.
    loop_slot: Vec<u32>,
    /// Row-major loop-count matrix: `loop_points.len() × n_runs`, rows in
    /// run order (bit-identical to walking the traces per point).
    loop_counts: Vec<f64>,
    /// Loop slots with at least one non-zero count, ascending.
    active_loops: Vec<u32>,
    /// Fired injections in run order.
    injected: Vec<(FaultId, Occurrence)>,
}

impl TraceIndex {
    /// Builds the index for one set of runs against one registry.
    ///
    /// Fault ids outside the registry's range are ignored, matching the
    /// analysis' behaviour of only ever querying registry points. The runs
    /// may be owned or borrowed (`Borrow<RunTrace>`), so a run set that
    /// reuses recorded traces need not copy them.
    pub fn build<T: Borrow<RunTrace>>(registry: &Registry, traces: &[T]) -> TraceIndex {
        let n_points = registry.points().len();
        let n_runs = traces.len();

        // Occurrence presence counts.
        let mut occ_runs = vec![0u32; n_points];
        for t in traces.iter().map(Borrow::borrow) {
            for (f, occs) in &t.occurrences {
                if !occs.is_empty() {
                    if let Some(slot) = occ_runs.get_mut(f.0 as usize) {
                        *slot += 1;
                    }
                }
            }
        }
        let occurring: Vec<FaultId> = (0..n_points as u32)
            .filter(|&i| occ_runs[i as usize] > 0)
            .map(FaultId)
            .collect();

        // Loop-count matrix over the registry's loop points, filled from
        // one pass over each trace's sparse count map (absent = 0.0).
        let loop_points: Vec<FaultId> = registry
            .points_of_kind(FaultKind::LoopPoint)
            .map(|p| p.id)
            .collect();
        let mut loop_slot = vec![NO_SLOT; n_points];
        for (slot, l) in loop_points.iter().enumerate() {
            loop_slot[l.0 as usize] = slot as u32;
        }
        let mut loop_counts = vec![0.0f64; loop_points.len() * n_runs];
        for (r, t) in traces.iter().map(Borrow::borrow).enumerate() {
            for (l, &c) in &t.loop_counts {
                match loop_slot.get(l.0 as usize) {
                    Some(&s) if s != NO_SLOT => {
                        loop_counts[s as usize * n_runs + r] = c as f64;
                    }
                    _ => {}
                }
            }
        }
        let active_loops: Vec<u32> = (0..loop_points.len() as u32)
            .filter(|&s| {
                loop_counts[s as usize * n_runs..(s as usize + 1) * n_runs]
                    .iter()
                    .any(|&c| c != 0.0)
            })
            .collect();

        let injected: Vec<(FaultId, Occurrence)> = traces
            .iter()
            .filter_map(|t| t.borrow().injected.clone())
            .collect();

        TraceIndex {
            n_runs,
            occ_runs,
            occurring,
            loop_points,
            loop_slot,
            loop_counts,
            active_loops,
            injected,
        }
    }

    /// Number of runs the index covers.
    pub fn n_runs(&self) -> usize {
        self.n_runs
    }

    /// Number of runs in which the point had at least one occurrence.
    pub fn occ_runs(&self, f: FaultId) -> u32 {
        self.occ_runs.get(f.0 as usize).copied().unwrap_or(0)
    }

    /// `true` if the point occurred in any run.
    pub fn occurred(&self, f: FaultId) -> bool {
        self.occ_runs(f) > 0
    }

    /// Points with at least one occurrence, ascending by id.
    pub fn occurring_points(&self) -> &[FaultId] {
        &self.occurring
    }

    /// Registry loop points, ascending by id.
    pub fn loop_points(&self) -> &[FaultId] {
        &self.loop_points
    }

    /// Dense slot of a loop point, if `f` is one.
    pub fn loop_slot(&self, f: FaultId) -> Option<usize> {
        match self.loop_slot.get(f.0 as usize) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// The run-ordered iteration counts of a loop slot.
    pub fn loop_counts_row(&self, slot: usize) -> &[f64] {
        &self.loop_counts[slot * self.n_runs..(slot + 1) * self.n_runs]
    }

    /// Loop slots reached (non-zero count) in at least one run, ascending.
    pub fn active_loop_slots(&self) -> &[u32] {
        &self.active_loops
    }

    /// Fired injections `(fault, occurrence)` in run order.
    pub fn injected(&self) -> &[(FaultId, Occurrence)] {
        &self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{BoolSource, ExceptionCategory, RegistryBuilder};

    fn registry() -> (Registry, FaultId, FaultId, FaultId, FaultId) {
        let mut b = RegistryBuilder::new("idx");
        let f = b.func("X.f");
        let tp = b.throw_point(f, 1, "IOException", ExceptionCategory::SystemSpecific, "tp");
        let np = b.negation_point(f, 2, true, BoolSource::ErrorDetector, "np");
        let l0 = b.workload_loop(f, 3, false, "l0");
        let l1 = b.workload_loop(f, 4, false, "l1");
        (b.build(), tp, np, l0, l1)
    }

    fn occ(seed: u32) -> Occurrence {
        Occurrence::new([Some(crate::FnId(seed)), None], vec![])
    }

    #[test]
    fn presence_counts_and_sparse_lists() {
        let (reg, tp, np, l0, l1) = registry();
        let mut t1 = RunTrace::default();
        t1.occurrences.entry(tp).or_default().push(occ(1));
        t1.loop_counts.insert(l0, 5);
        let mut t2 = RunTrace::default();
        t2.occurrences.entry(tp).or_default().push(occ(2));
        t2.occurrences.entry(np).or_default(); // empty list: not occurred
        let idx = TraceIndex::build(&reg, &[t1, t2]);
        assert_eq!(idx.n_runs(), 2);
        assert_eq!(idx.occ_runs(tp), 2);
        assert_eq!(idx.occ_runs(np), 0);
        assert!(idx.occurred(tp) && !idx.occurred(np));
        assert_eq!(idx.occurring_points(), &[tp]);
        // Loop matrix: l0 = [5, 0], l1 = [0, 0]; only l0 active.
        let s0 = idx.loop_slot(l0).unwrap();
        let s1 = idx.loop_slot(l1).unwrap();
        assert_eq!(idx.loop_counts_row(s0), &[5.0, 0.0]);
        assert_eq!(idx.loop_counts_row(s1), &[0.0, 0.0]);
        assert_eq!(idx.active_loop_slots(), &[s0 as u32]);
        assert!(idx.loop_slot(tp).is_none());
    }

    #[test]
    fn merged_occurrences_dedup_and_sort_by_signature() {
        use crate::trace::merged_occurrences;
        let (_, tp, ..) = registry();
        let (a, b) = (occ(1), occ(2));
        let mut t1 = RunTrace::default();
        t1.occurrences.entry(tp).or_default().push(b.clone());
        t1.occurrences.entry(tp).or_default().push(a.clone());
        let mut t2 = RunTrace::default();
        t2.occurrences.entry(tp).or_default().push(a.clone());
        let merged = merged_occurrences(&[t1, t2], tp);
        assert_eq!(merged.len(), 2);
        assert!(merged.windows(2).all(|w| w[0].sig < w[1].sig));
        assert!(merged_occurrences(&[] as &[RunTrace], tp).is_empty());
    }

    #[test]
    fn loop_states_merge_across_runs() {
        use crate::trace::{merged_loop_state, LoopState};
        let (_, _, _, l0, _) = registry();
        let mut t1 = RunTrace::default();
        let mut st1 = LoopState::default();
        st1.entry_stacks.insert([Some(crate::FnId(1)), None]);
        st1.iter_sigs.insert(10);
        t1.loop_states.insert(l0, st1);
        let mut t2 = RunTrace::default();
        let mut st2 = LoopState::default();
        st2.entry_stacks.insert([Some(crate::FnId(2)), None]);
        st2.iter_sigs.insert(20);
        t2.loop_states.insert(l0, st2);
        let traces = [t1, t2];
        let merged = merged_loop_state(&traces, l0).unwrap();
        assert_eq!(merged.entry_stacks.len(), 2);
        assert_eq!(merged.iter_sigs.len(), 2);
        assert!(merged_loop_state(&traces, FaultId(0)).is_none());
    }

    #[test]
    fn injections_collected_in_run_order() {
        let (reg, tp, ..) = registry();
        let t1 = RunTrace {
            injected: Some((tp, occ(9))),
            ..RunTrace::default()
        };
        let t2 = RunTrace::default();
        let t3 = RunTrace {
            injected: Some((tp, occ(8))),
            ..RunTrace::default()
        };
        let idx = TraceIndex::build(&reg, &[t1, t2, t3]);
        assert_eq!(idx.injected().len(), 2);
        assert_eq!(idx.injected()[0].1.sig, occ(9).sig);
        assert_eq!(idx.injected()[1].1.sig, occ(8).sig);
    }

    #[test]
    fn empty_trace_set() {
        let (reg, tp, ..) = registry();
        let idx = TraceIndex::build(&reg, &[] as &[RunTrace]);
        assert_eq!(idx.n_runs(), 0);
        assert!(!idx.occurred(tp));
        assert!(idx.occurring_points().is_empty());
        assert!(idx.active_loop_slots().is_empty());
        assert!(idx.injected().is_empty());
    }

    #[test]
    fn out_of_registry_ids_are_ignored() {
        let (reg, ..) = registry();
        let mut t = RunTrace::default();
        t.occurrences.entry(FaultId(999)).or_default().push(occ(1));
        let idx = TraceIndex::build(&reg, &[t]);
        assert_eq!(idx.occ_runs(FaultId(999)), 0);
        assert!(idx.occurring_points().is_empty());
    }
}
