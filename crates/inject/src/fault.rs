//! Fault values and injection plans.

use std::fmt;

use csnake_sim::VirtualTime;
use serde::{Deserialize, Serialize};

use crate::registry::FaultId;
use crate::trace::RunTrace;

/// An in-flight fault (exception) value propagated through a target system.
///
/// Targets use `Result<T, Fault>` as their error channel; a `Fault` is either
/// *natural* (the system's own throw fired) or *injected* by the agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The fault point the exception originates from.
    pub point: FaultId,
    /// Exception class name.
    pub exception: &'static str,
    /// `true` if this value was produced by the injection agent.
    pub injected: bool,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}{})",
            self.exception,
            self.point,
            if self.injected { ", injected" } else { "" }
        )
    }
}

impl std::error::Error for Fault {}

/// What to do at the targeted fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectAction {
    /// One-shot exception throw at a throw/lib-call point.
    Throw,
    /// One-shot return-value negation at a negation point.
    Negate,
    /// Spinning delay of the given length at the head of *every* iteration
    /// of the targeted loop (§4.2 "delay injection").
    Delay(VirtualTime),
}

impl InjectAction {
    /// `true` for [`InjectAction::Delay`].
    pub fn is_delay(&self) -> bool {
        matches!(self, InjectAction::Delay(_))
    }
}

/// A single-fault injection plan: one point, one action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectionPlan {
    /// The targeted fault point.
    pub target: FaultId,
    /// The action to perform when the point's hook is reached.
    pub action: InjectAction,
}

impl InjectionPlan {
    /// Plan a one-shot exception throw.
    pub fn throw(target: FaultId) -> Self {
        InjectionPlan {
            target,
            action: InjectAction::Throw,
        }
    }

    /// Plan a one-shot negation.
    pub fn negate(target: FaultId) -> Self {
        InjectionPlan {
            target,
            action: InjectAction::Negate,
        }
    }

    /// Plan a per-iteration delay.
    pub fn delay(target: FaultId, d: VirtualTime) -> Self {
        InjectionPlan {
            target,
            action: InjectAction::Delay(d),
        }
    }

    /// `false` when `profile`, the unplanned run of the same test at the
    /// same seed, shows that this plan's firing hook never ran.
    ///
    /// A plan changes a run only by firing, so until it fires the planned
    /// run replays the profile run step for step. If the profile run never
    /// reached the firing hook, neither does the planned run, and the two
    /// traces are equal (`injected == None` in both). The test per action:
    ///
    /// * `Delay(L)` fires only in `LoopGuard::iter`, which counts the
    ///   iteration: it can fire iff `profile.loop_count(L) > 0`.
    /// * `Throw` and `Negate` fire only in `throw_guard` and
    ///   `negation_point`, which always mark coverage: they can fire iff
    ///   the target is in `profile.coverage`. Coverage marked only by
    ///   `throw_fired` or `loop_enter` keeps the answer `true`, which is
    ///   merely conservative.
    pub fn can_fire(&self, profile: &RunTrace) -> bool {
        match self.action {
            InjectAction::Delay(_) => profile.loop_count(self.target) > 0,
            InjectAction::Throw | InjectAction::Negate => profile.coverage.contains(&self.target),
        }
    }
}

/// The seven delay lengths the paper sweeps per delay injection
/// (100 ms – 8 s, §4.2).
pub const PAPER_DELAY_SWEEP_MS: [u64; 7] = [100, 200, 400, 800, 1600, 3200, 8000];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_marks_injected() {
        let nat = Fault {
            point: FaultId(3),
            exception: "IOException",
            injected: false,
        };
        let inj = Fault {
            point: FaultId(3),
            exception: "IOException",
            injected: true,
        };
        assert_eq!(nat.to_string(), "IOException(F3)");
        assert_eq!(inj.to_string(), "IOException(F3, injected)");
    }

    #[test]
    fn constructors_set_action() {
        assert_eq!(InjectionPlan::throw(FaultId(1)).action, InjectAction::Throw);
        assert_eq!(
            InjectionPlan::negate(FaultId(1)).action,
            InjectAction::Negate
        );
        let d = InjectionPlan::delay(FaultId(1), VirtualTime::from_millis(100));
        assert!(d.action.is_delay());
        assert!(!InjectAction::Throw.is_delay());
    }

    #[test]
    fn can_fire_reads_the_firing_hook_off_the_profile_run() {
        let (l, p) = (FaultId(1), FaultId(2));
        let mut profile = RunTrace::default();
        let delay = InjectionPlan::delay(l, VirtualTime::from_millis(100));
        // A loop entered but never iterated is covered with no count.
        profile.coverage.insert(l);
        assert!(!delay.can_fire(&profile));
        profile.loop_counts.insert(l, 1);
        assert!(delay.can_fire(&profile));

        assert!(!InjectionPlan::throw(p).can_fire(&profile));
        assert!(!InjectionPlan::negate(p).can_fire(&profile));
        profile.coverage.insert(p);
        assert!(InjectionPlan::throw(p).can_fire(&profile));
        assert!(InjectionPlan::negate(p).can_fire(&profile));
    }

    #[test]
    fn sweep_is_increasing_and_in_paper_range() {
        for w in PAPER_DELAY_SWEEP_MS.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(PAPER_DELAY_SWEEP_MS[0], 100);
        assert_eq!(*PAPER_DELAY_SWEEP_MS.last().unwrap(), 8000);
    }
}
