//! The driver does not simulate an injection rep whose paired profile run
//! shows the plan can never fire (`InjectionPlan::can_fire`); it reuses
//! the profile trace instead. This test checks that rule against the
//! simulator on every `(injectable fault, reaching test, plan, rep)` of
//! the five paper targets, the `scenarios/` corpus and four generated
//! scenarios, at the evaluation settings (3 reps, delays 800/3200 ms):
//!
//! * exactness: every rep the rule skips, simulated anyway, is
//!   `Debug`-equal to its profile trace;
//! * completeness: every simulated run whose plan did not fire
//!   (`injected == None`) is one the rule skips.
//!
//! It simulates every case, skipped or not: about 6 s in release mode
//! on a 2-vCPU Xeon, far longer in debug, so it is `#[ignore]`d and CI
//! runs it in release:
//!
//! ```sh
//! cargo test --release --test injection_reuse -- --ignored
//! ```

use csnake::core::driver::seed_for;
use csnake::core::pool;
use csnake::core::{Driver, DriverConfig, ExperimentEngine, TargetSystem};
use csnake::inject::{FaultId, FaultKind, InjectionPlan, Registry};
use csnake::sim::VirtualTime;
use csnake_bench::EvalConfig;

/// The plans the driver sweeps for one fault point.
fn plans(reg: &Registry, cfg: &DriverConfig, f: FaultId) -> Vec<InjectionPlan> {
    match reg.point(f).kind {
        FaultKind::LoopPoint => cfg
            .delay_values_ms
            .iter()
            .map(|&ms| InjectionPlan::delay(f, VirtualTime::from_millis(ms)))
            .collect(),
        FaultKind::Throw | FaultKind::LibCall => vec![InjectionPlan::throw(f)],
        FaultKind::Negation => vec![InjectionPlan::negate(f)],
    }
}

/// Simulates every case of `target` and checks both directions of the
/// rule. Returns `(cases, skipped)`.
fn check(target: &dyn TargetSystem) -> (usize, usize) {
    let cfg = EvalConfig::default().detect_config().driver;
    let driver = Driver::new(target, cfg.clone());
    let reg = target.registry();
    let mut cases = Vec::new();
    for f in driver.faults() {
        for t in driver.tests_reaching(f) {
            for plan in plans(&reg, &cfg, f) {
                for rep in 0..cfg.reps {
                    cases.push((t, plan, rep));
                }
            }
        }
    }
    let verdicts = pool::run_ordered(cases.clone(), pool::hardware_threads(), |(t, plan, rep)| {
        let profile = &driver.profile(t)[rep];
        let run = target.run(t, Some(plan), seed_for(cfg.base_seed, t, rep));
        let skipped = !plan.can_fire(profile);
        if skipped {
            assert_eq!(
                format!("{run:?}"),
                format!("{profile:?}"),
                "{}: {plan:?} on {t:?} rep {rep} is skipped but differs from its profile run",
                target.name()
            );
        }
        (skipped, run.injected.is_none())
    });
    for (&(skipped, unfired), (t, plan, rep)) in verdicts.iter().zip(&cases) {
        assert!(
            skipped || !unfired,
            "{}: {plan:?} on {t:?} rep {rep} never fired but is simulated",
            target.name()
        );
    }
    let skipped = verdicts.iter().filter(|(s, _)| *s).count();
    println!(
        "{}: {} cases, {skipped} skipped",
        target.name(),
        cases.len()
    );
    (cases.len(), skipped)
}

#[test]
#[ignore = "simulates every injection case: about 6 s in release on a 2-vCPU Xeon; CI runs it in release"]
fn skipped_reps_equal_their_profile_runs_and_no_unfired_run_is_simulated() {
    let mut targets = csnake::targets::all_paper_targets();
    let corpus = csnake::scenario::corpus_specs().expect("scenario corpus loads");
    for name in corpus.keys() {
        targets.push(csnake::scenario::by_name(name).expect("corpus target resolves"));
    }
    for seed in 1..=4 {
        targets.push(csnake_gen::by_name(&format!("gen:{seed}")).expect("gen target resolves"));
    }
    let mut skipped_any = false;
    for target in &targets {
        let (cases, skipped) = check(target.as_ref());
        assert!(cases > 0, "{}: no injection cases", target.name());
        skipped_any |= skipped > 0;
    }
    assert!(
        skipped_any,
        "the rule skipped nothing: the test proves nothing"
    );
}
