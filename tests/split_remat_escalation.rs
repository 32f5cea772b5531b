//! Integration tests for the final-round escalation tier (§2.1
//! live-range splitting + rematerialization): escalated results must
//! verify, must never cost more than the base run they replace, must
//! be byte-identical across worker counts and reanalysis modes, and
//! must keep rescuing the specjvm98 / jit-large residual-pressure
//! tail pinned by the recorded baselines.

use lra::bench::batchrun;

/// Returns the standard experiment whose name starts with `prefix`.
fn experiment(prefix: &str) -> batchrun::BatchExperiment {
    batchrun::standard_experiments(2013)
        .into_iter()
        .find(|e| e.name.starts_with(prefix))
        .unwrap_or_else(|| panic!("standard experiment {prefix}* exists"))
}

/// Property: on the real specjvm98 corpus, every escalated run
/// converges to a verified total assignment with a valid rewritten
/// function, at no higher spill cost than the base run it displaced.
#[test]
fn escalated_jvm98_runs_verify_and_never_cost_more() {
    let exp = experiment("specjvm98/");
    let base_pipeline = exp.pipeline.clone().escalation(false);
    let mut escalations = 0;
    for f in &exp.functions {
        let with = exp.pipeline.run(f).expect("jvm98 function allocates");
        if !with.escalated {
            continue;
        }
        escalations += 1;
        let base = base_pipeline.run(f).expect("base run allocates");
        assert!(
            !base.converged,
            "{}: escalation only fires on stalls",
            f.name
        );
        assert!(with.converged, "{}: accepted escalations converge", f.name);
        assert!(
            with.verdict.is_feasible(),
            "{}: escalated result verifies",
            f.name
        );
        assert!(
            with.function.validate().is_ok(),
            "{}: rewrite stays valid",
            f.name
        );
        assert!(
            with.split_copies > 0,
            "{}: escalation implies a split",
            f.name
        );
        assert!(
            with.spill_cost <= base.spill_cost,
            "{}: escalated cost {} exceeds base {}",
            f.name,
            with.spill_cost,
            base.spill_cost
        );
        // The paper's spill-everywhere figure is escalation-independent.
        assert_eq!(with.first_round_cost, base.first_round_cost, "{}", f.name);
    }
    assert!(escalations > 0, "the corpus must exercise the tier");
}

/// The escalation tier is deterministic: fuel-only budgets make the
/// batch report byte-identical at any worker count.
#[test]
fn escalation_is_thread_count_invariant() {
    let exp = experiment("jit-large/");
    let seq = exp.run(1);
    let par = exp.run(4);
    assert_eq!(seq.render(), par.render());
    assert_eq!(seq.summary, par.summary);
    assert!(
        seq.summary.escalated > 0,
        "the corpus must exercise the tier"
    );
}

/// Regression: the converged counts the tier buys on the standard
/// corpora at seed 2013. The pre-escalation baselines were 15/54
/// (specjvm98) and 10/27 (jit-large); splitting + rematerialization
/// rescues 11 and 12 functions respectively. Since the exact tier
/// keeps what an exhausted search finds, jit-large's base runs are
/// cheaper but converge less often on their own (5/27): the tier
/// accepts an escalated run only at no higher cost than the base run,
/// so `montecarlo::m0`, `montecarlo::m2` and `batik::m2` ended
/// cheaper but unconverged (17/27, 12 escalated). Since the exact tier
/// prunes on forced spills and seeds with the cheap tier alone, the
/// base runs of `compiler::m2` (1,348, as before), `derby::m1`
/// (2,790,748 → 2,642,438) and `sunflow::m1` (1,228,028 → 1,202,988)
/// end no costlier but unconverged, and no escalated run converges at
/// or below their cost; `montecarlo::m2` converges again (15/27, 8
/// escalated, total spill 9,727,573 → 9,488,915). A drop here means
/// the escalation tier regressed.
#[test]
fn split_remat_rescues_the_standard_corpora_tails() {
    let jvm98 = experiment("specjvm98/").run(2).summary;
    assert_eq!(jvm98.functions, 54);
    assert_eq!(jvm98.converged, 26, "specjvm98 converged");
    assert_eq!(jvm98.escalated, 11, "specjvm98 escalated");
    assert!(
        jvm98.converged > 15,
        "must beat the pre-escalation baseline"
    );

    let large = experiment("jit-large/").run(2).summary;
    assert_eq!(large.functions, 27);
    assert_eq!(large.converged, 15, "jit-large converged");
    assert_eq!(large.escalated, 8, "jit-large escalated");
    assert!(
        large.converged > 10,
        "must beat the pre-escalation baseline"
    );
}
