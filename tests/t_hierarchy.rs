//! E2 — Figure 2 / Example 15: the T-hierarchy is strict, and levels track
//! the arity of the Σ-family.

use chase::prelude::*;
use chase_corpus::paper;

fn cfg() -> PrecedenceConfig {
    PrecedenceConfig::default()
}

#[test]
fn fig2_sits_exactly_at_t3() {
    let s = paper::fig2_sigma();
    assert_eq!(check(&s, 2, &cfg()), Recognition::No);
    assert_eq!(check(&s, 3, &cfg()), Recognition::Yes);
    assert_eq!(t_level(&s, 5, &cfg()), (Some(3), false));
}

#[test]
fn family_levels_track_arity() {
    // The arity-n member sits in T[n+1] \ T[n] (PAPER.md, "Deviations from
    // the paper", D10: the paper's Figure 2 anchor; Example 15's prose is
    // off by one against it).
    for arity in 2..=4 {
        let s = paper::sigma_family(arity);
        let (level, indefinite) = t_level(&s, arity + 2, &cfg());
        assert!(!indefinite, "arity {arity}: search was indefinite");
        assert_eq!(level, Some(arity + 1), "arity {arity}");
    }
}

#[test]
fn levels_are_upward_closed() {
    // Proposition 5: T[k] ⊆ T[k+1].
    for arity in 2..=3 {
        let s = paper::sigma_family(arity);
        let mut seen_yes = false;
        for k in 2..=arity + 2 {
            let r = check(&s, k, &cfg());
            if seen_yes {
                assert!(r.is_yes(), "arity {arity}: T[{k}] lost membership");
            }
            if r.is_yes() {
                seen_yes = true;
            }
        }
        assert!(seen_yes);
    }
}

#[test]
fn family_members_terminate_on_their_canonical_instances() {
    // The point of the hierarchy: these sets do terminate (every sequence).
    for arity in 2..=5 {
        let (sigma, inst) = paper::prop11_family(arity);
        let res = chase_default(&inst, &sigma);
        assert!(res.terminated(), "arity {arity}");
        // Exactly arity steps: the cascade walks the R-tuple once.
        assert_eq!(res.steps, arity, "arity {arity}");
    }
}

#[test]
fn intro_alpha2_stays_outside_every_level() {
    let s = paper::intro_alpha2();
    let (level, indefinite) = t_level(&s, 5, &cfg());
    assert!(!indefinite);
    assert_eq!(level, None);
}

#[test]
fn restriction_system_edges_thin_out_with_k() {
    // The mechanism behind the levels: the arity-3 member has a 2- and
    // 3-self-loop but an edgeless 4-restriction system.
    let s = paper::sigma_family(3);
    let rs2 = minimal_restriction_system(&s, 2, &cfg());
    assert!(rs2.edges.contains(&(0, 0)));
    let rs3 = minimal_restriction_system(&s, 3, &cfg());
    assert!(rs3.edges.contains(&(0, 0)));
    let rs4 = minimal_restriction_system(&s, 4, &cfg());
    assert!(rs4.edges.is_empty(), "got {:?}", rs4.edges);
}
