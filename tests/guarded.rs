//! E15 — Section 5: weakly/restrictedly guarded sets and the guarded null
//! property (Lemma 7), validated over randomized chase orders.

use chase::prelude::*;
use chase_corpus::paper;
use chase_guarded::guards::{is_restrictedly_guarded, is_weakly_guarded};
use chase_guarded::nullprop::guarded_null_property;
use chase_guarded::qa::certain_answers;

fn pc() -> PrecedenceConfig {
    PrecedenceConfig::default()
}

/// The definition-faithful WG ⊊ RG separation witness (PAPER.md,
/// "Deviations from the paper", D4).
fn separation_witness() -> ConstraintSet {
    ConstraintSet::parse(
        "R(X1,X2,X3), S(X2) -> R(X2,Y,X1)\n\
         R(A,U,B), T(U), R(C,V,D), T(V) -> H(U,V)",
    )
    .unwrap()
}

#[test]
fn separation_witness_separates_the_classes() {
    let s = separation_witness();
    assert!(!is_weakly_guarded(&s));
    assert_eq!(is_restrictedly_guarded(&s, &pc()), Recognition::Yes);
}

#[test]
fn example19_wg_failure_matches_the_paper() {
    // The paper's WG-side claim about Example 19 holds verbatim; the RG
    // side depends on the per-constraint f (PAPER.md, "Deviations from the
    // paper", D4) and is
    // covered by unit tests in chase-guarded.
    assert!(!is_weakly_guarded(&paper::example19_guarded()));
}

#[test]
fn rg_sets_have_the_guarded_null_property_on_random_orders() {
    // Lemma 7(3): every chase sequence of an RG set has the guarded null
    // property. Drive many random orders through the checker.
    let s = separation_witness();
    let inst = Instance::parse("R(a,b,c). S(b). T(b). T(c). R(c,b,a). R(b,a,c).").unwrap();
    for seed in 0..20 {
        let cfg = ChaseConfig {
            strategy: Strategy::Random { seed },
            keep_trace: true,
            max_steps: Some(2_000),
            ..ChaseConfig::default()
        };
        let res = chase(&inst, &s, &cfg);
        assert!(res.terminated(), "seed {seed}: {:?}", res.reason);
        assert!(
            guarded_null_property(&res.trace, &s, &inst).is_none(),
            "seed {seed}: guarded null property violated"
        );
    }
}

#[test]
fn weakly_guarded_sets_also_have_the_property() {
    // WG ⊆ RG, so Lemma 7(3) applies a fortiori.
    let s = ConstraintSet::parse("S(X) -> E(X,Y), S(Y)").unwrap();
    assert!(is_weakly_guarded(&s));
    let inst = Instance::parse("S(a).").unwrap();
    for seed in 0..5 {
        let cfg = ChaseConfig {
            strategy: Strategy::Random { seed },
            keep_trace: true,
            max_steps: Some(30),
            ..ChaseConfig::default()
        };
        let res = chase(&inst, &s, &cfg);
        // Divergent, but every *prefix* must satisfy the property.
        assert!(guarded_null_property(&res.trace, &s, &inst).is_none());
    }
}

#[test]
fn unguarded_set_violates_the_property() {
    // The contrapositive sanity check for the checker itself.
    let s = ConstraintSet::parse(
        "A(X) -> P(Z)\n\
         B(X) -> Q(Z)\n\
         P(X), Q(Y) -> R(X,Y)",
    )
    .unwrap();
    assert!(!is_weakly_guarded(&s));
    assert_eq!(is_restrictedly_guarded(&s, &pc()), Recognition::No);
    let inst = Instance::parse("A(a). B(b).").unwrap();
    let cfg = ChaseConfig {
        keep_trace: true,
        ..ChaseConfig::default()
    };
    let res = chase(&inst, &s, &cfg);
    assert!(res.terminated());
    assert!(guarded_null_property(&res.trace, &s, &inst).is_some());
}

#[test]
fn kb_query_answering_on_a_guarded_terminating_kb() {
    // End-to-end Section 5 flavor: recognize the class, chase, answer.
    let s = paper::data_exchange_baseline();
    assert!(is_weakly_guarded(&s));
    let kb = Instance::parse("emp(alice,sales).").unwrap();
    let q = ConjunctiveQuery::parse("q(D) <- dept(D)").unwrap();
    let ans = certain_answers(&kb, &s, &q, &ChaseConfig::default()).unwrap();
    assert_eq!(ans, vec![vec![Term::constant("sales")]]);
    // Boolean query over invented values is certain; their identity is not.
    let b = ConjunctiveQuery::parse("q() <- mgr(sales,M)").unwrap();
    let ans = certain_answers(&kb, &s, &b, &ChaseConfig::default()).unwrap();
    assert_eq!(ans.len(), 1);
    let m = ConjunctiveQuery::parse("q(M) <- mgr(sales,M)").unwrap();
    let ans = certain_answers(&kb, &s, &m, &ChaseConfig::default()).unwrap();
    assert!(ans.is_empty());
}
