//! Trigger enumeration: which constraint instantiations can fire?
//!
//! A *standard* chase step for a TGD applies to `(α, µ)` when `µ` maps the
//! body into the instance and cannot be extended to a head homomorphism; an
//! EGD applies when the body maps and the equated terms differ. An
//! *oblivious* step applies whenever the body maps, regardless of
//! satisfaction.
//!
//! The engines enumerate triggers through the [`Matcher`]'s compiled
//! `chase-plan` join programs. The functions here answer the same
//! questions directly on chase-core's backtracking searcher, for the
//! callers that work one trigger at a time — breadth-first sequence
//! search ([`crate::bfs`]), the core chase ([`mod@crate::core_of`]) and
//! the step tests.
//! Triggers are identified by their normalized assignment ([`normalize`]),
//! so every result that is a set or a canonical element is independent of
//! enumeration order.

use chase_core::fx::FxHashSet;
use chase_core::homomorphism::{for_each_hom, Subst};
use chase_core::{Constraint, Instance, Sym, Term};
pub use chase_plan::Matcher;

/// Is `(c, µ)` an active (standard-chase) trigger? Assumes `µ` maps the body
/// into `inst`; checks the violation side.
pub fn is_active(c: &Constraint, inst: &Instance, mu: &Subst) -> bool {
    match c {
        Constraint::Tgd(t) => !chase_core::exists_extension(t.head(), inst, mu),
        Constraint::Egd(e) => mu.var(e.left()) != mu.var(e.right()),
    }
}

/// First active trigger of `c` in deterministic search order, if any.
pub fn first_active_trigger(c: &Constraint, inst: &Instance) -> Option<Subst> {
    let mut found = None;
    for_each_hom(c.body(), inst, &Subst::new(), false, &mut |mu| {
        if is_active(c, inst, mu) {
            found = Some(mu.clone());
            true
        } else {
            false
        }
    });
    found
}

/// All active triggers of `c`, deduplicated, in deterministic search order.
pub fn active_triggers(c: &Constraint, inst: &Instance) -> Vec<Subst> {
    let mut out: Vec<Subst> = Vec::new();
    let mut seen: FxHashSet<Vec<(Sym, Term)>> = FxHashSet::default();
    for_each_hom(c.body(), inst, &Subst::new(), false, &mut |mu| {
        if is_active(c, inst, mu) && seen.insert(normalize(c, mu)) {
            out.push(mu.clone());
        }
        false
    });
    out
}

/// Canonical form of an assignment: bindings of the universal variables,
/// sorted by variable name. Two triggers are "the same" iff they agree here.
pub fn normalize(c: &Constraint, mu: &Subst) -> Vec<(Sym, Term)> {
    let mut v: Vec<(Sym, Term)> = c
        .universals()
        .into_iter()
        .filter_map(|u| mu.var(u).map(|t| (u, t)))
        .collect();
    v.sort_by_key(|(s, _)| s.as_str());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::homomorphism::find_all_homs;
    use chase_core::{Atom, ConstraintSet};

    #[test]
    fn tgd_trigger_only_when_violated() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y)").unwrap();
        let sat = Instance::parse("S(a). E(a,b).").unwrap();
        let unsat = Instance::parse("S(a). S(b). E(b,c).").unwrap();
        assert!(first_active_trigger(&set[0], &sat).is_none());
        let mu = first_active_trigger(&set[0], &unsat).unwrap();
        assert_eq!(mu.var(Sym::new("X")), Some(Term::constant("a")));
    }

    #[test]
    fn oblivious_triggers_ignore_satisfaction() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y)").unwrap();
        let sat = Instance::parse("S(a). E(a,b).").unwrap();
        assert_eq!(active_triggers(&set[0], &sat).len(), 0);
        assert_eq!(find_all_homs(set[0].body(), &sat).len(), 1);
    }

    #[test]
    fn egd_trigger_requires_difference() {
        let set = ConstraintSet::parse("E(X,Y), E(X,Z) -> Y = Z").unwrap();
        let same = Instance::parse("E(a,b).").unwrap();
        let diff = Instance::parse("E(a,b). E(a,c).").unwrap();
        assert!(first_active_trigger(&set[0], &same).is_none());
        // (b,c) and (c,b) are two distinct violating assignments.
        assert_eq!(active_triggers(&set[0], &diff).len(), 2);
    }

    #[test]
    fn head_revalidation_agrees_with_activity_check() {
        // For a trigger that was violated before the delta, "the delta newly
        // satisfied the head" (the matcher's delta-seeded revalidation) must
        // coincide with "the trigger is no longer active" (the searcher's
        // extension test) — the contract pool revalidation relies on.
        let set = ConstraintSet::parse("S(X) -> E(X,Y), T(Y)").unwrap();
        let c = &set[0];
        let Constraint::Tgd(t) = c else {
            panic!("expected a TGD")
        };
        let mut inst = Instance::parse("S(a). S(b).").unwrap();
        let mus = active_triggers(c, &inst);
        assert_eq!(mus.len(), 2);
        let matcher = Matcher::planned(&set, &mut inst);
        let added = vec![
            Atom::new("E", vec![Term::constant("a"), Term::constant("b")]),
            Atom::new("T", vec![Term::constant("b")]),
        ];
        for a in &added {
            inst.insert(a.clone());
        }
        for mu in &mus {
            assert_eq!(
                matcher.head_newly_satisfied(0, t.head(), &inst, &added, mu),
                !is_active(c, &inst, mu),
                "disagreement for {mu}"
            );
        }
    }

    #[test]
    fn planned_trigger_sets_agree_with_the_searcher() {
        let set = ConstraintSet::parse(
            "E(X,Y), E(Y,Z) -> E(X,Z)\n\
             S(X) -> E(X,Y)\n\
             E(X,Y), E(X,Z) -> Y = Z",
        )
        .unwrap();
        let mut inst = Instance::parse("E(a,b). E(b,c). E(a,c). S(a). S(z).").unwrap();
        let planned = Matcher::planned(&set, &mut inst);
        let keys = |mus: &[Subst], c: &Constraint| {
            let mut v: Vec<Vec<(Sym, Term)>> = mus.iter().map(|mu| normalize(c, mu)).collect();
            v.sort();
            v.dedup();
            v
        };
        for (ci, c) in set.enumerate() {
            let mut body = Vec::new();
            planned.for_each_body_hom(ci, &inst, &mut |mu| {
                body.push(mu.clone());
                false
            });
            let active: Vec<Subst> = body
                .iter()
                .filter(|mu| planned.is_active(ci, c, &inst, mu))
                .cloned()
                .collect();
            assert_eq!(
                keys(&active, c),
                keys(&active_triggers(c, &inst), c),
                "active trigger sets differ on constraint {ci}"
            );
            assert_eq!(
                keys(&body, c),
                keys(&find_all_homs(c.body(), &inst), c),
                "oblivious trigger sets differ on constraint {ci}"
            );
        }
    }

    #[test]
    fn triggers_are_deduplicated() {
        // The body has one atom; three matching facts, all violating.
        let set = ConstraintSet::parse("S(X) -> T(X,Y)").unwrap();
        let inst = Instance::parse("S(a). S(b). S(c).").unwrap();
        assert_eq!(active_triggers(&set[0], &inst).len(), 3);
    }
}
