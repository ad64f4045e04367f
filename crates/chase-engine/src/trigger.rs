//! Trigger enumeration: which constraint instantiations can fire?
//!
//! A *standard* chase step for a TGD applies to `(α, µ)` when `µ` maps the
//! body into the instance and cannot be extended to a head homomorphism; an
//! EGD applies when the body maps and the equated terms differ. An
//! *oblivious* step applies whenever the body maps, regardless of
//! satisfaction.
//!
//! All enumeration here is expressed over a [`Matcher`] — either the
//! `chase-plan` cost-guided join programs (planner on) or the classic
//! backtracking searcher (planner off). Both enumerate the same
//! homomorphism *sets*; since triggers are identified by their normalized
//! assignment and selected canonically, every function whose result is a
//! set or a canonical element is enumeration-order-independent. The legacy
//! free functions keep their historical (searcher-order) behavior by
//! delegating to an unplanned matcher.

use chase_core::fx::FxHashSet;
use chase_core::homomorphism::{for_each_hom, Subst};
use chase_core::{Atom, Constraint, Instance, Sym, Term};
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

/// All active triggers of `c`, deduplicated, in deterministic order.
pub fn active_triggers(c: &Constraint, inst: &Instance) -> Vec<Subst> {
    active_triggers_with(&Matcher::unplanned(), 0, c, inst)
}

/// [`active_triggers`] through a [`Matcher`] (`ci` is the constraint's index
/// in the set the matcher was compiled for; ignored when unplanned).
///
/// The returned *set* of triggers is matcher-independent; the order within
/// the vector follows the matcher's enumeration.
pub fn active_triggers_with(m: &Matcher, ci: usize, c: &Constraint, inst: &Instance) -> Vec<Subst> {
    let mut out: Vec<Subst> = Vec::new();
    let mut seen: FxHashSet<Vec<(Sym, Term)>> = FxHashSet::default();
    m.for_each_body_hom(ci, c, inst, &mut |mu| {
        if m.is_active(ci, c, inst, mu) {
            let key = normalize(c, mu);
            if seen.insert(key) {
                out.push(mu.clone());
            }
        }
        false
    });
    out
}

/// All body homomorphisms of `c` (oblivious triggers), deduplicated.
pub fn oblivious_triggers(c: &Constraint, inst: &Instance) -> Vec<Subst> {
    oblivious_triggers_with(&Matcher::unplanned(), 0, c, inst)
}

/// [`oblivious_triggers`] through a [`Matcher`]; see
/// [`active_triggers_with`] for the `ci` and ordering contract.
pub fn oblivious_triggers_with(
    m: &Matcher,
    ci: usize,
    c: &Constraint,
    inst: &Instance,
) -> Vec<Subst> {
    let mut out: Vec<Subst> = Vec::new();
    let mut seen: FxHashSet<Vec<(Sym, Term)>> = FxHashSet::default();
    m.for_each_body_hom(ci, c, inst, &mut |mu| {
        let key = normalize(c, mu);
        if seen.insert(key) {
            out.push(mu.clone());
        }
        false
    });
    out
}

/// Unify one body atom with one ground fact, extending `seed` — re-exported
/// from `chase_core` so the single-atom semantics live next to the full
/// searcher they must agree with.
pub use chase_core::homomorphism::unify_atom as match_atom;

/// Semi-naive delta enumeration: every body homomorphism of `c` into `inst`
/// that maps at least one body atom onto an atom of `delta` (which must be a
/// subset of `inst`).
///
/// Each body slot is pinned to each delta atom in turn and the remaining
/// body atoms are completed through the regular index-driven searcher, so
/// the cost scales with the delta, not the instance. A match using several
/// delta atoms is reported once per delta atom it uses; callers deduplicate
/// by normalized assignment (they already must, because distinct
/// homomorphisms can normalize to the same trigger).
pub fn for_each_delta_match(
    c: &Constraint,
    inst: &Instance,
    delta: &[Atom],
    cb: &mut dyn FnMut(&Subst) -> bool,
) -> bool {
    Matcher::unplanned().for_each_delta_match(0, c, inst, delta, cb)
}

/// Per-slot "rest of the head": `rests[j]` is the head with atom `j`
/// removed. The engine computes them once per constraint, for the
/// unplanned matching paths.
pub fn head_rests(head: &[Atom]) -> Vec<Vec<Atom>> {
    (0..head.len())
        .map(|j| {
            head.iter()
                .enumerate()
                .filter(|&(k, _)| k != j)
                .map(|(_, b)| b.clone())
                .collect()
        })
        .collect()
}

/// Did adding `added` (already inserted into `inst`) newly satisfy a TGD
/// head under the pooled trigger `mu`?
///
/// Delta-seeded revalidation, symmetric to the body re-match: a *new* head
/// extension must map at least one head atom onto a delta atom, so exactly
/// those pairs are tried — each µ-instantiated head atom is unified with
/// each delta atom (existential variables still free) and the remaining
/// head atoms (`rests`, from [`head_rests`]) are completed through the
/// searcher. This keeps the per-trigger cost at a few O(arity) unifications
/// in the common case instead of a full backtracking extension search per
/// pooled trigger.
pub fn head_newly_satisfied(
    head: &[Atom],
    rests: &[Vec<Atom>],
    inst: &Instance,
    added: &[Atom],
    mu: &Subst,
) -> bool {
    Matcher::unplanned().head_newly_satisfied(0, head, rests, inst, added, mu)
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
    use chase_core::ConstraintSet;

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
        assert_eq!(oblivious_triggers(&set[0], &sat).len(), 1);
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
        // satisfied the head" must coincide with "the trigger is no longer
        // active" — the contract pool revalidation relies on.
        let set = ConstraintSet::parse("S(X) -> E(X,Y), T(Y)").unwrap();
        let c = &set[0];
        let Constraint::Tgd(t) = c else {
            panic!("expected a TGD")
        };
        let mut inst = Instance::parse("S(a). S(b).").unwrap();
        let mus = active_triggers(c, &inst);
        assert_eq!(mus.len(), 2);
        let rests = head_rests(t.head());
        let added = vec![
            Atom::new("E", vec![Term::constant("a"), Term::constant("b")]),
            Atom::new("T", vec![Term::constant("b")]),
        ];
        for a in &added {
            inst.insert(a.clone());
        }
        for mu in &mus {
            assert_eq!(
                head_newly_satisfied(t.head(), &rests, &inst, &added, mu),
                !is_active(c, &inst, mu),
                "disagreement for {mu}"
            );
        }
    }

    #[test]
    fn planned_and_unplanned_trigger_sets_agree() {
        let set = ConstraintSet::parse(
            "E(X,Y), E(Y,Z) -> E(X,Z)\n\
             S(X) -> E(X,Y)\n\
             E(X,Y), E(X,Z) -> Y = Z",
        )
        .unwrap();
        let mut inst = Instance::parse("E(a,b). E(b,c). E(a,c). S(a). S(z).").unwrap();
        let planned = Matcher::planned(&set, &mut inst);
        let unplanned = Matcher::unplanned();
        let keys = |mus: Vec<Subst>, c: &Constraint| {
            let mut v: Vec<Vec<(Sym, Term)>> = mus.iter().map(|mu| normalize(c, mu)).collect();
            v.sort();
            v
        };
        for (ci, c) in set.enumerate() {
            assert_eq!(
                keys(active_triggers_with(&planned, ci, c, &inst), c),
                keys(active_triggers_with(&unplanned, ci, c, &inst), c),
                "active trigger sets differ on constraint {ci}"
            );
            assert_eq!(
                keys(oblivious_triggers_with(&planned, ci, c, &inst), c),
                keys(oblivious_triggers_with(&unplanned, ci, c, &inst), c),
                "oblivious trigger sets differ on constraint {ci}"
            );
            // The legacy free functions are the unplanned path.
            assert_eq!(
                keys(active_triggers(c, &inst), c),
                keys(active_triggers_with(&unplanned, ci, c, &inst), c)
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
