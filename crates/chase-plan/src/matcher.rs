//! The [`Matcher`]: per-constraint plan cache with stats-epoch invalidation.
//!
//! A matcher is bound to one [`ConstraintSet`] and caches, per constraint
//! id:
//!
//! * the **full-body** program (pool rebuilds, naive re-enumeration),
//! * one **delta-body** program per body slot (the slot's atom pinned to a
//!   delta fact, its variables seeding the rest of the body — the
//!   semi-naive re-matching path),
//! * the **head** program for TGDs (the `exists_extension` activity check,
//!   universal variables seeded),
//! * one **head-rest** program per head slot (per-trigger revalidation:
//!   the slot's atom unified with a delta fact under a pooled trigger's
//!   universals, the rest completed),
//! * one **head-delta** program per head slot (the mirror of the
//!   delta-body programs: the slot's atom pinned to a delta fact, only its
//!   variables seeding the rest of the head — the O(delta) revalidation
//!   path enumerates head matches through it and probes the trigger pool
//!   by their frontier bindings). These compile on first use
//!   ([`Matcher::prepare_head_delta`]) rather than with the rest: most
//!   small chases never enumerate head matches, and compiling is a fixed
//!   cost on every one of them.
//!
//! Plans are recompiled when the instance's [`Instance::stats_epoch`]
//! changes (each doubling — or merge-driven halving — of the fact count)
//! or when the matcher is handed a different constraint set; recompilation
//! also registers the composite indexes the new plans want. Merges are
//! *not* a recompile trigger on their own: the store maintains its
//! cardinality and distinct-count statistics incrementally through
//! [`Instance::merge_terms`], so a merge that leaves the stats epoch alone
//! leaves the plans exactly as good as they were.
//!
//! An **unplanned** matcher ([`Matcher::unplanned`]) answers every query
//! through the classic backtracking searcher instead — the planner-off
//! reference the equivalence tests pin traces against. Either way the same
//! homomorphism sets come back; only enumeration order and cost differ, and
//! the engines' canonical (normalized-key) trigger selection makes traces
//! independent of enumeration order.

use crate::exec::{exists_match, for_each_match};
use crate::plan::{compile, JoinProgram};
use chase_core::homomorphism::{exists_extension, for_each_hom, unify_atom, Subst};
use chase_core::{Atom, Constraint, ConstraintSet, Instance, Sym};
use chase_obs::{EventKind, Phase, Recorder};

/// Compiled programs for one constraint.
#[derive(Debug, Clone)]
pub struct ConstraintPlans {
    /// Full-body enumeration.
    pub body: JoinProgram,
    /// Per body slot `j`: the body without atom `j`, atom `j`'s variables
    /// seeded.
    pub body_delta: Vec<JoinProgram>,
    /// TGD head, universal variables seeded (`None` for EGDs).
    pub head: Option<JoinProgram>,
    /// Per head slot `j`: the head without atom `j`, universals plus atom
    /// `j`'s variables seeded.
    pub head_rests: Vec<JoinProgram>,
    /// Per head slot `j`: the head without atom `j`, only atom `j`'s
    /// variables seeded (the head-side mirror of `body_delta`). Empty until
    /// [`Matcher::prepare_head_delta`] compiles it.
    pub head_delta: Vec<JoinProgram>,
}

fn without(atoms: &[Atom], j: usize) -> Vec<Atom> {
    atoms
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != j)
        .map(|(_, a)| a.clone())
        .collect()
}

fn compile_constraint(c: &Constraint, stats: &Instance) -> ConstraintPlans {
    let body = c.body();
    let body_plan = compile(body, &[], stats);
    let body_delta = (0..body.len())
        .map(|j| compile(&without(body, j), &body[j].vars(), stats))
        .collect();
    let (head, head_rests) = match c {
        Constraint::Tgd(t) => {
            let universals = t.universals();
            let head_plan = compile(t.head(), universals, stats);
            let rests = (0..t.head().len())
                .map(|j| {
                    let mut seed: Vec<Sym> = universals.to_vec();
                    for v in t.head()[j].vars() {
                        if !seed.contains(&v) {
                            seed.push(v);
                        }
                    }
                    compile(&without(t.head(), j), &seed, stats)
                })
                .collect();
            (Some(head_plan), rests)
        }
        Constraint::Egd(_) => (None, Vec::new()),
    };
    ConstraintPlans {
        body: body_plan,
        body_delta,
        head,
        head_rests,
        head_delta: Vec::new(),
    }
}

/// A planner-on cache: the compiled programs plus everything needed to
/// decide staleness — the set they were compiled from and the instance
/// statistics stamp at compile time.
#[derive(Debug, Clone)]
struct PlanCache {
    /// The constraint set the plans belong to; compared on refresh so a
    /// matcher handed a different set recompiles instead of silently
    /// executing the wrong programs.
    set: ConstraintSet,
    plans: Vec<ConstraintPlans>,
    /// [`Instance::stats_epoch`] at compile time; `None` forces a
    /// recompile at the next [`Matcher::refresh`].
    stamp: Option<u32>,
    /// How many times the cache has recompiled — the observable behind the
    /// serving layer's "plan caches are reused across update epochs" pin
    /// ([`Matcher::recompile_count`]).
    recompiles: u64,
}

/// The matching engine handle threaded through trigger enumeration: either
/// a plan cache (planner on) or a marker that routes every query through
/// the unplanned backtracking searcher (planner off).
#[derive(Debug, Clone)]
pub struct Matcher {
    /// `None` = unplanned.
    cache: Option<PlanCache>,
    /// Telemetry sink for plan-compile timings and recompile events;
    /// write-only (never consulted by planning), so it cannot perturb plan
    /// choice or enumeration order. Disabled by default.
    recorder: Recorder,
}

impl Matcher {
    /// A planner-off matcher: every query runs the classic searcher.
    pub fn unplanned() -> Matcher {
        Matcher {
            cache: None,
            recorder: Recorder::disabled(),
        }
    }

    /// A planner-on matcher for `set`, compiled against `inst`'s current
    /// statistics (and registering the composite indexes the plans want).
    pub fn planned(set: &ConstraintSet, inst: &mut Instance) -> Matcher {
        Matcher::planned_with(set, inst, Recorder::disabled())
    }

    /// [`Matcher::planned`], with a telemetry recorder installed before the
    /// initial compile so the first `PlanCompile` phase is captured too.
    pub fn planned_with(set: &ConstraintSet, inst: &mut Instance, recorder: Recorder) -> Matcher {
        let mut m = Matcher {
            cache: Some(PlanCache {
                set: set.clone(),
                plans: Vec::new(),
                stamp: None,
                recompiles: 0,
            }),
            recorder,
        };
        m.refresh(set, inst);
        m
    }

    /// Install a telemetry recorder (timing of future plan compiles).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Is the planner on?
    pub fn is_planned(&self) -> bool {
        self.cache.is_some()
    }

    /// The compiled plans for constraint `ci`, if the planner is on (for
    /// `EXPLAIN` dumps and tests).
    pub fn plans(&self, ci: usize) -> Option<&ConstraintPlans> {
        self.cache.as_ref().map(|c| &c.plans[ci])
    }

    /// How many times the plan cache has recompiled (0 for unplanned
    /// matchers). A stable count across calls that *could* have recompiled
    /// — e.g. update batches that only duplicate existing facts — is the
    /// observable the serving layer's plan-cache-reuse tests pin.
    pub fn recompile_count(&self) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.recompiles)
    }

    /// Force recompilation at the next [`Matcher::refresh`].
    pub fn invalidate(&mut self) {
        if let Some(cache) = &mut self.cache {
            cache.stamp = None;
        }
    }

    /// Recompile the plans if they are stale — the instance's statistics
    /// epoch moved (a fact-count doubling, or a merge collapsing the count
    /// past a power of two), the constraint set differs from the one
    /// compiled for, or [`Matcher::invalidate`] was called. Merges alone
    /// don't invalidate: the store keeps its statistics current through
    /// [`Instance::merge_terms`], so [`Instance::merge_epoch`] is an
    /// observability counter here, not a staleness input. Registers any
    /// composite indexes the fresh plans want. Returns `true` if a
    /// recompile happened. No-op for unplanned matchers.
    ///
    /// Stale plans compiled from the *same* set are never incorrect — the
    /// executor re-verifies every candidate — so skipping refresh only
    /// costs speed. A changed set, however, would execute the wrong
    /// programs, which is why refresh compares it.
    pub fn refresh(&mut self, set: &ConstraintSet, inst: &mut Instance) -> bool {
        let Some(cache) = &mut self.cache else {
            return false;
        };
        let stamp = inst.stats_epoch();
        // The structural set comparison runs on every call, including the
        // per-step fast path — deliberately: a same-length different set
        // with an unchanged stamp would otherwise keep executing the wrong
        // programs, and constraint sets are at most dozens of small atoms
        // (`Vec` equality length-checks first), which is noise next to one
        // chase step's matching work.
        if cache.stamp == Some(stamp) && cache.set == *set {
            return false;
        }
        if cache.set != *set {
            cache.set = set.clone();
        }
        let _t = self.recorder.phase(Phase::PlanCompile);
        cache.plans = set.iter().map(|c| compile_constraint(c, inst)).collect();
        cache.recompiles += 1;
        self.recorder
            .event(EventKind::PlanRecompile, cache.recompiles, u64::from(stamp));
        for cp in &cache.plans {
            let programs = std::iter::once(&cp.body)
                .chain(&cp.body_delta)
                .chain(&cp.head)
                .chain(&cp.head_rests);
            for prog in programs {
                for (pred, mask) in prog.needed_composites() {
                    inst.register_composite(pred, mask);
                }
            }
        }
        cache.stamp = Some(stamp);
        true
    }

    /// Enumerate every body homomorphism of constraint `ci` extending the
    /// empty substitution. Same set as
    /// [`for_each_hom`]`(c.body(), inst, ..)`; order is plan-dependent.
    pub fn for_each_body_hom(
        &self,
        ci: usize,
        c: &Constraint,
        inst: &Instance,
        cb: &mut dyn FnMut(&Subst) -> bool,
    ) -> bool {
        match &self.cache {
            Some(cache) => for_each_match(&cache.plans[ci].body, inst, &Subst::new(), cb),
            None => for_each_hom(c.body(), inst, &Subst::new(), false, cb),
        }
    }

    /// Semi-naive delta enumeration for constraint `ci`: every body
    /// homomorphism mapping at least one body atom onto an atom of `delta`
    /// (a subset of `inst`), reported once per delta atom it uses — the
    /// same contract as `chase_engine::trigger::for_each_delta_match`.
    pub fn for_each_delta_match(
        &self,
        ci: usize,
        c: &Constraint,
        inst: &Instance,
        delta: &[Atom],
        cb: &mut dyn FnMut(&Subst) -> bool,
    ) -> bool {
        let body = c.body();
        match &self.cache {
            Some(cache) => {
                for (j, pattern) in body.iter().enumerate() {
                    for a in delta {
                        let Some(mu0) = unify_atom(pattern, a, &Subst::new()) else {
                            continue;
                        };
                        if for_each_match(&cache.plans[ci].body_delta[j], inst, &mu0, cb) {
                            return true;
                        }
                    }
                }
                false
            }
            None => {
                for (j, pattern) in body.iter().enumerate() {
                    let mut rest: Vec<Atom> = Vec::new();
                    let mut have_rest = false;
                    for a in delta {
                        let Some(mu0) = unify_atom(pattern, a, &Subst::new()) else {
                            continue;
                        };
                        if !have_rest {
                            rest = without(body, j);
                            have_rest = true;
                        }
                        if for_each_hom(&rest, inst, &mu0, false, cb) {
                            return true;
                        }
                    }
                }
                false
            }
        }
    }

    /// Can the TGD head of constraint `ci` be satisfied under `mu` — the
    /// `exists_extension` activity check.
    ///
    /// # Panics
    /// Planner on: panics if `ci` is not a TGD (EGDs have no head plan).
    pub fn head_satisfiable(&self, ci: usize, head: &[Atom], inst: &Instance, mu: &Subst) -> bool {
        match &self.cache {
            Some(cache) => exists_match(
                cache.plans[ci].head.as_ref().expect("head plan for a TGD"),
                inst,
                mu,
            ),
            None => exists_extension(head, inst, mu),
        }
    }

    /// Is `(ci, µ)` an active (standard-chase) trigger? Assumes `µ` maps the
    /// body into `inst` — the matcher-aware form of
    /// `chase_engine::trigger::is_active`.
    pub fn is_active(&self, ci: usize, c: &Constraint, inst: &Instance, mu: &Subst) -> bool {
        match c {
            Constraint::Tgd(t) => !self.head_satisfiable(ci, t.head(), inst, mu),
            Constraint::Egd(e) => mu.var(e.left()) != mu.var(e.right()),
        }
    }

    /// Compile TGD `ci`'s head-delta programs against `inst`'s statistics,
    /// registering the composite indexes they want, unless they are
    /// compiled already; they then live until the next recompile. Call it
    /// before [`Matcher::for_each_head_delta_match`]. No-op for unplanned
    /// matchers.
    pub fn prepare_head_delta(&mut self, ci: usize, head: &[Atom], inst: &mut Instance) {
        let Some(cache) = &mut self.cache else {
            return;
        };
        let plans = &mut cache.plans[ci];
        if !plans.head_delta.is_empty() {
            return;
        }
        let _t = self.recorder.phase(Phase::PlanCompile);
        plans.head_delta = (0..head.len())
            .map(|j| compile(&without(head, j), &head[j].vars(), inst))
            .collect();
        for prog in &plans.head_delta {
            for (pred, mask) in prog.needed_composites() {
                inst.register_composite(pred, mask);
            }
        }
    }

    /// Head-side semi-naive enumeration for TGD `ci`: every homomorphism of
    /// the head into `inst` that maps head slot `j` onto the delta fact `a`
    /// — the mirror of [`Matcher::for_each_delta_match`] for one
    /// `(slot, fact)` pair. Only `a`'s unifier seeds the rest of the head
    /// (`rests[j]`, the head without atom `j`, consulted on the unplanned
    /// path only), so the matches are independent of any trigger; the
    /// revalidation pass probes the trigger pool with their frontier
    /// bindings. Returns `true` iff the callback stopped the enumeration.
    ///
    /// # Panics
    /// Planner on: panics unless [`Matcher::prepare_head_delta`] compiled
    /// `ci`'s programs since the last recompile.
    #[allow(clippy::too_many_arguments)]
    pub fn for_each_head_delta_match(
        &self,
        ci: usize,
        head: &[Atom],
        rests: &[Vec<Atom>],
        j: usize,
        inst: &Instance,
        a: &Atom,
        cb: &mut dyn FnMut(&Subst) -> bool,
    ) -> bool {
        let Some(nu0) = unify_atom(&head[j], a, &Subst::new()) else {
            return false;
        };
        match &self.cache {
            Some(cache) => {
                let prog = cache.plans[ci].head_delta.get(j);
                for_each_match(prog.expect("head-delta programs prepared"), inst, &nu0, cb)
            }
            None => for_each_hom(&rests[j], inst, &nu0, false, cb),
        }
    }

    /// Does the pooled trigger `mu` of TGD `ci` extend to a head match that
    /// maps head slot `j` onto the fact `a` (already in `inst`)? `rests[j]`
    /// is the head with atom `j` removed and is only consulted on the
    /// unplanned path (the planned path has its own per-slot programs).
    #[allow(clippy::too_many_arguments)]
    pub fn head_satisfied_via(
        &self,
        ci: usize,
        head: &[Atom],
        rests: &[Vec<Atom>],
        j: usize,
        inst: &Instance,
        a: &Atom,
        mu: &Subst,
    ) -> bool {
        let Some(nu0) = unify_atom(&mu.apply_atom(&head[j]), a, &Subst::new()) else {
            return false;
        };
        let mut seed = mu.clone();
        for (v, term) in nu0.var_bindings() {
            seed.bind_var(v, term);
        }
        match &self.cache {
            Some(cache) => exists_match(&cache.plans[ci].head_rests[j], inst, &seed),
            None => exists_extension(&rests[j], inst, &seed),
        }
    }

    /// Did adding `added` (already inserted into `inst`) newly satisfy the
    /// TGD head of `ci` under the pooled trigger `mu`? Matcher-aware form of
    /// `chase_engine::trigger::head_newly_satisfied`: a new head extension
    /// maps some slot onto some added fact, so this is
    /// [`Matcher::head_satisfied_via`] over every `(slot, fact)` pair.
    pub fn head_newly_satisfied(
        &self,
        ci: usize,
        head: &[Atom],
        rests: &[Vec<Atom>],
        inst: &Instance,
        added: &[Atom],
        mu: &Subst,
    ) -> bool {
        (0..head.len()).any(|j| {
            added
                .iter()
                .any(|a| self.head_satisfied_via(ci, head, rests, j, inst, a, mu))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::homomorphism::find_all_homs;
    use chase_core::Term;

    fn sorted_bindings(homs: Vec<Subst>) -> Vec<Vec<(Sym, Term)>> {
        let mut v: Vec<Vec<(Sym, Term)>> = homs.into_iter().map(|m| m.var_bindings()).collect();
        v.sort();
        v
    }

    #[test]
    fn planned_and_unplanned_matchers_agree() {
        let set = ConstraintSet::parse(
            "E(X,Y), E(Y,Z) -> E(X,Z)\n\
             S(X), E(X,Y) -> E(Y,X)\n\
             E(X,Y), E(X,Z) -> Y = Z",
        )
        .unwrap();
        let mut inst = Instance::parse("E(a,b). E(b,c). E(c,d). E(a,c). S(a). S(c).").unwrap();
        let planned = Matcher::planned(&set, &mut inst);
        let unplanned = Matcher::unplanned();
        for (ci, c) in set.enumerate() {
            let mut a = Vec::new();
            planned.for_each_body_hom(ci, c, &inst, &mut |mu| {
                a.push(mu.clone());
                false
            });
            let mut b = Vec::new();
            unplanned.for_each_body_hom(ci, c, &inst, &mut |mu| {
                b.push(mu.clone());
                false
            });
            assert_eq!(
                sorted_bindings(a.clone()),
                sorted_bindings(b),
                "body homs differ on constraint {ci}"
            );
            assert_eq!(
                sorted_bindings(a),
                sorted_bindings(find_all_homs(c.body(), &inst)),
                "planned matcher diverges from find_all_homs on {ci}"
            );
            // Activity agrees hom by hom.
            for mu in find_all_homs(c.body(), &inst) {
                assert_eq!(
                    planned.is_active(ci, c, &inst, &mu),
                    unplanned.is_active(ci, c, &inst, &mu)
                );
            }
        }
    }

    #[test]
    fn delta_matching_agrees_and_counts_multiplicity() {
        let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let mut inst = Instance::parse("E(a,b). E(b,c). E(c,d).").unwrap();
        let delta = vec![Atom::new(
            "E",
            vec![Term::constant("b"), Term::constant("c")],
        )];
        let planned = Matcher::planned(&set, &mut inst);
        let unplanned = Matcher::unplanned();
        let collect = |m: &Matcher| {
            let mut out = Vec::new();
            m.for_each_delta_match(0, &set[0], &inst, &delta, &mut |mu| {
                out.push(mu.clone());
                false
            });
            sorted_bindings(out)
        };
        let a = collect(&planned);
        let b = collect(&unplanned);
        assert_eq!(a, b);
        // E(b,c) seeds both slots: (a,b,c) via slot 1 and (b,c,d) via slot 0.
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn refresh_recompiles_on_staleness_only() {
        let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let mut inst = Instance::parse("E(a,b). E(b,c).").unwrap();
        let mut m = Matcher::planned(&set, &mut inst);
        assert_eq!(m.recompile_count(), 1, "planned() compiles once");
        assert!(!m.refresh(&set, &mut inst), "same stamp: no recompile");
        assert_eq!(m.recompile_count(), 1);
        inst.insert(Atom::new(
            "E",
            vec![Term::constant("c"), Term::constant("d")],
        ));
        inst.insert(Atom::new(
            "E",
            vec![Term::constant("d"), Term::constant("e")],
        ));
        assert!(m.refresh(&set, &mut inst), "len doubled: epoch moved");
        // A merge that keeps the fact count inside the same epoch does NOT
        // recompile — the store's statistics are maintained incrementally,
        // so the compiled plans are as good as they were.
        inst.insert(Atom::new("E", vec![Term::constant("d"), Term::null(0)]));
        m.refresh(&set, &mut inst);
        let before = m.recompile_count();
        let eff = inst.merge_terms(Term::null(0), Term::constant("e"));
        assert_eq!(eff.collapsed, 1, "E(d,_n0) collapses onto E(d,e)");
        assert!(
            !m.refresh(&set, &mut inst),
            "same-epoch merge: no recompile"
        );
        assert_eq!(m.recompile_count(), before);
        m.invalidate();
        assert!(m.refresh(&set, &mut inst), "invalidate forces recompile");
        assert_eq!(m.recompile_count(), before + 1, "one count per recompile");
        assert!(!Matcher::unplanned().refresh(&set, &mut inst));
        assert_eq!(Matcher::unplanned().recompile_count(), 0);
    }

    #[test]
    fn no_occurrence_merge_is_invisible_to_plans() {
        // Satellite regression: merging away a term that occurs in no fact
        // must be a true no-op — no merge-epoch bump, no recompile.
        let set = ConstraintSet::parse("E(X,Y), E(X,Z) -> Y = Z").unwrap();
        let mut inst = Instance::parse("E(a,b). E(b,c).").unwrap();
        let mut m = Matcher::planned(&set, &mut inst);
        let before = m.recompile_count();
        let epoch = inst.merge_epoch();
        let eff = inst.merge_terms(Term::null(7), Term::constant("b"));
        assert!(eff.is_noop());
        assert_eq!(inst.merge_epoch(), epoch, "no-op merge leaves merge_epoch");
        assert!(
            !m.refresh(&set, &mut inst),
            "no-op merge: nothing to refresh"
        );
        assert_eq!(m.recompile_count(), before);
    }

    #[test]
    fn refresh_recompiles_for_a_different_set() {
        // Same length, different constraints: the cache must not keep the
        // old programs.
        let set_a = ConstraintSet::parse("E(X,Y) -> E(Y,X)").unwrap();
        let set_b = ConstraintSet::parse("S(X) -> E(X,Y)").unwrap();
        let mut inst = Instance::parse("E(a,b). S(a). S(b).").unwrap();
        let mut m = Matcher::planned(&set_a, &mut inst);
        assert!(m.refresh(&set_b, &mut inst), "set change forces recompile");
        let mut homs = Vec::new();
        m.for_each_body_hom(0, &set_b[0], &inst, &mut |mu| {
            homs.push(mu.var_bindings());
            false
        });
        homs.sort();
        assert_eq!(homs.len(), 2, "S(X) matches S(a), S(b)");
        assert!(!m.refresh(&set_b, &mut inst), "now in sync with set_b");
    }

    #[test]
    fn head_delta_matching_agrees() {
        // Slot 1's fact T(b) seeds Y only; the rest E(X,b) has two matches.
        let set = ConstraintSet::parse("S(X) -> E(X,Y), T(Y)").unwrap();
        let t = set[0].as_tgd().unwrap();
        let mut inst = Instance::parse("S(a). E(a,b). E(c,b). E(a,d). T(b).").unwrap();
        let mut planned = Matcher::planned(&set, &mut inst);
        planned.prepare_head_delta(0, t.head(), &mut inst);
        let rests: Vec<Vec<Atom>> = (0..t.head().len()).map(|j| without(t.head(), j)).collect();
        let fact = Atom::new("T", vec![Term::constant("b")]);
        let collect = |m: &Matcher, j: usize| {
            let mut out = Vec::new();
            m.for_each_head_delta_match(0, t.head(), &rests, j, &inst, &fact, &mut |h| {
                out.push(h.clone());
                false
            });
            sorted_bindings(out)
        };
        let homs = collect(&planned, 1);
        assert_eq!(homs, collect(&Matcher::unplanned(), 1));
        assert_eq!(homs.len(), 2, "E(a,b) and E(c,b): {homs:?}");
        assert!(
            collect(&planned, 0).is_empty(),
            "T(b) does not unify with E(X,Y)"
        );
    }

    #[test]
    fn head_revalidation_matches_activity_flip() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y), T(Y)").unwrap();
        let c = &set[0];
        let t = c.as_tgd().unwrap();
        let mut inst = Instance::parse("S(a). S(b).").unwrap();
        let planned = Matcher::planned(&set, &mut inst);
        let mut mus = Vec::new();
        planned.for_each_body_hom(0, c, &inst, &mut |mu| {
            mus.push(mu.clone());
            false
        });
        assert_eq!(mus.len(), 2);
        let rests: Vec<Vec<Atom>> = (0..t.head().len()).map(|j| without(t.head(), j)).collect();
        let added = vec![
            Atom::new("E", vec![Term::constant("a"), Term::constant("b")]),
            Atom::new("T", vec![Term::constant("b")]),
        ];
        for a in &added {
            inst.insert(a.clone());
        }
        for mu in &mus {
            let newly = planned.head_newly_satisfied(0, t.head(), &rests, &inst, &added, mu);
            assert_eq!(
                newly,
                !planned.is_active(0, c, &inst, mu),
                "revalidation and activity disagree for {mu}"
            );
            assert_eq!(
                newly,
                Matcher::unplanned().head_newly_satisfied(0, t.head(), &rests, &inst, &added, mu)
            );
        }
    }
}
