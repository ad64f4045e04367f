//! Every named artifact of the paper, by section.
//!
//! Variable names follow the paper (x1 → `X1`); constraint order inside each
//! set follows the paper's numbering, so index `i` is the paper's `α(i+1)`.

use chase_core::{ConjunctiveQuery, ConstraintSet, Instance};

fn set(text: &str) -> ConstraintSet {
    ConstraintSet::parse(text).expect("corpus constraint set parses")
}

fn inst(text: &str) -> Instance {
    Instance::parse(text).expect("corpus instance parses")
}

/// Introduction, α1: every special node has an outgoing edge. Terminating.
pub fn intro_alpha1() -> ConstraintSet {
    set("S(X) -> E(X,Y)")
}

/// Introduction, α2: every special node links to a special node.
/// Non-terminating on [`intro_instance`].
pub fn intro_alpha2() -> ConstraintSet {
    set("S(X) -> E(X,Y), S(Y)")
}

/// Introduction, α3 (idea 2): harmless nulls — `S` bounds the cascade.
pub fn intro_alpha3() -> ConstraintSet {
    set("S(X), E(X,Y) -> E(Z,X)")
}

/// Introduction, the running instance `I = {S(n1), S(n2), E(n1,n2)}`
/// (`n1`, `n2` are constants in the paper's narrative).
pub fn intro_instance() -> Instance {
    inst("S(n1). S(n2). E(n1,n2).")
}

/// Introduction, idea 3: β1, β2 — cycle lengths 2 and 3 for special nodes.
/// No condition before this paper recognizes termination (= Example 10's Σ).
pub fn intro_flow_set() -> ConstraintSet {
    example10_sigma()
}

/// Figure 2: the motivating constraint
/// `S(x2), E(x1,x2) → ∃y E(y,x1)` — every predecessor of a special node has
/// a predecessor. In `T[3] \ T[2]`.
pub fn fig2_sigma() -> ConstraintSet {
    set("S(X2), E(X1,X2) -> E(Y,X1)")
}

/// Example 2/3 and 6: γ — every node on a 2-cycle lies on a 3-cycle.
/// Stratified (γ ⊀ γ) but not weakly acyclic, and not safe (Theorem 4).
pub fn example2_gamma() -> ConstraintSet {
    set("E(X1,X2), E(X2,X1) -> E(X1,Y1), E(Y1,Y2), E(Y2,X1)")
}

/// Example 4: Σ = {α1, α2, α3, α4} — stratified, yet the cyclic order
/// α1, α2, α3, α4, … diverges from `{R(a)}`. The paper's counterexample to
/// the termination claim of \[9\].
pub fn example4_sigma() -> ConstraintSet {
    set("R(X1) -> S(X1,X1)\n\
         S(X1,X2) -> T(X2,Z)\n\
         S(X1,X2) -> T(X1,X2), T(X2,X1)\n\
         T(X1,X2), T(X1,X3), T(X3,X1) -> R(X2)")
}

/// Example 4's instance `{R(a)}`.
pub fn example4_instance() -> Instance {
    inst("R(a).")
}

/// Example 5's instance `{R(a), T(b,b)}`.
pub fn example5_instance() -> Instance {
    inst("R(a). T(b,b).")
}

/// Example 5's terminating result
/// `{R(a), T(b,b), S(a,a), T(a,a), R(b), S(b,b)}`.
pub fn example5_expected_result() -> Instance {
    inst("R(a). T(b,b). S(a,a). T(a,a). R(b). S(b,b).")
}

/// Examples 8/9, Figure 6: β = `R(x1,x2,x3), S(x2) → ∃y R(x2,y,x1)` —
/// safe but not weakly acyclic.
pub fn safety_beta() -> ConstraintSet {
    set("R(X1,X2,X3), S(X2) -> R(X2,Y,X1)")
}

/// Theorem 4(c): {α, β} — safe but not (c-)stratified.
pub fn thm4_safe_not_stratified() -> ConstraintSet {
    set("S(X2,X3), R(X1,X2,X3) -> R(X2,Y,X1)\n\
         R(X1,X2,X3) -> S(X1,X3)")
}

/// Example 10/12: Σ = {α1, α2} — special nodes have 2- and 3-cycles.
/// Neither safe nor stratified; safely restricted.
pub fn example10_sigma() -> ConstraintSet {
    set("S(X), E(X,Y) -> E(Y,X)\n\
         S(X), E(X,Y) -> E(Y,Z), E(Z,X)")
}

/// Example 13: Σ' = Σ ∪ {α3}, α3 = `∃x,y S(x), E(x,y)` — inductively
/// restricted but not safely restricted.
pub fn example13_sigma_prime() -> ConstraintSet {
    set("S(X), E(X,Y) -> E(Y,X)\n\
         S(X), E(X,Y) -> E(Y,Z), E(Z,X)\n\
         -> S(X), E(X,Y)")
}

/// Section 3.7: Σ'' = Σ' ∪ {α4, α5} — the worked input of the `check`
/// algorithm.
pub fn sec37_sigma_dprime() -> ConstraintSet {
    set("S(X), E(X,Y) -> E(Y,X)\n\
         S(X), E(X,Y) -> E(Y,Z), E(Z,X)\n\
         -> S(X), E(X,Y)\n\
         E(X1,X2) -> T(X1,X2)\n\
         T(X1,X2) -> T(X2,X1)")
}

/// The Example 15 family, parameterized by the arity `n ≥ 2` of `R`:
/// `S(x_n), R(x1, …, x_n) → ∃y R(y, x1, …, x_{n−1})`.
///
/// Genuine firing chains have at most `n − 1` steps, so the set sits at
/// hierarchy level `T[n+1] \ T[n]` (the paper's Figure 2 anchor: arity 2 is
/// in `T[3]`; the prose of Example 15 is off by one against that anchor —
/// PAPER.md, "Deviations from the paper", D10).
pub fn sigma_family(arity: usize) -> ConstraintSet {
    assert!(arity >= 2, "the family starts at arity 2");
    let body_vars: Vec<String> = (1..=arity).map(|i| format!("X{i}")).collect();
    let head_vars: Vec<String> = std::iter::once("Y".to_owned())
        .chain((1..arity).map(|i| format!("X{i}")))
        .collect();
    set(&format!(
        "S(X{arity}), R({}) -> R({})",
        body_vars.join(","),
        head_vars.join(",")
    ))
}

/// Proposition 11's family `(Σk, Ik)`:
/// `Σk = {S(x_k), R(x1,…,x_k) → ∃y R(y, x1, …, x_{k−1})}` and
/// `Ik = {S(c1), …, S(c_k), R(c1, …, c_k)}`. Every chase sequence is
/// `(k−1)`-cyclic but not `k`-cyclic.
pub fn prop11_family(k: usize) -> (ConstraintSet, Instance) {
    assert!(k >= 2);
    let sigma = sigma_family(k);
    let mut text = String::new();
    for i in 1..=k {
        text.push_str(&format!("S(c{i}). "));
    }
    let consts: Vec<String> = (1..=k).map(|i| format!("c{i}")).collect();
    text.push_str(&format!("R({}).", consts.join(",")));
    (sigma, inst(&text))
}

/// Example 17's instance for `Σ3` (arity 3): `{S(a1), S(a2), S(a3),
/// R(a1,a2,a3)}`.
pub fn example17_instance() -> Instance {
    inst("S(a1). S(a2). S(a3). R(a1,a2,a3).")
}

/// Figure 9: the travel-agency constraints α1–α3.
pub fn fig9_travel() -> ConstraintSet {
    set("fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2)\n\
         rail(C1,C2,D) -> rail(C2,C1,D)\n\
         fly(C1,C2,D) -> fly(C2,C3,D2)")
}

/// Section 4's query q1: cities reachable from `c1` via rail-and-fly.
/// Chasing it with Σ(fig9) diverges.
pub fn q1() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("rf(X2) <- rail(c1,X1,Y1), fly(X1,X2,Y2)").expect("q1 parses")
}

/// Section 4's query q2: rail-and-fly there, same route back.
/// Chasing it with Σ(fig9) terminates (Example 16).
pub fn q2() -> ConjunctiveQuery {
    ConjunctiveQuery::parse(
        "rffr(X2) <- rail(c1,X1,Y1), fly(X1,X2,Y2), fly(X2,X1,Y2), rail(X1,c1,Y1)",
    )
    .expect("q2 parses")
}

/// Section 4's universal plan q2' (q2 after chasing with α1).
pub fn q2_universal_plan() -> ConjunctiveQuery {
    ConjunctiveQuery::parse(
        "rffr(X2) <- rail(c1,X1,Y1), fly(X1,X2,Y2), fly(X2,X1,Y2), rail(X1,c1,Y1), \
         hasAirport(X1), hasAirport(X2)",
    )
    .expect("q2' parses")
}

/// Section 4's rewriting q2'' (join elimination).
pub fn q2_rewritten() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("rffr(X2) <- rail(c1,X1,Y1), fly(X1,X2,Y2), fly(X2,X1,Y2)")
        .expect("q2'' parses")
}

/// Section 4's rewriting q2''' (join introduction).
pub fn q2_rewritten_with_filter() -> ConjunctiveQuery {
    ConjunctiveQuery::parse(
        "rffr(X2) <- hasAirport(X1), rail(c1,X1,Y1), fly(X1,X2,Y2), fly(X2,X1,Y2)",
    )
    .expect("q2''' parses")
}

/// Example 19: restrictedly guarded but not weakly guarded.
pub fn example19_guarded() -> ConstraintSet {
    set("R(X1,X2), S(X1,X2) -> S(X2,Y)\n\
         S(X1,X2), S(X3,X1) -> R(X2,X1)\n\
         T(X1,X2) -> S(Y,X2)")
}

/// A classic weakly acyclic data-exchange set (used as a baseline corpus
/// entry; not from the paper).
pub fn data_exchange_baseline() -> ConstraintSet {
    set("emp(E,D) -> dept(D)\n\
         dept(D) -> mgr(D,M)\n\
         mgr(D,M) -> emp(M,D)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everything_parses_and_has_expected_sizes() {
        assert_eq!(intro_alpha1().len(), 1);
        assert_eq!(intro_alpha2().len(), 1);
        assert_eq!(intro_instance().len(), 3);
        assert_eq!(example4_sigma().len(), 4);
        assert_eq!(example13_sigma_prime().len(), 3);
        assert_eq!(sec37_sigma_dprime().len(), 5);
        assert_eq!(fig9_travel().len(), 3);
        assert_eq!(example19_guarded().len(), 3);
    }

    #[test]
    fn sigma_family_shapes() {
        for arity in 2..=6 {
            let s = sigma_family(arity);
            assert_eq!(s.len(), 1);
            let t = s[0].as_tgd().unwrap();
            assert_eq!(t.body().len(), 2);
            assert_eq!(t.existentials().len(), 1);
            assert_eq!(t.universals().len(), arity);
        }
    }

    #[test]
    fn prop11_instances_grow_with_k() {
        let (s, i) = prop11_family(4);
        assert_eq!(s.len(), 1);
        assert_eq!(i.len(), 5); // 4 S-facts + 1 R-fact
    }

    #[test]
    fn fig2_equals_sigma_family_2() {
        // Figure 2's constraint is the arity-2 member of the family (up to
        // variable/predicate naming).
        let fam = sigma_family(2);
        let t = fam[0].as_tgd().unwrap();
        assert_eq!(t.universals().len(), 2);
        assert_eq!(t.existentials().len(), 1);
    }
}
