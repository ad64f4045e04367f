//! Restriction systems (Definitions 11–12 and 15).
//!
//! A minimal k-restriction system is the least fixpoint of two rules over a
//! pair `(E, f)` — a graph over the constraints plus a set of positions:
//!
//! 1. whenever `≺k,f(α1, …, αk)` holds, the edges
//!    `(α1,α2), …, (αk−1,αk)` belong to `E`;
//! 2. for every edge, the *affected closure* `aff-cl(γ, f) ∩ pos(Σ)` of each
//!    TGD endpoint `γ` belongs to `f`.
//!
//! `f` over-approximates the positions at which labeled nulls may occur
//! during the chase *along firing chains that matter*; it both feeds the
//! `≺k,f` oracle and powers the restricted-guardedness refinement of
//! Section 5.

use crate::graphs::Digraph;
use crate::precedence::{precedes_k, PrecedenceConfig, Verdict};
use chase_core::fx::FxHashSet;
use chase_core::{ConstraintSet, PosSet, Tgd};
use std::collections::BTreeSet;
use std::fmt;

/// `aff-cl(α, P)` (Definition 11): head positions of `α` that may carry a
/// null when nulls enter only through positions of `P` — existential
/// positions, plus positions of universal variables whose body occurrences
/// all lie in `P`.
///
/// Head positions holding a constant are *not* included: a constant
/// position cannot receive a null from this head (the definition's "for
/// every universally quantified variable x in π" is read as requiring a
/// variable; PAPER.md, "Deviations from the paper", D6).
pub fn aff_cl(tgd: &Tgd, p: &PosSet) -> PosSet {
    let mut out = PosSet::new();
    for &y in tgd.existentials() {
        out.extend(tgd.head_positions_of(y));
    }
    for &x in tgd.frontier() {
        let body_pos = tgd.body_positions_of(x);
        if !body_pos.is_empty() && body_pos.iter().all(|q| p.contains(q)) {
            out.extend(tgd.head_positions_of(x));
        }
    }
    out
}

/// A minimal k-restriction system `(G'(Σ), f)`.
#[derive(Debug, Clone)]
pub struct RestrictionSystem {
    /// The arity `k` of the precedence relation used.
    pub k: usize,
    /// Edges over constraint indices.
    pub edges: BTreeSet<(usize, usize)>,
    /// The position set `f ⊆ pos(Σ)`.
    pub f: PosSet,
    /// The graph form of `edges` (nodes = constraint indices).
    pub graph: Digraph,
    /// True when some oracle query hit a resource limit and its edges were
    /// added conservatively.
    pub unknown: bool,
}

impl fmt::Display for RestrictionSystem {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(out, "{}-restriction system: edges {{", self.k)?;
        for (i, (a, b)) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(out, ", ")?;
            }
            write!(out, "(α{},α{})", a + 1, b + 1)?;
        }
        write!(out, "}}, f = {{")?;
        for (i, p) in self.f.iter().enumerate() {
            if i > 0 {
                write!(out, ", ")?;
            }
            write!(out, "{p}")?;
        }
        write!(out, "}}")
    }
}

/// Enumerate `Σ^k` sequences (repetitions allowed), calling `f` for each.
fn for_each_sequence(n: usize, k: usize, mut f: impl FnMut(&[usize])) {
    let mut seq = vec![0usize; k];
    loop {
        f(&seq);
        // Odometer increment.
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            seq[i] += 1;
            if seq[i] < n {
                break;
            }
            seq[i] = 0;
        }
    }
}

/// Compute the minimal k-restriction system of `Σ` (Definitions 12/15),
/// closing both endpoints of every edge under `aff-cl` as in Definition 12.
pub fn minimal_restriction_system(
    set: &ConstraintSet,
    k: usize,
    cfg: &PrecedenceConfig,
) -> RestrictionSystem {
    assert!(k >= 2, "restriction systems need k ≥ 2");
    let n = set.len();
    let pos_sigma = set.positions();
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut f = PosSet::new();
    let mut unknown = false;
    // Holds-results are monotone in f (a larger f only weakens the null-
    // position requirement), so they are cached across fixpoint rounds;
    // failures are re-queried whenever f grows.
    let mut known_holds: FxHashSet<Vec<usize>> = FxHashSet::default();

    loop {
        let mut changed = false;
        // Rule: ≺k,f sequences contribute their edge chains.
        for_each_sequence(n, k, |seq| {
            let chain_edges: Vec<(usize, usize)> = seq.windows(2).map(|w| (w[0], w[1])).collect();
            if chain_edges.iter().all(|e| edges.contains(e)) {
                return; // nothing new to learn from this sequence
            }
            let verdict = if known_holds.contains(seq) {
                Verdict::Holds
            } else {
                precedes_k(set, seq, &f, cfg)
            };
            match verdict {
                Verdict::Holds => {
                    known_holds.insert(seq.to_vec());
                    for e in chain_edges {
                        changed |= edges.insert(e);
                    }
                }
                Verdict::Fails => {}
                Verdict::ResourceLimit => {
                    unknown = true;
                    for e in chain_edges {
                        changed |= edges.insert(e);
                    }
                }
            }
        });
        // Rule: close f under aff-cl of the endpoints of every edge.
        loop {
            let mut f_changed = false;
            for &(a, b) in &edges {
                for idx in [a, b] {
                    if let Some(tgd) = set[idx].as_tgd() {
                        for p in aff_cl(tgd, &f) {
                            if pos_sigma.contains(&p) && f.insert(p) {
                                f_changed = true;
                            }
                        }
                    }
                }
            }
            if !f_changed {
                break;
            }
            changed = true;
        }
        if !changed {
            break;
        }
    }
    let mut graph = Digraph::new(n);
    for &(a, b) in &edges {
        graph.add_edge(a, b, false);
    }
    RestrictionSystem {
        k,
        edges,
        f,
        graph,
        unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::Position;

    fn cfg() -> PrecedenceConfig {
        PrecedenceConfig::default()
    }

    fn parse(text: &str) -> ConstraintSet {
        ConstraintSet::parse(text).unwrap()
    }

    #[test]
    fn aff_cl_existential_and_closure() {
        let t = chase_core::Tgd::parse("S(X), E(X,Y) -> E(Y,Z), E(Z,X)").unwrap();
        // With P = ∅: only positions of the existential Z.
        let empty = aff_cl(&t, &PosSet::new());
        let expect: PosSet = [Position::new("E", 0), Position::new("E", 1)]
            .into_iter()
            .collect();
        assert_eq!(empty, expect, "Z occurs at E^1 and E^2");
        // With P ⊇ all body positions of Y: Y's head position joins.
        let p: PosSet = [Position::new("E", 1)].into_iter().collect();
        let closed = aff_cl(&t, &p);
        assert!(closed.contains(&Position::new("E", 0)), "Y at head E^1");
    }

    #[test]
    fn example12_minimal_2_restriction_system() {
        // Σ from Example 10: the minimal 2-restriction system has the single
        // edge (α2, α1) and f = {E^1, E^2}.
        let s = parse(
            "S(X), E(X,Y) -> E(Y,X)\n\
             S(X), E(X,Y) -> E(Y,Z), E(Z,X)",
        );
        let rs = minimal_restriction_system(&s, 2, &cfg());
        assert!(!rs.unknown);
        let expect: BTreeSet<(usize, usize)> = [(1, 0)].into_iter().collect();
        assert_eq!(rs.edges, expect, "only α2 ≺f α1");
        let f: PosSet = [Position::new("E", 0), Position::new("E", 1)]
            .into_iter()
            .collect();
        assert_eq!(rs.f, f);
        assert!(rs.graph.nontrivial_sccs().is_empty());
    }

    #[test]
    fn example13_adding_alpha3_creates_the_cycle() {
        // Σ' = Σ ∪ {α3} (empty-body constraint): now S^1 is "infected" and
        // {α1, α2} becomes a strongly connected component.
        let s = parse(
            "S(X), E(X,Y) -> E(Y,X)\n\
             S(X), E(X,Y) -> E(Y,Z), E(Z,X)\n\
             -> S(X), E(X,Y)",
        );
        let rs = minimal_restriction_system(&s, 2, &cfg());
        assert!(!rs.unknown);
        assert!(rs.edges.contains(&(2, 0)), "α3 ≺f α1");
        assert!(rs.edges.contains(&(2, 1)), "α3 ≺f α2");
        assert!(rs.edges.contains(&(0, 1)), "α1 ≺f α2");
        assert!(rs.edges.contains(&(1, 0)), "α2 ≺f α1");
        assert!(rs.f.contains(&Position::new("S", 0)), "S^1 infected");
        let sccs = rs.graph.nontrivial_sccs();
        assert_eq!(sccs, vec![vec![0, 1]], "SCC {{α1, α2}}");
    }

    #[test]
    fn fig2_constraint_has_a_2_self_loop() {
        // §3.5 closing remark: the Figure 2 constraint can cause itself to
        // fire, so its minimal 2-restriction system has the self-edge.
        let s = parse("S(X2), E(X1,X2) -> E(Y,X1)");
        let rs = minimal_restriction_system(&s, 2, &cfg());
        assert!(rs.edges.contains(&(0, 0)));
        assert_eq!(rs.graph.nontrivial_sccs(), vec![vec![0]]);
    }

    #[test]
    fn fig2_constraint_3_restriction_system_is_acyclic() {
        // Example 15 (k = 2 case of Σk+1): ≺2,P holds but ≺3,P does not, so
        // the minimal 3-restriction system is edgeless.
        let s = parse("S(X2), E(X1,X2) -> E(Y,X1)");
        let rs = minimal_restriction_system(&s, 3, &cfg());
        assert!(!rs.unknown);
        assert!(rs.edges.is_empty(), "got {:?}", rs.edges);
    }

    #[test]
    fn weakly_acyclic_copy_set_has_no_restriction_edges() {
        let s = parse("E(X,Y) -> E(Y,X)");
        let rs = minimal_restriction_system(&s, 2, &cfg());
        assert!(rs.edges.is_empty());
        assert!(rs.f.is_empty());
    }

    #[test]
    fn heterogeneous_three_chains_contribute_their_edge_pairs() {
        // a0: A → B, a1: B → ∃C, a2: C → E. The genuine 3-chain
        // ≺3,∅(a0, a1, a2) holds (each step necessary, the final head
        // parameter is the created null), so the 3-restriction system has
        // both chain edges; the 2-system only has (a1, a2) because a0's
        // firing delivers no null to a1's head parameters.
        let s = parse(
            "A(X) -> B(X)\n\
             B(X) -> C(X,Z)\n\
             C(X,Y) -> E(Y)",
        );
        let p = PosSet::new();
        assert_eq!(
            crate::precedence::precedes_k(&s, &[0, 1, 2], &p, &cfg()),
            crate::precedence::Verdict::Holds
        );
        let rs2 = minimal_restriction_system(&s, 2, &cfg());
        assert!(rs2.edges.contains(&(1, 2)));
        assert!(!rs2.edges.contains(&(0, 1)));
        let rs3 = minimal_restriction_system(&s, 3, &cfg());
        assert!(rs3.edges.contains(&(0, 1)), "3-chain contributes (a0,a1)");
        assert!(rs3.edges.contains(&(1, 2)), "3-chain contributes (a1,a2)");
        assert!(rs3.graph.nontrivial_sccs().is_empty(), "still acyclic");
    }

    #[test]
    fn padded_chains_are_rejected_by_necessity() {
        // Same set, but the triple (a2, a0, …) has no dependency from a2
        // into a0 (E feeds nothing), so no ≺3 sequence starting there holds.
        let s = parse(
            "A(X) -> B(X)\n\
             B(X) -> C(X,Z)\n\
             C(X,Y) -> E(Y)",
        );
        let p = PosSet::new();
        for seq in [[2usize, 0, 1], [2, 1, 2], [1, 0, 2]] {
            assert_eq!(
                crate::precedence::precedes_k(&s, &seq, &p, &cfg()),
                crate::precedence::Verdict::Fails,
                "sequence {seq:?} should fail"
            );
        }
    }
}
