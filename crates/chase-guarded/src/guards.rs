//! Weakly and restrictedly guarded TGD sets (Definitions 20 and 22).
//!
//! Both notions ask every TGD for a body atom (the *guard*) covering all
//! variables that could carry labeled nulls at chase time. They differ in
//! the over-approximation of null-carrying positions: `aff(Σ)` for weak
//! guardedness, the minimal 2-restriction system's `f` for restricted
//! guardedness. Since `f ⊆ aff(Σ)` (Lemma 7), every weakly guarded set is
//! restrictedly guarded, and Example 19 separates the classes.

use chase_core::{ConstraintSet, PosSet, Sym, Term};
use chase_termination::affected_positions;
use chase_termination::hierarchy::Recognition;
use chase_termination::precedence::PrecedenceConfig;
use chase_termination::restriction::minimal_restriction_system;

/// For each TGD of `set` (in index order): the index of a body atom guarding
/// all variables occurring at `positions` in that body, if one exists.
/// EGDs yield `None` entries with `guarded = true` semantics (Section 5
/// considers TGD sets; EGDs have no head nulls to guard).
pub fn guard_atoms(set: &ConstraintSet, positions: &PosSet) -> Vec<Option<usize>> {
    let mut out = Vec::with_capacity(set.len());
    for c in set.iter() {
        let Some(tgd) = c.as_tgd() else {
            out.push(None);
            continue;
        };
        // Variables that occur at some guarded position in the body.
        let mut need: Vec<Sym> = Vec::new();
        for atom in tgd.body() {
            for (pos, term) in atom.entries() {
                if let Term::Var(v) = term {
                    if positions.contains(&pos) && !need.contains(&v) {
                        need.push(v);
                    }
                }
            }
        }
        let guard = tgd
            .body()
            .iter()
            .position(|atom| need.iter().all(|v| atom.vars().contains(v)));
        out.push(guard);
    }
    out
}

fn all_tgds_guarded(set: &ConstraintSet, positions: &PosSet) -> bool {
    set.iter()
        .zip(guard_atoms(set, positions))
        .all(|(c, g)| !c.is_tgd() || g.is_some())
}

/// Is `set` weakly guarded (Definition 20): every TGD has a body atom
/// containing all variables at affected body positions?
pub fn is_weakly_guarded(set: &ConstraintSet) -> bool {
    let aff = affected_positions(set);
    all_tgds_guarded(set, &aff)
}

/// Is `set` restrictedly guarded (Definition 22): every TGD has a body atom
/// containing all variables at body positions from the minimal 2-restriction
/// system's `f`?
///
/// `f` grows monotonically when precedence queries give up, and a larger `f`
/// only makes guarding harder, so `Yes` is definite even then; a failed
/// guard under an indefinite `f` reports `Unknown`.
pub fn is_restrictedly_guarded(set: &ConstraintSet, cfg: &PrecedenceConfig) -> Recognition {
    let rs = minimal_restriction_system(set, 2, cfg);
    if all_tgds_guarded(set, &rs.f) {
        Recognition::Yes
    } else if rs.unknown {
        Recognition::Unknown
    } else {
        Recognition::No
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PrecedenceConfig {
        PrecedenceConfig::default()
    }

    fn parse(text: &str) -> ConstraintSet {
        ConstraintSet::parse(text).unwrap()
    }

    fn example19() -> ConstraintSet {
        parse(
            "R(X1,X2), S(X1,X2) -> S(X2,Y)\n\
             S(X1,X2), S(X3,X1) -> R(X2,X1)\n\
             T(X1,X2) -> S(Y,X2)",
        )
    }

    #[test]
    fn example19_is_not_weakly_guarded() {
        let s = example19();
        assert!(!is_weakly_guarded(&s), "α2 has no atom with x1, x2, x3");
    }

    #[test]
    fn example19_under_definition12_is_not_restrictedly_guarded() {
        // Documented deviation (PAPER.md, "Deviations from the paper", D4):
        // the paper's worked Example
        // 19 quotes a *per-constraint* f = {S^2, R^1} from the companion
        // TR's refined restriction systems. Under this paper's formal
        // Definition 12 (one global f), the closure also pulls in S^1 (α3
        // creates nulls at S^1 and sits on the edge (α3, α2)), after which
        // α2 would need a guard covering x1, x2 *and* x3 — so the set is
        // not restrictedly guarded under the faithful global-f reading.
        // The class separation WGTGD ⊊ RGTGD itself is preserved by the
        // witness in `wg_rg_separation_witness` below.
        let s = example19();
        let rs = minimal_restriction_system(&s, 2, &cfg());
        assert!(rs.f.contains(&chase_core::Position::new("S", 0)));
        assert_eq!(is_restrictedly_guarded(&s, &cfg()), Recognition::No);
    }

    #[test]
    fn wg_rg_separation_witness() {
        // Lemma 7, bullet two, with a witness that separates the classes
        // under the formal Definition 12: α is the safety example (creates
        // nulls at R^2), and γ joins two R-tuples on their second slots —
        // but T-guards on U and V make it impossible for γ to ever consume
        // α's output or an I0 null at admissible positions, so the minimal
        // 2-restriction system is edgeless and f = ∅.
        let s = parse(
            "R(X1,X2,X3), S(X2) -> R(X2,Y,X1)\n\
             R(A,U,B), T(U), R(C,V,D), T(V) -> H(U,V)",
        );
        // Not weakly guarded: U and V sit at the affected position R^2 and
        // share no body atom.
        assert!(!is_weakly_guarded(&s));
        // Restrictedly guarded: the restriction system is edgeless.
        let rs = minimal_restriction_system(&s, 2, &cfg());
        assert!(rs.edges.is_empty(), "got edges {:?}", rs.edges);
        assert!(rs.f.is_empty());
        assert_eq!(is_restrictedly_guarded(&s, &cfg()), Recognition::Yes);
    }

    #[test]
    fn lemma7_wg_implies_rg() {
        for text in [
            "R(X1,X2) -> R(X2,Y)",
            "S(X) -> E(X,Y), S(Y)",
            "E(X,Y), S(Y) -> E(Y,Z)",
            "R(X1,X2), S(X1,X2) -> S(X2,Y)\nS(X1,X2), S(X3,X1) -> R(X2,X1)\nT(X1,X2) -> S(Y,X2)",
        ] {
            let s = parse(text);
            if is_weakly_guarded(&s) {
                assert_eq!(
                    is_restrictedly_guarded(&s, &cfg()),
                    Recognition::Yes,
                    "WG ⇒ RG failed on {text}"
                );
            }
        }
    }

    #[test]
    fn lemma7_f_subset_of_affected() {
        for text in [
            "R(X1,X2), S(X1,X2) -> S(X2,Y)\nS(X1,X2), S(X3,X1) -> R(X2,X1)\nT(X1,X2) -> S(Y,X2)",
            "S(X), E(X,Y) -> E(Y,X)\nS(X), E(X,Y) -> E(Y,Z), E(Z,X)",
            "S(X2), E(X1,X2) -> E(Y,X1)",
        ] {
            let s = parse(text);
            let aff = affected_positions(&s);
            let rs = minimal_restriction_system(&s, 2, &cfg());
            assert!(
                rs.f.iter().all(|p| aff.contains(p)),
                "f ⊄ aff(Σ) on {text}: f = {:?}, aff = {:?}",
                rs.f,
                aff
            );
        }
    }

    #[test]
    fn single_atom_bodies_are_always_guarded() {
        let s = parse("S(X) -> E(X,Y), S(Y)");
        assert!(is_weakly_guarded(&s));
        assert_eq!(is_restrictedly_guarded(&s, &cfg()), Recognition::Yes);
    }

    #[test]
    fn full_tgds_without_nulls_are_trivially_guarded() {
        let s = parse("E(X,Y) -> E(Y,X)");
        assert!(is_weakly_guarded(&s));
        let guards = guard_atoms(&s, &PosSet::new());
        assert_eq!(guards, vec![Some(0)], "empty need-set: first atom guards");
    }
}
