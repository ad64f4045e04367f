//! Equivalence of the two engines: naive re-enumeration and the
//! delta-driven trigger queue.
//!
//! The delta-driven trigger queue promises *identical semantics* to naive
//! per-step re-enumeration — same trigger fired at every step, so the same
//! trace, step count, fresh-null count, and final instance — under every
//! strategy, including the Theorem 2 phase order (`Strategy::Phased`).
//! These tests hold the engines against each other over the `chase-corpus`
//! random families, the named corpus families, and hand-phased cases,
//! across strategies and chase modes. On terminating runs the results must
//! additionally be homomorphically equivalent (they are in fact equal,
//! which is stronger; the hom check guards the contract the chase actually
//! promises).

use chase_core::homomorphism::hom_equivalent;
use chase_corpus::families;
use chase_corpus::random::{
    random_egd_mix, random_instance, random_tgds, RandomInstanceConfig, RandomTgdConfig,
};
use chase_engine::{chase, chase_naive, ChaseConfig, ChaseMode, Strategy};
use chase_termination::{phase_schedule, PhaseSchedule, PrecedenceConfig, Recognition};
use proptest::prelude::*;

fn assert_equivalent(
    set: &chase_core::ConstraintSet,
    inst: &chase_core::Instance,
    cfg: &ChaseConfig,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut cfg = cfg.clone();
    cfg.keep_trace = true;
    let fast = chase(inst, set, &cfg);
    let slow = chase_naive(inst, set, &cfg);
    prop_assert_eq!(
        &fast.reason,
        &slow.reason,
        "engines disagree on stop reason for:\n{}\non {}",
        set,
        inst
    );
    prop_assert_eq!(
        fast.steps,
        slow.steps,
        "engines disagree on step count for:\n{}\non {}",
        set,
        inst
    );
    prop_assert_eq!(
        fast.fresh_nulls,
        slow.fresh_nulls,
        "engines disagree on fresh nulls for:\n{}\non {}",
        set,
        inst
    );
    for (i, (a, b)) in fast.trace.iter().zip(&slow.trace).enumerate() {
        prop_assert_eq!(
            a.constraint,
            b.constraint,
            "step {} fired different constraints for:\n{}\non {}",
            i,
            set,
            inst
        );
        prop_assert_eq!(
            &a.assignment,
            &b.assignment,
            "step {} fired different assignments for:\n{}\non {}",
            i,
            set,
            inst
        );
    }
    prop_assert_eq!(
        &fast.instance,
        &slow.instance,
        "engines disagree on the final instance for:\n{}\non {}",
        set,
        inst
    );
    if fast.terminated() {
        prop_assert!(
            hom_equivalent(&fast.instance, &slow.instance),
            "terminating results not hom-equivalent for:\n{}\non {}",
            set,
            inst
        );
    }
    Ok(())
}

/// Trace equality between two results of the same run configuration.
fn assert_traces_equal(
    label: &str,
    a: &chase_engine::ChaseResult,
    b: &chase_engine::ChaseResult,
    set: &chase_core::ConstraintSet,
    inst: &chase_core::Instance,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(
        &a.reason,
        &b.reason,
        "{}: stop reason differs for:\n{}\non {}",
        label,
        set,
        inst
    );
    prop_assert_eq!(
        a.steps,
        b.steps,
        "{}: step count differs for:\n{}\non {}",
        label,
        set,
        inst
    );
    prop_assert_eq!(
        a.fresh_nulls,
        b.fresh_nulls,
        "{}: fresh nulls differ for:\n{}\non {}",
        label,
        set,
        inst
    );
    prop_assert_eq!(
        a.trace.len(),
        b.trace.len(),
        "{}: trace length differs",
        label
    );
    for (i, (x, y)) in a.trace.iter().zip(&b.trace).enumerate() {
        prop_assert_eq!(
            x.constraint,
            y.constraint,
            "{}: step {} fired different constraints for:\n{}\non {}",
            label,
            i,
            set,
            inst
        );
        prop_assert_eq!(
            &x.assignment,
            &y.assignment,
            "{}: step {} fired different assignments for:\n{}\non {}",
            label,
            i,
            set,
            inst
        );
        prop_assert_eq!(
            &x.added,
            &y.added,
            "{}: step {} added different atoms",
            label,
            i
        );
        prop_assert_eq!(
            &x.merged,
            &y.merged,
            "{}: step {} merged differently",
            label,
            i
        );
    }
    prop_assert_eq!(
        &a.instance,
        &b.instance,
        "{}: final instances differ for:\n{}\non {}",
        label,
        set,
        inst
    );
    Ok(())
}

/// The set's Theorem 2 phase order (a single phase when unstratified).
fn schedule(set: &chase_core::ConstraintSet) -> Vec<Vec<usize>> {
    phase_schedule(set, &PrecedenceConfig::default()).phases
}

/// The phased check: naive and delta must replay the same trace under
/// `phases` — with the join planner on *and* off (planning changes matching
/// cost and enumeration order, never which trigger is selected).
fn assert_two_way(
    set: &chase_core::ConstraintSet,
    inst: &chase_core::Instance,
    phases: &[Vec<usize>],
    max_steps: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let cfg = ChaseConfig {
        strategy: Strategy::Phased(phases.to_vec()),
        max_steps: Some(max_steps),
        keep_trace: true,
        ..ChaseConfig::default()
    };
    let mut cfg_off = cfg.clone();
    cfg_off.use_planner = false;
    let delta = chase(inst, set, &cfg);
    let naive = chase_naive(inst, set, &cfg);
    assert_traces_equal("naive vs delta", &naive, &delta, set, inst)?;
    let delta_off = chase(inst, set, &cfg_off);
    assert_traces_equal("planner-off delta vs delta", &delta_off, &delta, set, inst)?;
    let naive_off = chase_naive(inst, set, &cfg_off);
    assert_traces_equal("planner-off naive vs delta", &naive_off, &delta, set, inst)?;
    if delta.terminated() {
        prop_assert!(
            hom_equivalent(&delta.instance, &naive.instance),
            "terminating results not hom-equivalent for:\n{}\non {}",
            set,
            inst
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn random_families_agree_round_robin(
        seed in any::<u64>(),
        constraints in 1usize..=4,
        facts in 1usize..10,
    ) {
        let set = random_tgds(&RandomTgdConfig {
            constraints,
            predicates: 3,
            max_arity: 3,
            body_atoms: (1, 2),
            head_atoms: (1, 2),
            existential_prob: 0.35,
            seed,
        });
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 4, seed });
        assert_equivalent(&set, &inst, &ChaseConfig::with_max_steps(300))?;
    }

    #[test]
    fn random_families_agree_random_strategy(
        seed in any::<u64>(),
        order_seed in any::<u64>(),
        facts in 1usize..8,
    ) {
        let set = random_tgds(&RandomTgdConfig {
            constraints: 3,
            predicates: 2,
            max_arity: 2,
            body_atoms: (1, 2),
            head_atoms: (1, 1),
            existential_prob: 0.3,
            seed,
        });
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 3, seed });
        let cfg = ChaseConfig {
            strategy: Strategy::Random { seed: order_seed },
            max_steps: Some(300),
            ..ChaseConfig::default()
        };
        assert_equivalent(&set, &inst, &cfg)?;
    }

    #[test]
    fn random_families_agree_three_way(
        seed in any::<u64>(),
        constraints in 1usize..=3,
        facts in 1usize..10,
    ) {
        let set = random_tgds(&RandomTgdConfig {
            constraints,
            predicates: 3,
            max_arity: 3,
            body_atoms: (1, 2),
            head_atoms: (1, 2),
            existential_prob: 0.35,
            seed,
        });
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 4, seed });
        assert_two_way(&set, &inst, &schedule(&set), 200)?;
    }

    #[test]
    fn egd_heavy_random_families_agree_three_way(
        seed in any::<u64>(),
        facts in 1usize..10,
        egds in 1usize..=3,
    ) {
        // Existential-heavy TGDs invent nulls, random key EGDs merge them
        // away: every engine must repair its trigger state through the
        // merge delta and still replay the naive trace bit for bit.
        let set = random_egd_mix(&RandomTgdConfig {
            constraints: 2,
            predicates: 3,
            max_arity: 3,
            body_atoms: (1, 2),
            head_atoms: (1, 1),
            existential_prob: 0.6,
            seed,
        }, egds);
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 3, seed });
        assert_two_way(&set, &inst, &schedule(&set), 200)?;
    }

    #[test]
    fn egd_heavy_random_families_agree_oblivious(
        seed in any::<u64>(),
        facts in 1usize..8,
    ) {
        // Oblivious mode is the fired-memo path: merges must remap memo
        // keys identically in the naive and delta engines.
        let set = random_egd_mix(&RandomTgdConfig {
            constraints: 2,
            predicates: 2,
            max_arity: 3,
            body_atoms: (1, 2),
            head_atoms: (1, 1),
            existential_prob: 0.5,
            seed,
        }, 2);
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 3, seed });
        let cfg = ChaseConfig {
            mode: ChaseMode::Oblivious,
            max_steps: Some(200),
            ..ChaseConfig::default()
        };
        assert_equivalent(&set, &inst, &cfg)?;
    }

    #[test]
    fn random_families_agree_oblivious(
        seed in any::<u64>(),
        facts in 1usize..8,
    ) {
        let set = random_tgds(&RandomTgdConfig {
            constraints: 2,
            predicates: 2,
            max_arity: 2,
            body_atoms: (1, 2),
            head_atoms: (1, 1),
            existential_prob: 0.3,
            seed,
        });
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 3, seed });
        let cfg = ChaseConfig {
            mode: ChaseMode::Oblivious,
            max_steps: Some(200),
            ..ChaseConfig::default()
        };
        assert_equivalent(&set, &inst, &cfg)?;
    }
}

#[test]
fn corpus_families_agree_across_strategies() {
    let cases: Vec<(chase_core::ConstraintSet, chase_core::Instance)> = vec![
        (families::copy_chain(4), families::chain_source_instance(3)),
        (families::lav_star(3), families::chain_source_instance(3)),
        (families::safe_family(3), families::path_instance(4)),
        (families::stratified_family(3), families::path_instance(3)),
        (families::full_tgd_cycle(3), families::cycle_instance(3)),
        (families::divergent_family(2), families::cycle_instance(2)),
    ];
    for (set, inst) in &cases {
        for cfg in [
            ChaseConfig::with_max_steps(200),
            ChaseConfig {
                strategy: Strategy::Random { seed: 7 },
                max_steps: Some(200),
                ..ChaseConfig::default()
            },
            ChaseConfig {
                strategy: Strategy::FixedCycle((0..set.len()).rev().collect()),
                max_steps: Some(200),
                ..ChaseConfig::default()
            },
        ] {
            assert_equivalent(set, inst, &cfg).unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}

#[test]
fn corpus_families_agree_three_way() {
    let cases: Vec<(chase_core::ConstraintSet, chase_core::Instance)> = vec![
        (families::copy_chain(4), families::chain_source_instance(3)),
        (families::lav_star(3), families::chain_source_instance(3)),
        (families::safe_family(3), families::path_instance(4)),
        (families::stratified_family(3), families::path_instance(3)),
        (families::full_tgd_cycle(3), families::cycle_instance(3)),
        (families::divergent_family(2), families::cycle_instance(2)),
        (
            chase_corpus::paper::example4_sigma(),
            families::unary_instance("R", 4),
        ),
        (
            chase_corpus::paper::fig9_travel(),
            chase_corpus::random::random_travel_instance(
                &chase_corpus::random::RandomTravelConfig {
                    cities: 8,
                    flights: 20,
                    rails: 10,
                    seed: 11,
                },
            ),
        ),
    ];
    for (set, inst) in &cases {
        assert_two_way(set, inst, &schedule(set), 200).unwrap_or_else(|e| panic!("{e:?}"));
    }
}

/// Checks one hand-written case under a fixed phase order, independent of
/// the schedule.
fn assert_hand_phased(set: &str, inst: &str, phases: &[Vec<usize>]) {
    let set = chase_core::ConstraintSet::parse(set).unwrap();
    let inst = chase_core::Instance::parse(inst).unwrap();
    assert_two_way(&set, &inst, phases, 200).unwrap_or_else(|e| panic!("{e:?}"));
}

/// A TGD chain chased one constraint per phase.
#[test]
fn phased_matches_naive_on_tgd_chains() {
    assert_hand_phased(
        "S(X) -> T(X)\nT(X) -> U(X,Y)\nU(X,Y) -> V(Y)",
        "S(a). S(b). S(c).",
        &[vec![0], vec![1], vec![2]],
    );
}

/// Budget-bounded divergence in a single phase.
#[test]
fn phased_matches_naive_on_single_phase_divergence() {
    assert_hand_phased(
        "S(X) -> E(X,Y), S(Y)",
        "S(n1). S(n2). E(n1,n2).",
        &[vec![0]],
    );
}

/// EGD merges sharing a phase with the TGD that feeds them.
#[test]
fn phased_matches_naive_on_egd_merges() {
    assert_hand_phased(
        "E(X,Y), E(X,Z) -> Y = Z\nS(X) -> E(X,Y)",
        "S(a). E(a,_n0). E(_n0,c). E(a,b).",
        &[vec![0, 1]],
    );
}

/// A recursive join.
#[test]
fn phased_matches_naive_on_joins() {
    assert_hand_phased(
        "E(X,Y), E(Y,Z) -> E(X,Z)",
        "E(a,b). E(b,c). E(c,d). E(d,e).",
        &[vec![0]],
    );
}

/// An unstratified set must fall back to a single-phase schedule, and the
/// engines must still replay the same trace on it.
#[test]
fn unstratified_sets_fall_back_to_single_phase() {
    let set = chase_core::ConstraintSet::parse("S(X) -> E(X,Y), S(Y)\nE(X,Y) -> T(Y)").unwrap();
    let schedule = phase_schedule(&set, &PrecedenceConfig::default());
    assert_ne!(schedule.stratified, Recognition::Yes);
    assert_eq!(schedule.phases, vec![vec![0, 1]]);
    assert_eq!(
        schedule.phases,
        PhaseSchedule::single_phase(set.len()).phases
    );
    let inst = chase_core::Instance::parse("S(n1). S(n2). E(n1,n2).").unwrap();
    assert_two_way(&set, &inst, &schedule.phases, 120).unwrap_or_else(|e| panic!("{e:?}"));
}

/// EGD-heavy workload: merges force the delta engine down its rebuild path.
#[test]
fn egd_workloads_agree() {
    let set =
        chase_core::ConstraintSet::parse("E(X,Y), E(X,Z) -> Y = Z\nS(X) -> E(X,Y)\nE(X,Y) -> T(Y)")
            .unwrap();
    let inst =
        chase_core::Instance::parse("S(a). S(b). E(a,_n0). E(_n0,c). E(b,_n1). E(b,d).").unwrap();
    for strategy in [
        Strategy::RoundRobin,
        Strategy::Random { seed: 3 },
        Strategy::FixedCycle(vec![2, 1, 0]),
    ] {
        let cfg = ChaseConfig {
            strategy,
            max_steps: Some(200),
            ..ChaseConfig::default()
        };
        assert_equivalent(&set, &inst, &cfg).unwrap_or_else(|e| panic!("{e:?}"));
    }
}

/// Head-revalidation shapes: delta and naive engines must replay the same
/// trace round-robin and under a seeded random order, with the planner on
/// and off. The delta engine answers "which pooled triggers did the new
/// atoms satisfy?" from its frontier and head-slot indexes, so each case
/// pins one shape of head those indexes must handle.
fn assert_head_case(set: &str, inst: &str) {
    let set = chase_core::ConstraintSet::parse(set).unwrap();
    let inst = chase_core::Instance::parse(inst).unwrap();
    for strategy in [Strategy::RoundRobin, Strategy::Random { seed: 5 }] {
        let cfg = ChaseConfig {
            strategy,
            max_steps: Some(400),
            keep_trace: true,
            ..ChaseConfig::default()
        };
        let mut cfg_off = cfg.clone();
        cfg_off.use_planner = false;
        let delta = chase(&inst, &set, &cfg);
        assert!(delta.terminated(), "{set}: {delta}");
        let run = |label, a: &chase_engine::ChaseResult| {
            assert_traces_equal(label, a, &delta, &set, &inst).unwrap_or_else(|e| panic!("{e:?}"))
        };
        run("naive vs delta", &chase_naive(&inst, &set, &cfg));
        run("planner-off delta vs delta", &chase(&inst, &set, &cfg_off));
        run(
            "planner-off naive vs delta",
            &chase_naive(&inst, &set, &cfg_off),
        );
    }
}

/// LAV-shaped head `emp(X,D), dept(D,Y)`: a new `dept` atom's slot bucket
/// holds every trigger of its department, but the head matches it seeds are
/// few — the enumerate-and-probe path.
#[test]
fn lav_shaped_heads_agree() {
    let mut facts = String::from("emp(p0,d9). dept(d9,org1). emp(p5,d8). dept(d8,org0). ");
    for i in 0..12 {
        facts.push_str(&format!("src(p{i},org{}). ", i % 3));
    }
    assert_head_case(
        "src(X,Y) -> emp(X,D), dept(D,Y)\nemp(X,D) -> person(X)",
        &facts,
    );
}

/// Travel-shaped head `hasAirport(C1), hasAirport(C2)`: a new airport
/// seeds a scan of every airport, which soon outnumbers the slot bucket —
/// the bucket-fallback path.
#[test]
fn travel_shaped_heads_agree() {
    let mut facts = String::from("hasAirport(c0). hasAirport(c3). hasAirport(c7). ");
    for i in 0..10 {
        facts.push_str(&format!("fly(c{i},c{},d{}). ", (i * 3 + 1) % 10, i % 2));
        facts.push_str(&format!("rail(c{i},c{},r{i}). ", (i + 2) % 10));
    }
    assert_head_case(
        "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2)\nrail(C1,C2,D) -> rail(C2,C1,D)",
        &facts,
    );
}

/// A head constant, a repeated existential, and a head slot with no
/// frontier variable (its bucket is the whole pool of that TGD).
#[test]
fn unusual_head_shapes_agree() {
    assert_head_case(
        "S(X) -> R(X,c), T(c,Y)\nS(X), K(X) -> R(X,c)",
        "S(a). S(b). S(e). R(a,d). T(c,n). R(b,c). K(e). K(a).",
    );
    assert_head_case(
        "S(X) -> R(X,Z,Z)\nT(X,Y) -> R(X,Y,Y)",
        "S(a). S(b). S(e). R(a,n1,n2). R(b,k,k). T(a,m). T(e,q).",
    );
    assert_head_case(
        "A(X) -> R(Z), S(Z,X)\nB(X,Y) -> S(Y,X), R(Y)",
        "A(a). A(b). A(c). R(z). S(w,a). B(b,z). B(c,v). B(a,w).",
    );
}
