//! The `exchange` workload: the paper's own use, offline and single
//! threaded in a closed loop.
//!
//! Each pass classifies a Σ corpus in the termination hierarchy
//! (`analyze(Σ, 4, …)`), chases a fixed job list to quiescence with
//! `chase_engine::chase`, and answers parametrised certain-answer queries
//! over the chase results. Passes repeat until `--seconds` have elapsed.
//!
//! The Σ corpus is the same for every seed: the paper's examples, its
//! scaled families and random TGD sets over the fixed seed range
//! `RANDOM_SETS`. Costs within it span two orders of magnitude (Example 4's
//! hierarchy search is the tail). Seeds 4, 8, 10 and 24 of the same random
//! family take 0.3 to 3 s each and would swamp the figure, so the range
//! stops short of them. The seed draws the chase inputs and the query
//! parameters.
//!
//! The job sizes are spread so that the median chase job is always the
//! transitive closure, with the jobs below and above it at least twice as
//! fast or slow: the median then never flips between two jobs.
//!
//! Here "apply" is one chase job run to quiescence and "query" is one
//! certain-answer evaluation on a chase result.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::time::{Duration, Instant};

use chase_core::{Atom, ConjunctiveQuery, ConstraintSet, Instance, Term};
use chase_corpus::{families, paper, random};
use chase_engine::{chase, ChaseConfig, ChaseResult};
use chase_obs::Phase;
use chase_termination::{
    analyze, is_c_stratified, is_inductively_restricted, is_safe, is_stratified, is_weakly_acyclic,
    t_level, PrecedenceConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers;
use crate::output::{phase_scale, Report, JOBS, PHASES};
use crate::stats::{mean, median, quantile, secs};
use crate::Ctx;

/// Random TGD sets in the corpus: these seeds of three constraints over
/// three predicates.
const RANDOM_SETS: std::ops::RangeInclusive<u64> = 11..=23;
/// Classifications of the corpus per pass.
const ANALYZE_ROUNDS: usize = 3;
const COPY_SMALL: usize = 500;
const COPY_LARGE: usize = 2000;
const CLOSURE_NODES: usize = 75;
const TRAVEL_FACTS: usize = 1500;
const LAV_SOURCES: usize = 1500;
const MERGE_ENTITIES: usize = 200;
const CYCLE_NODES: usize = 120;
/// Queries per pass on the copy, closure, travel and LAV results. Uneven,
/// so the median and the 99th percentile fall inside one template's
/// spread rather than on the edge between two.
const QUERIES: [usize; 4] = [40, 60, 100, 40];

struct Sigma {
    name: String,
    set: ConstraintSet,
    /// The hierarchy level the paper (or the family's construction) gives.
    level: Option<Option<usize>>,
}

struct Job {
    name: &'static str,
    input: Instance,
    set: ConstraintSet,
}

struct Query {
    job: usize,
    q: ConjunctiveQuery,
}

struct Inputs {
    corpus: Vec<Sigma>,
    closure_edges: Vec<(usize, usize)>,
    jobs: Vec<Job>,
    queries: Vec<Query>,
}

fn sigma(name: &str, set: ConstraintSet, level: Option<Option<usize>>) -> Sigma {
    Sigma {
        name: name.to_string(),
        set,
        level,
    }
}

fn corpus() -> Vec<Sigma> {
    let mut c = vec![
        sigma("fig2", paper::fig2_sigma(), Some(Some(3))),
        sigma("example2_gamma", paper::example2_gamma(), None),
        sigma("example4", paper::example4_sigma(), None),
        sigma("safety_beta", paper::safety_beta(), Some(Some(2))),
        sigma("thm4", paper::thm4_safe_not_stratified(), None),
        sigma("example10", paper::example10_sigma(), Some(Some(2))),
        sigma("example13", paper::example13_sigma_prime(), Some(Some(2))),
        sigma("sec37", paper::sec37_sigma_dprime(), None),
        sigma("fig9_travel", paper::fig9_travel(), None),
        sigma("intro_alpha1", paper::intro_alpha1(), Some(Some(2))),
        sigma("intro_alpha2", paper::intro_alpha2(), Some(None)),
        sigma("intro_alpha3", paper::intro_alpha3(), None),
        sigma("example19", paper::example19_guarded(), None),
        sigma(
            "data_exchange",
            paper::data_exchange_baseline(),
            Some(Some(2)),
        ),
    ];
    for n in [1, 2, 4, 8] {
        c.push(sigma(
            &format!("inductively_restricted_{n}"),
            families::inductively_restricted_family(n),
            Some(Some(2)),
        ));
        c.push(sigma(
            &format!("stratified_{n}"),
            families::stratified_family(n),
            None,
        ));
        c.push(sigma(
            &format!("safe_{n}"),
            families::safe_family(n),
            Some(Some(2)),
        ));
    }
    // Example 15: arity n sits in T[n+1] \ T[n]; beyond T[4] is unrecognised.
    for arity in 2..=5 {
        let level = (arity < 4).then_some(arity + 1);
        c.push(sigma(
            &format!("sigma_family_{arity}"),
            paper::sigma_family(arity),
            Some(level),
        ));
    }
    for seed in RANDOM_SETS {
        let set = random::random_tgds(&random::RandomTgdConfig {
            constraints: 3,
            predicates: 3,
            seed,
            ..Default::default()
        });
        c.push(sigma(&format!("random_{seed}"), set, None));
    }
    c
}

fn set(text: &str) -> ConstraintSet {
    ConstraintSet::parse(text).expect("benchmark constraint set parses")
}

fn pair(pred: &str, a: String, b: String) -> Atom {
    Atom::new(pred, vec![Term::constant(&a), Term::constant(&b)])
}

fn instance(atoms: impl IntoIterator<Item = Atom>) -> Instance {
    Instance::from_atoms(atoms).expect("benchmark instance is ground")
}

/// `n` distinct edges `E(a_i, b_j)` with seeded targets.
fn copy_input(rng: &mut StdRng, n: usize) -> Instance {
    instance((0..n).map(|i| {
        let j = rng.gen_range(0..n);
        pair("E", format!("a{i}"), format!("b{j}"))
    }))
}

/// A ring over `n` nodes plus `n / 2` seeded chords: strongly connected, so
/// the closure is every ordered pair.
fn closure_edges(rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for _ in 0..n / 2 {
        edges.push((rng.gen_range(0..n), rng.gen_range(0..n)));
    }
    edges
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let copy = set("E(X,Y) -> T(X,Y)");
    let closure = set("E(X,Y) -> T(X,Y)\nT(X,Y), E(Y,Z) -> T(X,Z)");
    let travel =
        set("fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2)\nrail(C1,C2,D) -> rail(C2,C1,D)");
    let lav = set("src(X,Y) -> emp(X,D), dept(D,Y)\nemp(X,D) -> person(X)");
    let edges = closure_edges(&mut rng, CLOSURE_NODES);
    let (merge_set, merge_batches) = random::merge_storm_stream(&random::MergeStormConfig {
        entities: MERGE_ENTITIES,
        attributes: 3,
        values: 8,
        batches: 10,
        seed,
    });
    let jobs = vec![
        Job {
            name: "copy_small",
            input: copy_input(&mut rng, COPY_SMALL),
            set: copy.clone(),
        },
        Job {
            name: "copy_large",
            input: copy_input(&mut rng, COPY_LARGE),
            set: copy,
        },
        Job {
            name: "closure",
            input: instance(
                edges
                    .iter()
                    .map(|&(a, b)| pair("E", format!("n{a}"), format!("n{b}"))),
            ),
            set: closure,
        },
        Job {
            name: "travel",
            input: random::random_travel_instance(&random::RandomTravelConfig {
                cities: TRAVEL_FACTS / 5,
                flights: TRAVEL_FACTS,
                rails: TRAVEL_FACTS,
                seed,
            }),
            set: travel,
        },
        Job {
            name: "lav",
            input: instance((0..LAV_SOURCES).map(|i| {
                let d = rng.gen_range(0..50usize);
                pair("src", format!("p{i}"), format!("org{d}"))
            })),
            set: lav,
        },
        Job {
            name: "merge_storm",
            input: instance(merge_batches.into_iter().flatten()),
            set: merge_set,
        },
        Job {
            name: "ex10_cycle",
            input: families::cycle_instance(CYCLE_NODES),
            set: paper::example10_sigma(),
        },
    ];
    debug_assert!(jobs.iter().map(|j| j.name).eq(JOBS));
    let mut queries = Vec::new();
    let cq = |text: String| ConjunctiveQuery::parse(&text).expect("benchmark query parses");
    for _ in 0..QUERIES[0] {
        let a = rng.gen_range(0..COPY_LARGE);
        queries.push(Query {
            job: 1,
            q: cq(format!("q(Y) <- T(a{a},Y)")),
        });
    }
    for _ in 0..QUERIES[1] {
        let n = rng.gen_range(0..CLOSURE_NODES);
        queries.push(Query {
            job: 2,
            q: cq(format!("q(Y) <- T(n{n},Y), E(Y,Z)")),
        });
    }
    for _ in 0..QUERIES[2] {
        let c = rng.gen_range(0..TRAVEL_FACTS / 5);
        queries.push(Query {
            job: 3,
            q: cq(format!("q(C2) <- fly(city{c},C2,D), hasAirport(C2)")),
        });
    }
    for _ in 0..QUERIES[3] {
        let p = rng.gen_range(0..LAV_SOURCES);
        queries.push(Query {
            job: 4,
            q: cq(format!("q(Y) <- emp(p{p},D), dept(D,Y)")),
        });
    }
    Inputs {
        corpus: corpus(),
        closure_edges: edges,
        jobs,
        queries,
    }
}

/// Every ordered pair `(a, b)` with a non-empty path from `a` to `b`.
fn reachable_pairs(n: usize, edges: &[(usize, usize)]) -> BTreeSet<(usize, usize)> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
    }
    let mut out = BTreeSet::new();
    for src in 0..n {
        let mut seen = vec![false; n];
        let mut queue: VecDeque<usize> = adj[src].iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            if std::mem::replace(&mut seen[v], true) {
                continue;
            }
            out.insert((src, v));
            queue.extend(adj[v].iter().copied());
        }
    }
    out
}

fn chase_config() -> ChaseConfig {
    ChaseConfig {
        max_steps: Some(5_000_000),
        ..ChaseConfig::default()
    }
}

/// Output checks on one pass's chase results.
fn check_results(r: &mut Report, inputs: &Inputs, results: &[ChaseResult]) {
    for (job, res) in inputs.jobs.iter().zip(results) {
        r.check(res.terminated(), || {
            format!(
                "{} stopped with {:?} instead of terminating",
                job.name, res.reason
            )
        });
    }
    for (i, n) in [(0, COPY_SMALL), (1, COPY_LARGE)] {
        let got = results[i].instance.len();
        r.check(got == 2 * n, || {
            format!("{}: {got} facts, expected 2n = {}", JOBS[i], 2 * n)
        });
    }
    // Transitive closure: the T facts are exactly the reachable pairs.
    let expected = reachable_pairs(CLOSURE_NODES, &inputs.closure_edges);
    let node = |t: &Term| -> usize {
        t.to_string()
            .trim_start_matches('n')
            .parse()
            .expect("closure node name")
    };
    let t = ConjunctiveQuery::parse("q(X,Y) <- T(X,Y)").expect("query parses");
    let got: BTreeSet<(usize, usize)> = t
        .evaluate_certain(&results[2].instance)
        .iter()
        .map(|row| (node(&row[0]), node(&row[1])))
        .collect();
    r.check(got == expected, || {
        format!(
            "closure: {} T facts, breadth-first search finds {} reachable pairs",
            got.len(),
            expected.len()
        )
    });
    // LAV: the certain answers of the join through invented nulls are the
    // source facts.
    let lav = ConjunctiveQuery::parse("q(X,Y) <- emp(X,D), dept(D,Y)").expect("query parses");
    let answers: HashSet<String> = lav
        .evaluate_certain(&results[4].instance)
        .iter()
        .map(|row| format!("src({},{})", row[0], row[1]))
        .collect();
    let sources: HashSet<String> = inputs.jobs[4]
        .input
        .atoms()
        .iter()
        .map(|a| a.to_string())
        .collect();
    r.check(answers == sources, || {
        format!(
            "lav: {} certain answers for {} source facts",
            answers.len(),
            sources.len()
        )
    });
    // Merge storm: every invented attribute null is merged into its value.
    let nulls = results[5].instance.nulls().len();
    r.check(nulls == 0, || format!("merge_storm: {nulls} nulls left"));
}

struct Pass {
    analyze_ms: Vec<f64>,
    job_s: Vec<f64>,
    steps: Vec<usize>,
    facts: usize,
    query_ms: Vec<f64>,
}

/// Phase-sum totals (ns) and plan-compile count of the process recorder.
fn recorder_totals() -> ([u64; PHASES.len()], u64, u64) {
    let rec = chase_obs::global();
    let phases = [
        Phase::DeltaMatch,
        Phase::HeadRevalidate,
        Phase::Insert,
        Phase::MergeRepair,
        Phase::PoolMaintain,
    ];
    let sums = phases.map(|p| rec.phase_snapshot(p).sum());
    let compile = rec.phase_snapshot(Phase::PlanCompile);
    (sums, compile.count(), compile.sum())
}

fn one_pass(ctx: &Ctx, inputs: &Inputs, pass: u64, results: &mut Vec<ChaseResult>) -> Pass {
    let tr = &ctx.tracer;
    let cfg = PrecedenceConfig::default();
    let root = tr.begin("exchange.pass", 0, pass << 16);
    let mut p = Pass {
        analyze_ms: Vec::new(),
        job_s: Vec::new(),
        steps: Vec::new(),
        facts: 0,
        query_ms: Vec::new(),
    };
    for _ in 0..ANALYZE_ROUNDS {
        for (i, s) in inputs.corpus.iter().enumerate() {
            let t0 = Instant::now();
            std::hint::black_box(analyze(&s.set, 4, &cfg));
            let t1 = Instant::now();
            tr.record("termination.analyze", t0, t1, root, pass << 16 | i as u64);
            p.analyze_ms.push(secs(t1 - t0) * 1e3);
        }
    }
    let ccfg = chase_config();
    results.clear();
    for (i, job) in inputs.jobs.iter().enumerate() {
        let t0 = Instant::now();
        let res = chase(&job.input, &job.set, &ccfg);
        let t1 = Instant::now();
        tr.record("engine.chase", t0, t1, root, pass << 16 | i as u64);
        p.job_s.push(secs(t1 - t0));
        p.steps.push(res.steps);
        p.facts += res.instance.len();
        results.push(res);
    }
    for (i, q) in inputs.queries.iter().enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(q.q.evaluate_certain(&results[q.job].instance));
        let t1 = Instant::now();
        tr.record("core.query", t0, t1, root, pass << 16 | i as u64);
        p.query_ms.push(secs(t1 - t0) * 1e3);
    }
    tr.end(root);
    p
}

/// Time each recognizer over the whole corpus (traced runs).
fn recognizer_times(ctx: &Ctx, r: &mut Report, corpus: &[Sigma]) {
    let cfg = PrecedenceConfig::default();
    let timed = |name: &'static str, f: &dyn Fn(&ConstraintSet)| {
        let t0 = Instant::now();
        for s in corpus {
            ctx.tracer.span(name, 0, 0, || f(&s.set));
        }
        secs(t0.elapsed())
    };
    let wa = timed("termination.weak_acyclicity", &|s| {
        std::hint::black_box(is_weakly_acyclic(s));
    });
    let safe = timed("termination.safety", &|s| {
        std::hint::black_box(is_safe(s));
    });
    let strat = timed("termination.stratification", &|s| {
        std::hint::black_box((is_stratified(s, &cfg), is_c_stratified(s, &cfg)));
    });
    let ir = timed("termination.inductive_restriction", &|s| {
        std::hint::black_box(is_inductively_restricted(s, &cfg));
    });
    let tl = timed("termination.t_level", &|s| {
        std::hint::black_box(t_level(s, 4, &cfg));
    });
    r.layer("termination.weak_acyclicity_s", wa);
    r.layer("termination.safety_s", safe);
    r.layer("termination.stratification_s", strat);
    r.layer("termination.inductive_restriction_s", ir);
    r.layer("termination.t_level_s", tl);
}

/// Generate the inputs, timing it as one set-up sample.
fn timed_inputs(ctx: &Ctx, setups: &mut Vec<f64>) -> Inputs {
    let t0 = Instant::now();
    let built = ctx.tracer.span("setup", 0, 0, || inputs(ctx.seed));
    setups.push(secs(t0.elapsed()));
    built
}

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    // Set-up generates the corpus, the chase inputs and the queries. It is
    // repeated before every pass, so its samples spread over the run.
    let mut setups = Vec::new();
    let inputs = timed_inputs(ctx, &mut setups);

    // The hierarchy levels the paper gives.
    let cfg = PrecedenceConfig::default();
    let mut unknown = 0usize;
    for s in &inputs.corpus {
        let report = analyze(&s.set, 4, &cfg);
        unknown += usize::from(report.t_level_unknown);
        if let Some(level) = s.level {
            r.check(report.t_level == level, || {
                format!(
                    "{}: t_level {:?}, expected {level:?}",
                    s.name, report.t_level
                )
            });
        }
    }

    let before = recorder_totals();
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    let mut passes = Vec::new();
    let mut results = Vec::new();
    loop {
        if !passes.is_empty() {
            std::hint::black_box(timed_inputs(ctx, &mut setups));
        }
        let p = one_pass(ctx, &inputs, passes.len() as u64 + 1, &mut results);
        if passes.is_empty() {
            check_results(&mut r, &inputs, &results);
        }
        passes.push(p);
        if Instant::now() >= deadline {
            break;
        }
    }
    let after = recorder_totals();

    // The host switches between a fast and a slow mode for stretches of a
    // few seconds, so every figure is a mean over the passes, which moves
    // smoothly with the mix of modes where a median jumps between them.
    let pass_mean = |f: &dyn Fn(&Pass) -> f64| mean(&passes.iter().map(f).collect::<Vec<_>>());
    let analyze_s = pass_mean(&|p| p.analyze_ms.iter().sum::<f64>()) / ANALYZE_ROUNDS as f64 / 1e3;
    let job_s: Vec<f64> = (0..JOBS.len())
        .map(|i| pass_mean(&|p| p.job_s[i]))
        .collect();
    let facts = results.iter().map(|res| res.instance.len()).sum::<usize>();
    let apply_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.job_s.iter().map(|s| s * 1e3))
        .collect();
    let query_ms: Vec<f64> = passes.iter().flat_map(|p| p.query_ms.clone()).collect();
    r.e2e("setup_s", median(&setups), setups.len());
    r.e2e("analyze_s", analyze_s, passes.len());
    r.e2e(
        "chase_facts_per_s",
        facts as f64 / job_s.iter().sum::<f64>(),
        passes.len(),
    );
    r.e2e(
        "apply_p50_ms",
        pass_mean(&|p| median(&p.job_s)) * 1e3,
        apply_ms.len(),
    );
    r.e2e(
        "query_p50_ms",
        pass_mean(&|p| median(&p.query_ms)),
        query_ms.len(),
    );
    r.tails(&apply_ms, &query_ms);
    r.attempted = passes
        .iter()
        .map(|p| (p.analyze_ms.len() + p.job_s.len() + p.query_ms.len()) as u64)
        .sum();
    r.failed = results.iter().filter(|res| !res.terminated()).count() as u64;
    r.prop(
        "facts_per_session_start",
        inputs.jobs.iter().map(|j| j.input.len()).sum::<usize>() as f64 / JOBS.len() as f64,
    );
    r.prop(
        "facts_per_session_end",
        results.iter().map(|res| res.instance.len()).sum::<usize>() as f64 / JOBS.len() as f64,
    );

    if ctx.traced() {
        let all_ms: Vec<f64> = passes.iter().flat_map(|p| p.analyze_ms.clone()).collect();
        r.layer("termination.analyze_ms.p50", median(&all_ms));
        r.layer("termination.analyze_ms.max", quantile(&all_ms, 1.0));
        r.layer("termination.unknown_sets", unknown as f64);
        recognizer_times(ctx, &mut r, &inputs.corpus);
        let mut step_us = Vec::new();
        for (i, job) in JOBS.iter().enumerate() {
            let chase_s = job_s[i];
            let steps = passes[0].steps[i];
            let us = chase_s * 1e6 / steps.max(1) as f64;
            step_us.push(us);
            r.layer(&format!("engine.chase_s.{job}"), chase_s);
            r.layer(&format!("engine.step_us.{job}"), us);
            r.layer(&format!("engine.steps.{job}"), steps as f64);
        }
        r.layer("engine.step_cost_growth.copy", step_us[1] / step_us[0]);
        for (i, phase) in PHASES.iter().enumerate() {
            let scale = phase_scale(i);
            let ns = after.0[i].saturating_sub(before.0[i]) as f64;
            r.layer(&format!("engine.phase_s.{phase}"), ns * scale / 1e9);
        }
        r.layer("plan.recompiles", after.1.saturating_sub(before.1) as f64);
        r.layer(
            "plan.compile_s",
            after.2.saturating_sub(before.2) as f64 / 1e9,
        );
        let largest = results
            .iter()
            .max_by_key(|res| res.instance.len())
            .expect("jobs ran");
        layers::core_probe(ctx, &mut r, &largest.instance);
        r.layer("trace.spans", ctx.tracer.len() as f64);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_closure_of_a_ring_is_every_pair() {
        let edges = vec![(0, 1), (1, 2), (2, 0)];
        assert_eq!(reachable_pairs(3, &edges).len(), 9);
        assert_eq!(reachable_pairs(3, &[(0, 1), (1, 2)]).len(), 3);
    }

    #[test]
    fn inputs_repeat_per_seed() {
        let a = inputs(3);
        let b = inputs(3);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.input.sorted_atoms(), y.input.sorted_atoms());
        }
        let qa: Vec<String> = a.queries.iter().map(|q| q.q.to_string()).collect();
        let qb: Vec<String> = b.queries.iter().map(|q| q.q.to_string()).collect();
        assert_eq!(qa, qb);
    }
}
