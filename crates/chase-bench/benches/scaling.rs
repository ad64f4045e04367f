//! Size sweep of the per-step chase cost: does a step cost the same at 16k
//! facts as at 1k?
//!
//! For every class the paper recognises, the chase's *length* is
//! polynomial in the data (Theorems 3/5/6/7, `thm5_polynomial_chase`). A
//! chase is only that cheap if each step's bookkeeping is driven by the
//! step's delta, not by the size of the instance or of the trigger pool.
//! This bench chases four workloads at n ∈ {1k, 4k, 16k}:
//!
//! * `copy` — `E(X,Y) -> T(X,Y)` over n edges;
//! * `closure` — transitive closure of a ring of √n nodes (n closure facts);
//! * `travel` — the Figure 9 rules over n/2 flights and n/2 rails between
//!   n/10 cities (a two-atom head over one predicate);
//! * `lav` — `src(X,Y) -> emp(X,D), dept(D,Y)` over n sources in 50
//!   departments (a head joined through an existential).
//!
//! Each point is chased three times; the fastest run's wall time divided by
//! its step count is the per-step cost (scheduler interference only ever
//! adds time). Every point prints as a criterion-style
//! `scaling/<family>/<n> time: [min median max]` line of per-step times, so
//! `bench2json` records it in the perf trajectory, and every family prints
//! one `scaling growth: <family> 16k/1k = <ratio>` line. CI's bench-smoke
//! job fails when any growth ratio exceeds 2.0. Sizes are the same in quick
//! mode: the ratio is the measurement.

use chase_bench::{print_table, Row};
use chase_core::{Atom, ConstraintSet, Instance, Term};
use chase_corpus::random::{random_travel_instance, RandomTravelConfig};
use chase_engine::{chase, ChaseConfig};
use std::time::Instant;

const SIZES: [usize; 3] = [1_000, 4_000, 16_000];
const RUNS: usize = 3;

fn pair(pred: &str, a: String, b: String) -> Atom {
    Atom::new(pred, vec![Term::constant(&a), Term::constant(&b)])
}

fn instance(atoms: impl IntoIterator<Item = Atom>) -> Instance {
    Instance::from_atoms(atoms).expect("bench instance is ground")
}

/// The family's constraint set and its input at size `n`.
fn workload(family: &str, n: usize) -> (ConstraintSet, Instance) {
    let (sigma, inst) = match family {
        "copy" => (
            "E(X,Y) -> T(X,Y)",
            instance((0..n).map(|i| pair("E", format!("a{i}"), format!("b{}", i * 7919 % n)))),
        ),
        "closure" => {
            let k = (n as f64).sqrt().round() as usize;
            (
                "E(X,Y) -> T(X,Y)\nT(X,Y), E(Y,Z) -> T(X,Z)",
                instance((0..k).map(|i| pair("E", format!("n{i}"), format!("n{}", (i + 1) % k)))),
            )
        }
        "travel" => (
            "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2)\nrail(C1,C2,D) -> rail(C2,C1,D)",
            random_travel_instance(&RandomTravelConfig {
                cities: n / 10,
                flights: n / 2,
                rails: n / 2,
                seed: 7,
            }),
        ),
        "lav" => (
            "src(X,Y) -> emp(X,D), dept(D,Y)\nemp(X,D) -> person(X)",
            instance((0..n).map(|i| pair("src", format!("p{i}"), format!("org{}", i % 50)))),
        ),
        other => unreachable!("unknown family {other}"),
    };
    (ConstraintSet::parse(sigma).expect("bench set parses"), inst)
}

/// Per-step µs of each of `RUNS` chases, sorted, and the step count.
fn per_step_us(set: &ConstraintSet, inst: &Instance) -> (Vec<f64>, usize) {
    let cfg = ChaseConfig {
        max_steps: None,
        ..ChaseConfig::default()
    };
    let mut steps = 0;
    let mut us: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            let res = chase(inst, set, &cfg);
            let elapsed = t0.elapsed();
            assert!(res.terminated(), "{res}");
            steps = res.steps;
            elapsed.as_secs_f64() * 1e6 / res.steps as f64
        })
        .collect();
    us.sort_by(f64::total_cmp);
    (us, steps)
}

fn main() {
    let mut rows = Vec::new();
    let mut growth = Vec::new();
    for family in ["copy", "closure", "travel", "lav"] {
        let mut best = Vec::new();
        for n in SIZES {
            let (set, inst) = workload(family, n);
            let (us, steps) = per_step_us(&set, &inst);
            println!(
                "scaling/{family}/{n}   time: [{:.3} µs {:.3} µs {:.3} µs]",
                us[0],
                us[RUNS / 2],
                us[RUNS - 1]
            );
            rows.push(Row::new(
                family,
                vec![n.to_string(), steps.to_string(), format!("{:.2}", us[0])],
            ));
            best.push(us[0]);
        }
        growth.push((family, best[SIZES.len() - 1] / best[0]));
    }
    print_table(
        "scaling — per-step chase cost (fastest of 3 runs)",
        &["family", "n", "steps", "µs/step"],
        &rows,
    );
    for (family, ratio) in growth {
        println!("scaling growth: {family} 16k/1k = {ratio:.2}");
    }
}
