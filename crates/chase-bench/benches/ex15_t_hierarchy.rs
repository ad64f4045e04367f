//! E2 — Figure 2 / Example 15: hierarchy levels of the Σ-family and the
//! cost of membership testing per level.
//!
//! The printed series shows the empirical law `level(arity n) = n + 1`
//! (PAPER.md, "Deviations from the paper", D10); the timings show how the `≺k,P` oracle cost grows with
//! the chain length k.

use chase_bench::{print_table, Row};
use chase_corpus::paper;
use chase_termination::{check, t_level, PrecedenceConfig};
use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;

fn print_levels() {
    let pc = PrecedenceConfig::default();
    let rows: Vec<Row> = (2..=4)
        .map(|arity| {
            let set = paper::sigma_family(arity);
            let (level, _) = t_level(&set, arity + 2, &pc);
            let memberships: Vec<String> = (2..=arity + 2)
                .map(|k| format!("T[{k}]={}", check(&set, k, &pc)))
                .collect();
            Row::new(
                format!("arity {arity}"),
                vec![
                    level.map(|k| format!("T[{k}]")).unwrap_or("-".into()),
                    memberships.join(" "),
                ],
            )
        })
        .collect();
    print_table(
        "Example 15 — hierarchy level per family arity",
        &["member", "least level", "memberships"],
        &rows,
    );
}

fn bench(c: &mut Criterion) {
    let pc = PrecedenceConfig::default();
    let mut g = c.benchmark_group("t_hierarchy_membership");
    g.sample_size(10);
    for arity in 2..=4usize {
        let set = paper::sigma_family(arity);
        for k in 2..=arity + 1 {
            g.bench_with_input(
                BenchmarkId::new(format!("check_T{k}"), format!("arity{arity}")),
                &set,
                |b, s| b.iter(|| check(black_box(s), k, &pc)),
            );
        }
    }
    g.finish();
}

fn main() {
    print_levels();
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
