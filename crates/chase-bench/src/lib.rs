//! # chase-bench
//!
//! Benchmark harness regenerating every figure and quantitative claim of the
//! paper. The Criterion benchmarks live in `benches/` (one target per
//! experiment; PAPER.md's "Benchmarks" section lists the main ones); this
//! library hosts the shared row/series printers so `cargo bench` output
//! doubles as the data behind the paper's tables and series.
//!
//! # Examples
//!
//! Bench targets size their workloads through [`scaled`] (full budget
//! locally, reduced under CI's `CHASE_BENCH_QUICK=1`) and report shape
//! results through the table printers:
//!
//! ```
//! use chase_bench::{print_table, quick, scaled, Row};
//!
//! let facts = scaled(1_000, 50);
//! assert_eq!(facts, if quick() { 50 } else { 1_000 });
//! print_table(
//!     "demo",
//!     &["workload", "facts"],
//!     &[Row::new("travel", vec![facts.to_string()])],
//! );
//! ```

pub mod tables;

pub use tables::{print_series, print_table, Row};

/// Quick mode: `CHASE_BENCH_QUICK` is set in the environment.
///
/// CI's `bench-smoke` job exports it so every bench target runs with
/// reduced budgets (smaller workloads here, fewer samples and a tighter
/// sampling budget in the criterion stand-in) — enough to catch rot and
/// seed the `BENCH_<sha>.json` perf trajectory without burning CI minutes.
/// The numbers it produces are trend data, not precision measurements.
///
/// Delegates to the criterion stand-in's [`criterion::quick_mode`] so the
/// workload sizing here and the sampler's budgets can never disagree on
/// what "quick" means.
pub fn quick() -> bool {
    criterion::quick_mode()
}

/// `full` in normal runs, `quick` under [`quick`] mode — for sizing bench
/// workloads in one expression.
pub fn scaled(full: usize, quick_value: usize) -> usize {
    if quick() {
        quick_value
    } else {
        full
    }
}
