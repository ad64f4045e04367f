//! The repository benchmark: end-to-end and per-layer numbers for the
//! chase workspace on three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload exchange --seed 1 --seconds 30 --trace 0
//! python3 perfbench/report.py --seeds 1-10      # spread over ten seeds
//! ```
//!
//! * `exchange` — offline and single threaded: classify a Σ corpus in the
//!   termination hierarchy, chase a fixed job list to quiescence and answer
//!   certain-answer queries over the results.
//! * `serve_rw` — TCP, in-memory sessions: large tenants, open-loop small
//!   writes on one connection and reads on another.
//! * `serve_durable` — TCP, durable sessions: eight small tenants with
//!   fsync on every batch and the default snapshot compaction taking
//!   several snapshots per tenant, then a shutdown and reopen.
//!
//! Every workload reports every end-to-end metric:
//!
//! | metric | `exchange` | `serve_rw`, `serve_durable` |
//! |---|---|---|
//! | `setup_s` | generate the inputs | generate the inputs, start the server, preload every tenant |
//! | `analyze_s` | classify the corpus | classify every tenant's Σ, as admission would, before each window (mean pass) |
//! | `chase_facts_per_s` | output facts ÷ chase time of the job list | facts gained per write ÷ median write round trip |
//! | `apply_p50_ms` | one chase job run to quiescence (a pass's median job) | one write, from when it was due |
//! | `query_p50_ms` | one certain-answer evaluation (a pass's median query) | one read, from when it was due |
//!
//! `setup_s` is the median of the run's set-ups. On `exchange` the other
//! figures are means over the run's passes; on the TCP workloads the
//! latencies and throughput are medians over the run's windows, and
//! `analyze_s` is the mean pass.
//!
//! Tail latencies (`tail.*`), recovery time and disk amplification
//! (`wal.recover_s`, `wal.disk_bytes_per_user_byte`) are recorded by every
//! run but gated by no bound: on a shared two-core host they do not repeat
//! closely enough from run to run.
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! every end-to-end metric; with `--trace 1` the run also records spans
//! around its calls into each layer, replays the recorded traffic in
//! process, and reports every per-layer metric instead. Every run appends a
//! full record (host, seed, tracing, workload properties, all metrics) to
//! `.bench_out/results.jsonl` under the working directory; traced runs also
//! write their spans there. A failed output check makes the run exit 1.

mod exchange;
mod layers;
mod loadgen;
mod output;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use output::Report;
use trace::Tracer;

/// What a workload function gets to run with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub tracer: Tracer,
    /// Scratch space of this run, under `.bench_out/`.
    pub work_dir: PathBuf,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be in 1..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !output::WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <exchange|serve_rw|serve_durable> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // The engine's process-wide recorder reads CHASE_OBS once, at first
    // use: switch it on for traced runs only, before any chase runs.
    if args.trace {
        std::env::set_var("CHASE_OBS", "1");
    } else {
        std::env::remove_var("CHASE_OBS");
    }
    let out_dir = PathBuf::from(".bench_out");
    let work_dir = out_dir.join(format!(
        "run-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        work_dir,
    };
    let report: Report = match args.workload.as_str() {
        "exchange" => exchange::run(&ctx),
        "serve_rw" => serve::run(&ctx, &serve::SERVE_RW),
        "serve_durable" => serve::run(&ctx, &serve::SERVE_DURABLE),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let code = output::emit(&args.workload, &ctx, &report, &out_dir);
    ExitCode::from(code)
}
