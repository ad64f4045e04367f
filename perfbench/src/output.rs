//! Metric names, the run report, and the lines a run prints and records.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::stats::quantile;
use crate::Ctx;

/// The workloads, with why each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "exchange",
        "offline single-thread classify-then-chase: termination, engine, plan and core do all the work, serving none",
    ),
    (
        "serve_rw",
        "TCP open loop on large in-memory tenants: the publish clone does most write work, reads share the copy-on-read path",
    ),
    (
        "serve_durable",
        "TCP open loop on eight small durable tenants: WAL append, fsync, repeated snapshot compaction and the reopen do most of the work",
    ),
];

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("analyze_s", "s"),
    ("chase_facts_per_s", "1/s"),
    ("apply_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
];

/// The exchange workload's chase jobs, in the order they run.
pub const JOBS: [&str; 7] = [
    "copy_small",
    "copy_large",
    "closure",
    "travel",
    "lav",
    "merge_storm",
    "ex10_cycle",
];

/// Engine phases read from the chase-obs recorder.
pub const PHASES: [&str; 5] = [
    "delta_match",
    "head_revalidate",
    "insert",
    "merge_repair",
    "pool_maintain",
];

/// What a recorded phase sum is multiplied by to estimate the phase's total:
/// the engine times its per-step phases (the first three of [`PHASES`]) on
/// one step in 64 and the others on every occurrence.
pub fn phase_scale(i: usize) -> f64 {
    if i < 3 {
        64.0
    } else {
        1.0
    }
}

/// Per-layer metrics, reported by every workload with `--trace 1` (0 where
/// the layer does no work in that workload).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("termination.analyze_ms.p50", "ms");
    add("termination.analyze_ms.max", "ms");
    add("termination.weak_acyclicity_s", "s");
    add("termination.safety_s", "s");
    add("termination.stratification_s", "s");
    add("termination.inductive_restriction_s", "s");
    add("termination.t_level_s", "s");
    add("termination.unknown_sets", "count");
    for job in JOBS {
        add(&format!("engine.chase_s.{job}"), "s");
    }
    for job in JOBS {
        add(&format!("engine.step_us.{job}"), "us");
    }
    for job in JOBS {
        add(&format!("engine.steps.{job}"), "count");
    }
    add("engine.step_cost_growth.copy", "ratio");
    for phase in PHASES {
        add(&format!("engine.phase_s.{phase}"), "s");
    }
    add("plan.recompiles", "count");
    add("plan.compile_s", "s");
    add("core.clone_ms", "ms");
    add("core.snapshot_encode_ms", "ms");
    add("core.snapshot_decode_ms", "ms");
    add("core.snapshot_bytes_per_fact", "B");
    add("core.insert_batch_us_per_kfact", "us");
    add("session.apply_us", "us");
    add("session.query_us", "us");
    add("session.sqo_first_query_ms", "ms");
    add("conductor.apply_us", "us");
    add("conductor.query_us", "us");
    add("conductor.publish_us", "us");
    add("conductor.service_apply_us.p50", "us");
    add("conductor.service_apply_us.p99", "us");
    add("conductor.service_query_us.p50", "us");
    add("conductor.service_query_us.p99", "us");
    add("proto.encode_us", "us");
    add("proto.decode_us", "us");
    add("proto.bytes_per_op", "B");
    add("server.idle_rtt_us", "us");
    add("server.wait_us.p50", "us");
    add("server.wait_us.p99", "us");
    add("wal.append_us.p50", "us");
    add("wal.fsync_us.p50", "us");
    add("wal.self_us", "us");
    add("wal.appends", "count");
    add("wal.fsyncs", "count");
    add("wal.bytes", "B");
    add("wal.snapshots_written", "count");
    add("wal.replayed_records", "count");
    add("wal.reopen_ms", "ms");
    add("wal.recover_s", "s");
    add("wal.disk_bytes_per_user_byte", "ratio");
    for (op, q) in [
        ("apply", "p90"),
        ("apply", "p99"),
        ("query", "p90"),
        ("query", "p99"),
    ] {
        add(&format!("tail.{op}_{q}_ms"), "ms");
    }
    add("loadgen.late_ms.p99", "ms");
    add("loadgen.sent", "count");
    add("loadgen.failed", "count");
    add("loadgen.failed_ratio", "ratio");
    add("workload.repeated_query_share", "ratio");
    add("workload.new_fact_share", "ratio");
    add("workload.facts_per_session_start", "count");
    add("workload.facts_per_session_end", "count");
    add("trace.spans", "count");
    m
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<String, f64>,
    /// Sample count behind each end-to-end metric.
    pub samples: BTreeMap<String, usize>,
    /// Per-layer metrics by name (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Workload properties that optimisations depend on.
    pub props: BTreeMap<String, f64>,
    /// Figures every run records but no bound gates, because they do not
    /// repeat closely enough on a shared host (tail latencies, recovery).
    pub figures: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, samples: usize) {
        self.e2e.insert(name.to_string(), value);
        self.samples.insert(name.to_string(), samples);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    pub fn prop(&mut self, name: &str, value: f64) {
        self.props.insert(name.to_string(), value);
        self.layers.insert(format!("workload.{name}"), value);
    }

    pub fn figure(&mut self, name: &str, value: f64) {
        self.figures.insert(name.to_string(), value);
        self.layers.insert(name.to_string(), value);
    }

    /// The 90th and 99th percentiles of the apply and query latencies.
    pub fn tails(&mut self, apply_ms: &[f64], query_ms: &[f64]) {
        for (op, v) in [("apply", apply_ms), ("query", query_ms)] {
            self.figure(&format!("tail.{op}_p90_ms"), quantile(v, 0.9));
            self.figure(&format!("tail.{op}_p99_ms"), quantile(v, 0.99));
        }
    }

    /// Record an output check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// `nproc`, CPU model and kernel release of this host.
fn host() -> BTreeMap<&'static str, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    BTreeMap::from([
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        ("os", std::env::consts::OS.to_string()),
    ])
}

/// A number as JSON (non-finite values, which no metric should produce,
/// become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_object<'a>(
    names: impl Iterator<Item = (&'a str, &'a str)>,
    values: &BTreeMap<String, f64>,
) -> String {
    let fields: Vec<String> = names
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                num(v),
                string(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn plain_object<'a>(entries: impl Iterator<Item = (&'a str, String)>) -> String {
    let fields: Vec<String> = entries
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Print the run's record and result line; returns the exit code.
pub fn emit(workload: &str, ctx: &Ctx, r: &Report, out_dir: &Path) -> u8 {
    let mut problems = r.problems.clone();
    for (name, _) in END_TO_END {
        if !r.e2e.contains_key(*name) {
            problems.push(format!("{name} was not measured"));
        }
    }
    let layer_names = per_layer();
    let correct = problems.is_empty();
    let e2e = metric_object(END_TO_END.iter().copied(), &r.e2e);
    let layers = metric_object(layer_names.iter().map(|(n, u)| (n.as_str(), *u)), &r.layers);
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or("", |(_, why)| why);
    let mut spans_file = String::new();
    if ctx.traced() {
        let path = out_dir.join(format!("spans-{workload}-seed{}.jsonl", ctx.seed));
        match ctx.tracer.write_to(&path) {
            Ok(()) => spans_file = path.display().to_string(),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let self_times = plain_object(ctx.tracer.self_times().into_iter().map(
        |(name, (total, own))| {
            (
                name,
                format!(
                    "{{\"total_ms\": {}, \"self_ms\": {}}}",
                    num(total),
                    num(own)
                ),
            )
        },
    ));
    let record = format!(
        "{{\"workload\": {}, \"why\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
         \"problems\": [{}], \"properties\": {}, \"figures\": {}, \"samples\": {}, \
         \"end_to_end\": {e2e}, \
         \"per_layer\": {}, \"span_times\": {self_times}, \"spans_file\": {}}}",
        string(workload),
        string(why),
        ctx.seed,
        ctx.seconds,
        ctx.traced(),
        plain_object(host().into_iter().map(|(k, v)| (k, string(&v)))),
        r.attempted,
        r.failed,
        problems
            .iter()
            .map(|p| string(p))
            .collect::<Vec<_>>()
            .join(", "),
        plain_object(r.props.iter().map(|(k, v)| (k.as_str(), num(*v)))),
        plain_object(r.figures.iter().map(|(k, v)| (k.as_str(), num(*v)))),
        plain_object(r.samples.iter().map(|(k, v)| (k.as_str(), v.to_string()))),
        if ctx.traced() { layers.as_str() } else { "{}" },
        string(&spans_file),
    );
    let results = out_dir.join("results.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| writeln!(f, "{record}"));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot append to {}: {e}", results.display());
    }
    for p in &problems {
        eprintln!("perfbench: output check failed: {p}");
    }
    println!("# record {record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.attempted.max(1),
        r.failed,
        if ctx.traced() { layers } else { e2e }
    );
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut expected: Vec<String> = WORKLOADS.iter().map(|(w, _)| w.to_string()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        expected.extend(per_layer().into_iter().map(|(n, _)| n));
        assert_eq!(names, expected);
        for (_, why) in WORKLOADS {
            assert!(text.contains(why), "BENCHMARK.json carries the why: {why}");
        }
    }

    #[test]
    fn names_are_unique_and_short() {
        let layers = per_layer();
        let mut all: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        all.extend(layers.iter().map(|(n, _)| n.as_str()));
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert!(all.iter().all(|n| n.len() <= 64));
        assert!(layers.len() <= 128);
    }
}
