//! The TCP workloads, `serve_rw` and `serve_durable`.
//!
//! Both start a `chase_serve` server on a loopback port, open every tenant
//! session over the travel constraints (Figure 9, α1–α2), preload it, and
//! then drive it from one process with two client connections: a writer
//! sending small batches round-robin over the tenants and a reader sending
//! certain-answer queries, each on its own open-loop schedule. Latency is
//! counted from when a request was due.
//!
//! "analyze" here is the admission-time classification of every tenant's
//! Σ in the termination hierarchy, which the server does not do yet. It is
//! timed on the main thread between set-up and each window, so the window's
//! load is only the two connections.
//!
//! `serve_durable` runs the default compaction policy: its write rate is
//! sized so that every tenant passes the snapshot threshold several times
//! per window, and the reopen at the end loads a snapshot and replays the
//! WAL tail after it.

use std::collections::{BTreeSet, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

use chase_core::{Atom, ConjunctiveQuery, ConstraintSet, Instance};
use chase_corpus::random::{
    random_travel_instance, update_stream, RandomTravelConfig, UpdateStreamConfig,
};
use chase_obs::{HistogramSnapshot, RegistrySnapshot};
use chase_serve::proto::{Request, Response};
use chase_serve::{serve, ChaseSession, Client, ConductorConfig, QueryOpts, Server};
use chase_termination::{analyze, PrecedenceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers;
use crate::loadgen::{open_loop, Sample, WallClock};
use crate::output::Report;
use crate::stats::{mean, median, quantile, secs, us};
use crate::Ctx;

/// The travel constraints every tenant runs under.
pub const SIGMA: &str =
    "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2); rail(C1,C2,D) -> rail(C2,C1,D)";

/// The query templates readers fill with a city.
const TEMPLATES: [&str; 3] = [
    "q(C2) <- fly(CITY,C2,D), hasAirport(C2)",
    "q(C2) <- rail(CITY,C1,D), fly(C1,C2,D2)",
    "q(C1,D) <- rail(C1,CITY,D)",
];

/// Queries compared after the run besides the hot-city templates.
const CHECK_QUERIES: [&str; 2] = ["q(C) <- hasAirport(C)", "q(A,B,D) <- rail(A,B,D)"];

/// Measured windows per run, each on a freshly started and preloaded server.
const WINDOWS: u32 = 3;
/// Σ classifications timed before each window, in passes over the whole
/// fleet. The host switches between a fast and a slow mode every few tens
/// of milliseconds, so the passes span about half a second and `analyze_s`
/// is their mean, which moves smoothly with the mix where a median would
/// jump between the modes.
const ADMISSION_CLASSIFICATIONS: usize = 1600;

/// One TCP workload's shape.
pub struct Spec {
    pub durable: bool,
    pub tenants: usize,
    /// Travel network per tenant: cities, flights and rails.
    pub cities: usize,
    pub flights: usize,
    pub rails: usize,
    pub preload_batches: usize,
    /// Writes per second, over all tenants.
    pub write_rate: f64,
    pub batch_facts: usize,
    /// Share of a write batch's facts copied from the tenant's preload.
    pub dup_share: f64,
    /// Reads per second, over all tenants.
    pub read_rate: f64,
    /// Cities whose queries repeat.
    pub hot_cities: usize,
    /// Share of reads about a hot city.
    pub hot_share: f64,
}

pub const SERVE_RW: Spec = Spec {
    durable: false,
    tenants: 2,
    cities: 1500,
    flights: 6000,
    rails: 4500,
    preload_batches: 6,
    write_rate: 25.0,
    batch_facts: 8,
    dup_share: 0.25,
    read_rate: 200.0,
    hot_cities: 16,
    hot_share: 0.7,
};

/// 20 writes per tenant and second: with the default compaction (a
/// snapshot every 64 batches) each tenant takes three snapshots per
/// 10-second window.
pub const SERVE_DURABLE: Spec = Spec {
    durable: true,
    tenants: 8,
    cities: 100,
    flights: 350,
    rails: 280,
    preload_batches: 3,
    write_rate: 160.0,
    batch_facts: 4,
    dup_share: 0.25,
    read_rate: 60.0,
    hot_cities: 8,
    hot_share: 0.7,
};

fn atoms_text(atoms: &[Atom]) -> String {
    let mut s = String::new();
    for a in atoms {
        s.push_str(&a.to_string());
        s.push_str(". ");
    }
    s
}

pub struct Write {
    pub tenant: usize,
    pub text: String,
    pub facts: usize,
}

pub struct Read {
    pub tenant: usize,
    pub cq: String,
}

/// Everything the load is made of, drawn from the seed.
pub struct Inputs {
    /// Per tenant, the preload batches as fact text.
    pub preload: Vec<Vec<String>>,
    pub writes: Vec<Write>,
    pub reads: Vec<Read>,
    /// Reads sent before the measured window: every hot query text once.
    pub warm_reads: Vec<Read>,
}

fn city(c: usize) -> String {
    format!("city{c}")
}

fn inputs(spec: &Spec, seconds: u64, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut preload = Vec::new();
    let mut base: Vec<Vec<Atom>> = Vec::new();
    for t in 0..spec.tenants {
        let tenant_seed = seed.wrapping_mul(1000).wrapping_add(t as u64);
        let inst = random_travel_instance(&RandomTravelConfig {
            cities: spec.cities,
            flights: spec.flights,
            rails: spec.rails,
            seed: tenant_seed,
        });
        let stream = update_stream(
            &inst,
            &UpdateStreamConfig {
                batches: spec.preload_batches,
                seed: tenant_seed,
            },
        );
        preload.push(stream.iter().map(|b| atoms_text(b)).collect());
        base.push(inst.atoms());
    }
    let n_writes = (spec.write_rate * seconds as f64).ceil() as usize + 1;
    let writes = (0..n_writes)
        .map(|i| {
            let tenant = i % spec.tenants;
            let mut text = String::new();
            for _ in 0..spec.batch_facts {
                if rng.gen_bool(spec.dup_share) {
                    let b = &base[tenant];
                    text.push_str(&b[rng.gen_range(0..b.len())].to_string());
                } else {
                    let pred = if rng.gen_bool(0.5) { "fly" } else { "rail" };
                    let a = rng.gen_range(0..spec.cities);
                    let b = rng.gen_range(0..spec.cities);
                    let d = rng.gen_range(0..8usize);
                    text.push_str(&format!("{pred}({},{},d{d})", city(a), city(b)));
                }
                text.push_str(". ");
            }
            Write {
                tenant,
                text,
                facts: spec.batch_facts,
            }
        })
        .collect();
    let n_reads = (spec.read_rate * seconds as f64).ceil() as usize + 1;
    let reads = (0..n_reads)
        .map(|i| {
            let c = if rng.gen_bool(spec.hot_share) {
                rng.gen_range(0..spec.hot_cities)
            } else {
                rng.gen_range(0..spec.cities)
            };
            let t = TEMPLATES[rng.gen_range(0..TEMPLATES.len())];
            Read {
                tenant: i % spec.tenants,
                cq: t.replace("CITY", &city(c)),
            }
        })
        .collect();
    let mut warm_reads = Vec::new();
    for tenant in 0..spec.tenants {
        for c in 0..spec.hot_cities {
            for t in TEMPLATES {
                warm_reads.push(Read {
                    tenant,
                    cq: t.replace("CITY", &city(c)),
                });
            }
        }
    }
    Inputs {
        preload,
        writes,
        reads,
        warm_reads,
    }
}

pub fn conductor_config(spec: &Spec, root: Option<&Path>) -> ConductorConfig {
    ConductorConfig {
        max_sessions: spec.tenants + 8,
        durable_root: root.map(Path::to_path_buf),
        ..ConductorConfig::default()
    }
}

/// A started server with every tenant open and preloaded.
struct Fleet {
    server: Server,
    sessions: Vec<u64>,
    /// Facts per tenant after the preload.
    facts: Vec<usize>,
}

fn start_fleet(spec: &Spec, inputs: &Inputs, root: Option<&Path>) -> Result<Fleet, String> {
    let server =
        serve("127.0.0.1:0", conductor_config(spec, root)).map_err(|e| format!("serve: {e}"))?;
    let mut c = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut sessions = Vec::new();
    let mut facts = Vec::new();
    for batches in &inputs.preload {
        let s = c.open(SIGMA).map_err(|e| format!("open: {e}"))?;
        let mut total = 0;
        for b in batches {
            total = c
                .apply(s, b)
                .map_err(|e| format!("preload: {e}"))?
                .total_facts;
        }
        sessions.push(s);
        facts.push(total);
    }
    Ok(Fleet {
        server,
        sessions,
        facts,
    })
}

/// One request as a client connection saw it.
pub struct Op {
    pub sample: Sample,
    /// Index into `Inputs::writes` or `Inputs::reads`.
    pub input: usize,
    pub response: Option<Response>,
    /// The request as sent (traced runs only).
    pub request: Option<Request>,
}

/// Drive one connection on an open-loop schedule.
fn connection(
    addr: std::net::SocketAddr,
    clock: &WallClock,
    window: (Duration, Duration),
    interval: Duration,
    keep_requests: bool,
    request: impl Fn(usize) -> Request,
) -> Result<Vec<Op>, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut replies: Vec<(Option<Response>, Option<Request>)> = Vec::new();
    let samples = open_loop(clock, window.0, window.1, interval, |i| {
        let req = request(i as usize);
        let resp = c.call(&req).ok();
        let ok = resp.is_some();
        replies.push((resp, keep_requests.then_some(req)));
        ok
    });
    Ok(samples
        .into_iter()
        .zip(replies)
        .map(|(sample, (response, request))| Op {
            input: sample.index as usize,
            sample,
            response,
            request,
        })
        .collect())
}

/// Classify every tenant's Σ in the termination hierarchy, as admission
/// would, in passes over the fleet. Returns the seconds each pass took and
/// whether every Σ was recognised as terminating.
fn admission(tenants: usize, tr: &crate::trace::Tracer) -> (Vec<f64>, bool) {
    let cfg = PrecedenceConfig::default();
    let mut all_terminate = true;
    let passes = (0..ADMISSION_CLASSIFICATIONS / tenants)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..tenants {
                let set = ConstraintSet::parse(SIGMA).expect("sigma parses");
                all_terminate &= tr
                    .span("termination.analyze", 0, 0, || analyze(&set, 4, &cfg))
                    .guarantees_all_sequences();
            }
            secs(t0.elapsed())
        })
        .collect();
    (passes, all_terminate)
}

fn phase(snap: &RegistrySnapshot, name: &str) -> HistogramSnapshot {
    snap.histogram(&format!("chase_phase_ns{{phase=\"{name}\"}}"))
        .cloned()
        .unwrap_or_default()
}

fn histogram(snap: &RegistrySnapshot, name: &str) -> HistogramSnapshot {
    snap.histogram(name).cloned().unwrap_or_default()
}

/// Sorted answer rows, rendered as text.
fn rows(answers: Vec<Vec<String>>) -> BTreeSet<Vec<String>> {
    answers.into_iter().collect()
}

/// The check queries of one tenant: every hot query text plus whole-relation
/// reads.
fn check_queries(spec: &Spec) -> Vec<String> {
    let mut q: Vec<String> = CHECK_QUERIES.iter().map(|s| s.to_string()).collect();
    for c in 0..spec.hot_cities {
        for t in TEMPLATES {
            q.push(t.replace("CITY", &city(c)));
        }
    }
    q
}

/// Ask every tenant every check query over TCP.
fn server_answers(
    addr: std::net::SocketAddr,
    sessions: &[u64],
    queries: &[String],
) -> Result<Vec<Vec<BTreeSet<Vec<String>>>>, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    sessions
        .iter()
        .map(|&s| {
            queries
                .iter()
                .map(|q| {
                    c.query(s, q, QueryOpts::certain())
                        .map(rows)
                        .map_err(|e| format!("check query: {e}"))
                })
                .collect()
        })
        .collect()
}

/// The acknowledged batches of each tenant, in order: preload, then every
/// write the server acknowledged.
fn acknowledged<'a>(spec: &Spec, inputs: &'a Inputs, writes: &[Op]) -> Vec<Vec<&'a str>> {
    let mut acked: Vec<Vec<&str>> = inputs
        .preload
        .iter()
        .map(|b| b.iter().map(String::as_str).collect())
        .collect();
    debug_assert_eq!(acked.len(), spec.tenants);
    for op in writes.iter().filter(|op| op.sample.ok) {
        let w = &inputs.writes[op.input];
        acked[w.tenant].push(&w.text);
    }
    acked
}

pub fn parse_batch(text: &str) -> Vec<Atom> {
    Instance::parse(text).expect("batch text parses").atoms()
}

/// The acknowledged batches replayed through in-process sessions. Returns
/// the sessions and the time of each measured write's apply (µs).
fn replay_sessions(acked: &[Vec<&str>], preload: usize) -> (Vec<ChaseSession>, Vec<f64>) {
    let sigma = ConstraintSet::parse(SIGMA).expect("sigma parses");
    let mut apply_us = Vec::new();
    let sessions = acked
        .iter()
        .map(|batches| {
            let mut s = ChaseSession::new(sigma.clone());
            for (i, b) in batches.iter().enumerate() {
                let atoms = parse_batch(b);
                let t0 = Instant::now();
                s.apply(atoms).expect("replayed batch applies");
                if i >= preload {
                    apply_us.push(us(t0));
                }
            }
            s
        })
        .collect();
    (sessions, apply_us)
}

fn local_answers(s: &mut ChaseSession, queries: &[String]) -> Vec<BTreeSet<Vec<String>>> {
    queries
        .iter()
        .map(|q| {
            let q = ConjunctiveQuery::parse(q).expect("check query parses");
            rows(
                s.query((&q, QueryOpts::certain()))
                    .expect("replayed session answers")
                    .into_iter()
                    .map(|row| row.iter().map(|t| t.to_string()).collect())
                    .collect(),
            )
        })
        .collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Every sample a histogram holds, ascending, each read back at its
/// bucket's reported value.
fn ranked(h: &HistogramSnapshot) -> Vec<u64> {
    let last = h.count().saturating_sub(1).max(1) as f64;
    (0..h.count())
        .map(|rank| h.percentile(rank as f64 / last))
        .collect()
}

/// The samples recorded between two snapshots of one histogram, at bucket
/// resolution: `after` less `before`. Each earlier sample is matched to the
/// first later one at or above it, which lies in the same bucket (the top
/// bucket reports the snapshot's maximum, which only grows).
pub fn window_samples(before: &HistogramSnapshot, after: &HistogramSnapshot) -> Vec<f64> {
    let earlier = ranked(before);
    let mut matched = 0;
    let mut window = Vec::new();
    for v in ranked(after) {
        if matched < earlier.len() && v >= earlier[matched] {
            matched += 1;
        } else {
            window.push(v as f64);
        }
    }
    window
}

/// The newest snapshot epoch in a durable session's directory (0 if none).
fn newest_snapshot(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_prefix("snapshot-")?
                .strip_suffix(".csnp")?
                .parse()
                .ok()
        })
        .max()
        .unwrap_or(0)
}

pub fn run(ctx: &Ctx, spec: &Spec) -> Report {
    let mut r = Report::default();
    if let Err(e) = run_inner(ctx, spec, &mut r) {
        r.problems.push(e);
    }
    r
}

/// What one measured window recorded.
struct Window {
    writes: Vec<Op>,
    reads: Vec<Op>,
    /// Conductor metrics before and after the window.
    before: RegistrySnapshot,
    after: RegistrySnapshot,
}

/// Warm the fleet up (every hot query text once), then drive it for
/// `length` with the writer and the reader.
fn measure(
    ctx: &Ctx,
    spec: &Spec,
    inputs: &Inputs,
    fleet: &Fleet,
    length: Duration,
) -> Result<Window, String> {
    let tr = &ctx.tracer;
    let addr = fleet.server.addr();
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for w in &inputs.warm_reads {
        c.query(fleet.sessions[w.tenant], &w.cq, QueryOpts::certain())
            .map_err(|e| format!("warm-up query: {e}"))?;
    }
    let before = fleet.server.conductor().metrics_snapshot();
    let clock = WallClock::new();
    let window = (Duration::ZERO, length);
    let keep = ctx.traced();
    let (writes, reads) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            connection(
                addr,
                &clock,
                window,
                Duration::from_secs_f64(1.0 / spec.write_rate),
                keep,
                |i| {
                    let w = &inputs.writes[i];
                    Request::Apply {
                        session: fleet.sessions[w.tenant],
                        facts: w.text.clone(),
                    }
                },
            )
        });
        let reader = s.spawn(|| {
            connection(
                addr,
                &clock,
                window,
                Duration::from_secs_f64(1.0 / spec.read_rate),
                keep,
                |i| {
                    let q = &inputs.reads[i];
                    Request::Query {
                        session: fleet.sessions[q.tenant],
                        cq: q.cq.clone(),
                        opts: QueryOpts::certain(),
                    }
                },
            )
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    let (writes, reads) = (writes?, reads?);
    let after = fleet.server.conductor().metrics_snapshot();
    let origin = clock.origin();
    for (ops, name, base) in [
        (&writes, "loadgen.write", 1u64),
        (&reads, "loadgen.read", 2),
    ] {
        for op in ops.iter() {
            let s = op.sample;
            let req = op.input as u64 * 2 + base;
            let parent = tr.record(name, origin + s.due, origin + s.done, 0, req);
            tr.record("client.call", origin + s.sent, origin + s.done, parent, req);
        }
    }
    Ok(Window {
        writes,
        reads,
        before,
        after,
    })
}

fn run_inner(ctx: &Ctx, spec: &Spec, r: &mut Report) -> Result<(), String> {
    let tr = &ctx.tracer;
    // Each window gets a fresh server: generate the inputs, start it, open
    // and preload every tenant (the timed set-up), then measure. Threads
    // land on the host's cores differently from one server to the next, so
    // the medians over windows repeat better than one long window.
    let length = Duration::from_secs(ctx.seconds) / WINDOWS;
    let mut setups = Vec::new();
    let (mut apply_p50, mut query_p50, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut write_ms, mut read_ms, mut admission_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(Fleet, Inputs, std::path::PathBuf, Window)> = None;
    for k in 0..WINDOWS {
        if let Some((fleet, _, root, _)) = last.take() {
            fleet.server.shutdown();
            let _ = std::fs::remove_dir_all(root);
        }
        let root = ctx.work_dir.join(format!("durable-{k}"));
        let t0 = Instant::now();
        let inputs = inputs(spec, ctx.seconds, ctx.seed);
        let fleet = start_fleet(spec, &inputs, spec.durable.then_some(root.as_path()))?;
        let t1 = Instant::now();
        tr.record("setup", t0, t1, 0, 0);
        setups.push(secs(t1 - t0));
        let (passes, all_terminate) = admission(spec.tenants, tr);
        admission_s.extend(passes);
        r.check(all_terminate, || {
            "the travel Σ is not recognised as terminating".into()
        });
        let w = measure(ctx, spec, &inputs, &fleet, length)?;
        let lat = |ops: &[Op]| -> Vec<f64> { ops.iter().map(|o| o.sample.latency_ms()).collect() };
        let (wm, rm) = (lat(&w.writes), lat(&w.reads));
        apply_p50.push(quantile(&wm, 0.5));
        query_p50.push(quantile(&rm, 0.5));
        // Facts the sessions gained per acknowledged write, over the median
        // write round trip.
        let mut totals = fleet.facts.clone();
        let mut gained = 0usize;
        let mut acked_rtt_s = Vec::new();
        for op in &w.writes {
            if let Some(Response::Applied { outcome }) = &op.response {
                let t = inputs.writes[op.input].tenant;
                gained += outcome.total_facts.saturating_sub(totals[t]);
                totals[t] = outcome.total_facts;
                acked_rtt_s.push(op.sample.rtt_ms() / 1e3);
            }
        }
        let per_write = gained as f64 / acked_rtt_s.len().max(1) as f64;
        rate.push(per_write / median(&acked_rtt_s).max(1e-9));
        write_ms.extend(wm);
        read_ms.extend(rm);
        r.attempted += (w.writes.len() + w.reads.len()) as u64;
        r.failed += w
            .writes
            .iter()
            .chain(&w.reads)
            .filter(|o| !o.sample.ok)
            .count() as u64;
        last = Some((fleet, inputs, root, w));
    }
    r.e2e("setup_s", median(&setups), setups.len());
    r.e2e("analyze_s", mean(&admission_s), admission_s.len());
    r.e2e("chase_facts_per_s", median(&rate), rate.len());
    r.e2e("apply_p50_ms", median(&apply_p50), write_ms.len());
    r.e2e("query_p50_ms", median(&query_p50), read_ms.len());
    r.tails(&write_ms, &read_ms);
    let failed = r.failed;
    r.check(failed == 0, || format!("{failed} requests failed"));

    // The last window's fleet is checked and, in traced runs, replayed.
    let (fleet, inputs, root, w) = last.expect("at least one window");
    let Window {
        writes,
        reads,
        before,
        after,
        ..
    } = w;
    let addr = fleet.server.addr();
    if ctx.traced() {
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut rtt = Vec::new();
        for _ in 0..200 {
            let t0 = Instant::now();
            c.stats(fleet.sessions[0])
                .map_err(|e| format!("stats: {e}"))?;
            rtt.push(secs(t0.elapsed()) * 1e6);
        }
        r.layer("server.idle_rtt_us", median(&rtt));
    }
    let mut totals = fleet.facts.clone();
    let (mut new_facts, mut batch_facts) = (0usize, 0usize);
    for op in &writes {
        if let Some(Response::Applied { outcome }) = &op.response {
            let w = &inputs.writes[op.input];
            totals[w.tenant] = outcome.total_facts;
            new_facts += outcome.new_facts;
            batch_facts += w.facts;
        }
    }

    // Workload properties.
    let mut seen: HashSet<(usize, &str)> = inputs
        .warm_reads
        .iter()
        .map(|q| (q.tenant, q.cq.as_str()))
        .collect();
    let repeated = reads
        .iter()
        .filter(|o| {
            let q = &inputs.reads[o.input];
            !seen.insert((q.tenant, q.cq.as_str()))
        })
        .count();
    r.prop(
        "repeated_query_share",
        repeated as f64 / reads.len().max(1) as f64,
    );
    r.prop(
        "new_fact_share",
        new_facts as f64 / batch_facts.max(1) as f64,
    );
    r.prop(
        "facts_per_session_start",
        mean(&fleet.facts.iter().map(|&f| f as f64).collect::<Vec<_>>()),
    );
    r.prop(
        "facts_per_session_end",
        mean(&totals.iter().map(|&f| f as f64).collect::<Vec<_>>()),
    );

    // Output checks: the server's answers equal an in-process replay of the
    // acknowledged batches.
    let queries = check_queries(spec);
    let served = server_answers(addr, &fleet.sessions, &queries)?;
    let acked = acknowledged(spec, &inputs, &writes);
    let (mut replayed, session_apply_us) = tr.span("replay.sessions", 0, 0, || {
        replay_sessions(&acked, spec.preload_batches)
    });
    for (t, s) in replayed.iter_mut().enumerate() {
        let local = local_answers(s, &queries);
        for (i, q) in queries.iter().enumerate() {
            r.check(served[t][i] == local[i], || {
                format!(
                    "tenant {t}: server gives {} answers to {q}, replay gives {}",
                    served[t][i].len(),
                    local[i].len()
                )
            });
        }
        r.check(s.instance().len() == totals[t], || {
            format!(
                "tenant {t}: server holds {} facts, replay {}",
                totals[t],
                s.instance().len()
            )
        });
    }

    if ctx.traced() {
        // Service times from the conductor's own histograms, less what they
        // held before the window: the set-up's preload and the warm-up reads.
        let window_us = |name: &str| -> Vec<f64> {
            let (b, a) = (histogram(&before, name), histogram(&after, name));
            window_samples(&b, &a).iter().map(|ns| ns / 1e3).collect()
        };
        let (apply_us, query_us) = (window_us("chase_apply_ns"), window_us("chase_query_ns"));
        for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
            r.layer(
                &format!("conductor.service_apply_us.{label}"),
                quantile(&apply_us, q),
            );
            r.layer(
                &format!("conductor.service_query_us.{label}"),
                quantile(&query_us, q),
            );
        }
        // Server wait on the write path: the round trip the writer saw minus
        // the time the conductor spent on the apply.
        let rtt_us: Vec<f64> = writes.iter().map(|o| o.sample.rtt_ms() * 1e3).collect();
        for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
            let wait = quantile(&rtt_us, q) - quantile(&apply_us, q);
            r.layer(&format!("server.wait_us.{label}"), wait.max(0.0));
        }
        let late: Vec<f64> = writes
            .iter()
            .chain(&reads)
            .map(|o| o.sample.late_ms())
            .collect();
        r.layer("loadgen.late_ms.p99", quantile(&late, 0.99));
        r.layer("loadgen.sent", r.attempted as f64);
        r.layer("loadgen.failed", r.failed as f64);
        r.layer(
            "loadgen.failed_ratio",
            r.failed as f64 / r.attempted.max(1) as f64,
        );
        for (i, name) in crate::output::PHASES.iter().enumerate() {
            let scale = crate::output::phase_scale(i);
            let ns = phase(&after, name)
                .sum()
                .saturating_sub(phase(&before, name).sum());
            r.layer(&format!("engine.phase_s.{name}"), ns as f64 * scale / 1e9);
        }
        let (pa, pb) = (
            phase(&after, "plan_compile"),
            phase(&before, "plan_compile"),
        );
        r.layer(
            "plan.recompiles",
            pa.count().saturating_sub(pb.count()) as f64,
        );
        r.layer(
            "plan.compile_s",
            pa.sum().saturating_sub(pb.sum()) as f64 / 1e9,
        );
        for name in ["append", "fsync"] {
            let (b, a) = (
                phase(&before, &format!("wal_{name}")),
                phase(&after, &format!("wal_{name}")),
            );
            r.layer(
                &format!("wal.{name}_us.p50"),
                median(&window_samples(&b, &a)) / 1e3,
            );
        }
        r.layer("session.apply_us", mean(&session_apply_us));
        layers::serve_layers(
            ctx,
            r,
            &mut layers::Recorded {
                spec,
                preload: &inputs.preload,
                acked: &acked,
                writes: &writes,
                reads: &reads,
                read_inputs: &inputs.reads,
                sessions: &mut replayed,
                session_apply_us: mean(&session_apply_us),
            },
        );
    }

    // Durable: shut down, measure the disk, reopen on the same root and
    // compare every session with what it served before.
    if spec.durable {
        fleet.server.shutdown();
        // Compaction ran in the window: every tenant holds a snapshot taken
        // after its preload.
        for (t, &s) in fleet.sessions.iter().enumerate() {
            let epoch = newest_snapshot(&root.join(format!("session-{s}")));
            r.check(epoch > spec.preload_batches as u64, || {
                format!("tenant {t}: no snapshot after the preload (newest at epoch {epoch})")
            });
        }
        let disk = dir_bytes(&root);
        let user: usize = acked.iter().flatten().map(|b| b.len()).sum();
        let t0 = Instant::now();
        let reopened = serve("127.0.0.1:0", conductor_config(spec, Some(&root)))
            .map_err(|e| format!("reopen: {e}"))?;
        let mut c = Client::connect(reopened.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut epochs = Vec::new();
        for &s in &fleet.sessions {
            epochs.push(
                c.stats(s)
                    .map_err(|e| format!("stats after reopen: {e}"))?
                    .epoch,
            );
        }
        let recover = t0.elapsed();
        tr.record("wal.recover", t0, t0 + recover, 0, 0);
        for (t, &epoch) in epochs.iter().enumerate() {
            r.check(epoch == acked[t].len() as u64, || {
                format!(
                    "tenant {t}: epoch {epoch} after reopen, {} batches acknowledged",
                    acked[t].len()
                )
            });
        }
        let again = server_answers(reopened.addr(), &fleet.sessions, &queries)?;
        r.check(again == served, || {
            "answers changed across the reopen".into()
        });
        let replayed_records =
            phase(&reopened.conductor().metrics_snapshot(), "wal_replay").count();
        reopened.shutdown();
        r.figure("wal.recover_s", secs(recover));
        r.figure(
            "wal.disk_bytes_per_user_byte",
            disk as f64 / user.max(1) as f64,
        );
        r.layer("wal.replayed_records", replayed_records as f64);
    } else {
        fleet.server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
    if ctx.traced() {
        r.layer("trace.spans", tr.len() as f64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_obs::Histogram;

    #[test]
    fn window_samples_leave_out_what_came_before() {
        let h = Histogram::new();
        for v in [900_000, 5_000, 1_200_000] {
            h.record(v);
        }
        let before = h.snapshot();
        for v in [1_000, 5_000, 2_000_000] {
            h.record(v);
        }
        let window = window_samples(&before, &h.snapshot());
        assert_eq!(window.len(), 3);
        // Each sample reads back at most a bucket (1/16) above its value.
        for (got, want) in window.iter().zip([1_000.0, 5_000.0, 2_000_000.0]) {
            assert!(
                *got >= want && *got <= want * 17.0 / 16.0,
                "{got} for {want}"
            );
        }
        assert!(window_samples(&before, &before).is_empty());
    }
}
