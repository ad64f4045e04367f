//! Per-layer measurements of the traced run.
//!
//! The TCP workloads record their request streams; here the same streams
//! are replayed in process through `proto` encode/decode, the conductor's
//! `SessionHandle`, `ChaseSession` (in memory and durable) and
//! `Instance::clone`, so each layer's own cost follows by subtraction.

use std::collections::HashSet;
use std::time::Instant;

use chase_core::{ConjunctiveQuery, ConstraintSet, Instance};
use chase_serve::proto::{Request, Response};
use chase_serve::{ChaseSession, Conductor, DurabilityConfig, QueryOpts};

use crate::output::Report;
use crate::serve::{conductor_config, parse_batch, Op, Read, Spec, SIGMA};
use crate::stats::{mean, median, us};
use crate::Ctx;

/// `Instance` costs at this instance's size: clone, snapshot encode and
/// decode, snapshot size, and batch insertion.
pub fn core_probe(ctx: &Ctx, r: &mut Report, inst: &Instance) {
    let tr = &ctx.tracer;
    let mut clone_ms = Vec::new();
    for _ in 0..10 {
        let t0 = Instant::now();
        let copy = tr.span("core.clone", 0, 0, || inst.clone());
        clone_ms.push(us(t0) / 1e3);
        std::hint::black_box(copy);
    }
    let mut encode_ms = Vec::new();
    let mut decode_ms = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        bytes = tr.span("core.snapshot_encode", 0, 0, || inst.to_snapshot_bytes());
        encode_ms.push(us(t0) / 1e3);
        let t0 = Instant::now();
        let back = tr.span("core.snapshot_decode", 0, 0, || {
            Instance::from_snapshot_bytes(&bytes)
        });
        decode_ms.push(us(t0) / 1e3);
        r.check(
            back.as_ref().map(Instance::len).ok() == Some(inst.len()),
            || "an instance snapshot does not decode to the same size".into(),
        );
    }
    let ground: Vec<_> = inst.atoms().into_iter().filter(|a| a.is_ground()).collect();
    let mut per_kfact = Vec::new();
    for _ in 0..3 {
        let mut fresh = Instance::new();
        let t0 = Instant::now();
        tr.span("core.insert_batch", 0, 0, || {
            for chunk in ground.chunks(1000) {
                fresh
                    .insert_batch(chunk.iter().cloned())
                    .expect("ground atoms insert");
            }
        });
        per_kfact.push(us(t0) / (ground.len().max(1) as f64 / 1000.0));
    }
    r.layer("core.clone_ms", median(&clone_ms));
    r.layer("core.snapshot_encode_ms", median(&encode_ms));
    r.layer("core.snapshot_decode_ms", median(&decode_ms));
    r.layer(
        "core.snapshot_bytes_per_fact",
        bytes.len() as f64 / inst.len().max(1) as f64,
    );
    r.layer("core.insert_batch_us_per_kfact", median(&per_kfact));
}

/// What a TCP workload recorded, for the in-process replays.
pub struct Recorded<'a> {
    pub spec: &'a Spec,
    pub preload: &'a [Vec<String>],
    /// Per tenant, every acknowledged batch (preload first).
    pub acked: &'a [Vec<&'a str>],
    pub writes: &'a [Op],
    pub reads: &'a [Op],
    pub read_inputs: &'a [Read],
    /// In-process sessions holding the acknowledged batches.
    pub sessions: &'a mut Vec<ChaseSession>,
    /// Mean in-memory `ChaseSession::apply` of the measured writes (µs).
    pub session_apply_us: f64,
}

fn parse_query(text: &str) -> ConjunctiveQuery {
    ConjunctiveQuery::parse(text).expect("query text parses")
}

pub fn serve_layers(ctx: &Ctx, r: &mut Report, rec: &mut Recorded) {
    let tr = &ctx.tracer;
    let reads: Vec<&Read> = rec
        .reads
        .iter()
        .map(|o| &rec.read_inputs[o.input])
        .collect();

    // Session: the recorded reads on the in-process sessions.
    let root = tr.begin("replay.session", 0, 0);
    let mut seen: HashSet<(usize, &str)> = HashSet::new();
    let (mut all_us, mut first_ms) = (Vec::new(), Vec::new());
    for q in &reads {
        let cq = parse_query(&q.cq);
        let s = &mut rec.sessions[q.tenant];
        let t0 = Instant::now();
        let out = tr.span("session.query", root, 0, || {
            s.query((&cq, QueryOpts::certain()))
        });
        let t = us(t0);
        std::hint::black_box(out.expect("replayed query answers"));
        all_us.push(t);
        if seen.insert((q.tenant, q.cq.as_str())) {
            first_ms.push(t / 1e3);
        }
    }
    tr.end(root);
    r.layer("session.query_us", mean(&all_us));
    r.layer("session.sqo_first_query_ms", mean(&first_ms));

    // Conductor: the same streams through an in-process conductor.
    let sigma = ConstraintSet::parse(SIGMA).expect("sigma parses");
    let conductor = Conductor::new(conductor_config(rec.spec, None));
    let handles: Vec<_> = rec
        .preload
        .iter()
        .map(|batches| {
            let id = conductor.open(sigma.clone()).expect("in-process open");
            let h = conductor.route(id).expect("in-process route");
            for b in batches {
                h.apply(parse_batch(b)).expect("in-process preload");
            }
            h
        })
        .collect();
    let root = tr.begin("replay.conductor", 0, 0);
    let mut apply_us = Vec::new();
    for (tenant, batches) in rec.acked.iter().enumerate() {
        for b in &batches[rec.preload[tenant].len()..] {
            let atoms = parse_batch(b);
            let t0 = Instant::now();
            tr.span("conductor.apply", root, 0, || handles[tenant].apply(atoms))
                .expect("in-process apply");
            apply_us.push(us(t0));
        }
    }
    let mut query_us = Vec::new();
    for q in &reads {
        let cq = parse_query(&q.cq);
        let t0 = Instant::now();
        let out = tr.span("conductor.query", root, 0, || {
            handles[q.tenant].query(&cq, QueryOpts::certain())
        });
        query_us.push(us(t0));
        std::hint::black_box(out.expect("in-process query"));
    }
    tr.end(root);
    drop(handles);
    conductor.shutdown();
    let conductor_apply = mean(&apply_us);
    r.layer("conductor.apply_us", conductor_apply);
    r.layer("conductor.query_us", mean(&query_us));
    r.layer(
        "conductor.publish_us",
        conductor_apply - rec.session_apply_us,
    );

    // Core: instance costs at this workload's session size.
    let largest = rec
        .sessions
        .iter()
        .map(ChaseSession::instance)
        .max_by_key(|i| i.len())
        .expect("at least one tenant")
        .clone();
    core_probe(ctx, r, &largest);

    // Proto: encode and decode the recorded requests and replies.
    let pairs: Vec<(&Request, &Response)> = rec
        .writes
        .iter()
        .chain(rec.reads.iter())
        .filter_map(|o| Some((o.request.as_ref()?, o.response.as_ref()?)))
        .collect();
    let (mut enc, mut dec, mut bytes) = (0.0, 0.0, 0usize);
    for (corr, (req, resp)) in pairs.iter().enumerate() {
        let corr = corr as u64;
        let t0 = Instant::now();
        let (rq, rs) = tr.span("proto.encode", 0, corr, || {
            (req.encode(corr), resp.encode(corr))
        });
        enc += us(t0);
        bytes += rq.len() + rs.len();
        let t0 = Instant::now();
        let back = tr.span("proto.decode", 0, corr, || {
            (Request::decode(&rq), Response::decode(&rs))
        });
        dec += us(t0);
        r.check(matches!(back, (Ok(_), Ok(_))), || {
            "a recorded frame does not decode".into()
        });
    }
    let n = pairs.len().max(1) as f64;
    r.layer("proto.encode_us", enc / n);
    r.layer("proto.decode_us", dec / n);
    r.layer("proto.bytes_per_op", bytes as f64 / n);

    if rec.spec.durable {
        wal_layers(ctx, r, rec, &sigma);
    }
}

/// WAL costs: the acknowledged batches through durable in-process sessions,
/// against the in-memory apply of the same writes, then a reopen.
fn wal_layers(ctx: &Ctx, r: &mut Report, rec: &Recorded, sigma: &ConstraintSet) {
    let tr = &ctx.tracer;
    let root = tr.begin("replay.wal", 0, 0);
    let (mut appends, mut fsyncs, mut bytes, mut snapshots) = (0u64, 0u64, 0u64, 0u64);
    let mut apply_us = Vec::new();
    let mut reopen_ms = Vec::new();
    for (tenant, batches) in rec.acked.iter().enumerate() {
        let dir = ctx.work_dir.join(format!("wal-replay-{tenant}"));
        let mut s = ChaseSession::builder(sigma.clone())
            .durable(&dir)
            .durability(DurabilityConfig::default())
            .try_build()
            .expect("durable replay session builds");
        let preload = rec.preload[tenant].len();
        for b in &batches[..preload] {
            s.apply(parse_batch(b)).expect("durable preload");
        }
        let d0 = s.durability().expect("durable session");
        for b in &batches[preload..] {
            let atoms = parse_batch(b);
            let t0 = Instant::now();
            tr.span("session.apply_durable", root, 0, || s.apply(atoms))
                .expect("durable apply");
            apply_us.push(us(t0));
        }
        let d1 = s.durability().expect("durable session");
        appends += d1.wal_appends - d0.wal_appends;
        fsyncs += d1.wal_fsyncs - d0.wal_fsyncs;
        bytes += d1.wal_bytes - d0.wal_bytes;
        snapshots += d1.snapshots_written - d0.snapshots_written;
        let epoch = s.stats().epoch;
        drop(s);
        let t0 = Instant::now();
        let back = tr.span("session.open", root, 0, || ChaseSession::open(&dir));
        reopen_ms.push(us(t0) / 1e3);
        r.check(back.map(|b| b.stats().epoch).ok() == Some(epoch), || {
            format!("tenant {tenant}: a durable replay does not reopen at epoch {epoch}")
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    tr.end(root);
    r.layer("wal.self_us", mean(&apply_us) - rec.session_apply_us);
    r.layer("wal.appends", appends as f64);
    r.layer("wal.fsyncs", fsyncs as f64);
    r.layer("wal.bytes", bytes as f64);
    r.layer("wal.snapshots_written", snapshots as f64);
    r.layer("wal.reopen_ms", mean(&reopen_ms));
}
