//! The chase runner: sequences of chase steps under a pluggable strategy.
//!
//! The paper's chase imposes *no* order on applicable constraints, and its
//! central negative results (Example 4) hinge on specific orders diverging
//! while others terminate. The runner therefore makes the order an explicit
//! [`Strategy`]:
//!
//! * [`Strategy::RoundRobin`] — scan constraints cyclically, one step each;
//! * [`Strategy::FixedCycle`] — apply constraints in a given cyclic order
//!   (reproduces Example 4's diverging sequence exactly);
//! * [`Strategy::Random`] — pick a uniformly random active trigger each step
//!   (seeded, for property tests over "every chase sequence" claims);
//! * [`Strategy::Phased`] — exhaust constraint groups in order (the
//!   terminating-order construction of Theorem 2).
//!
//! Budgets (`max_steps`, `max_nulls`) and the monitor-graph guard
//! (`monitor_depth`, Section 4.2) bound runs that would otherwise diverge.
//!
//! # The delta-driven trigger queue
//!
//! The engine keeps every currently fireable trigger in a trigger pool —
//! one ordered map per constraint, keyed by the normalized assignment — and
//! maintains it **incrementally**. After a TGD step adds atoms:
//!
//! * only constraints whose *body* predicates intersect the delta are
//!   re-matched, semi-naively: each new atom is pinned into each compatible
//!   body slot and the rest of the body is completed through the
//!   index-driven homomorphism searcher
//!   ([`crate::trigger::for_each_delta_match`]);
//! * head revalidation is the mirror image, on the head side: a violated
//!   TGD trigger becomes satisfied only through a new head match that maps
//!   some head atom onto a new atom, and whether a head match satisfies a
//!   trigger depends only on the trigger's *frontier* bindings. The pool
//!   therefore indexes each TGD's triggers by their frontier projection and,
//!   per head slot, by the frontier variables of that slot's atom. Each new
//!   atom looks up its slot bucket, enumerates the head matches it seeds,
//!   and probes the frontier index with them — falling back to checking the
//!   bucket's triggers one by one once the matches outnumber the bucket;
//! * triggers found satisfied are memoized in a dead-set so the standard
//!   chase's "not already satisfied" check never runs twice for the same
//!   `(constraint, assignment)` pair.
//!
//! EGD merges are delta-driven too. The store returns a
//! [`chase_core::MergeEffect`] naming the rows the merge rewrote, and the
//! engine repairs its structures from that delta: pooled substitutions and
//! dead/fired memo keys are remapped through `from ↦ to` (normalized keys
//! sort by variable *name*, so the substitution renormalizes them in
//! place), remapped pool triggers are re-validated in full, and the
//! rewritten rows seed the same semi-naive re-matching and head
//! revalidation a TGD delta uses — no pool rebuild, no memo wipe.
//!
//! All matching work — the initial pool build, semi-naive delta
//! re-matching, head revalidation, and the naive reference's full
//! re-enumeration — goes through a [`Matcher`]: with `ChaseConfig::use_planner` (the default) each
//! constraint body and head is compiled once per statistics epoch into a
//! `chase-plan` join program (greedy bind-first/smallest-relation-first atom
//! order, composite secondary-index lookups), and with the planner off the
//! classic backtracking searcher runs instead. Both enumerate the same
//! homomorphism sets and triggers are selected canonically by normalized
//! assignment, so traces are bit-identical planner-on vs planner-off.
//!
//! This replaces the seed engine's per-step full re-enumeration — a
//! backtracking search over the whole instance for every constraint on every
//! step, the quadratic blow-up *Stop the Chase* (Meier et al., 2009) calls
//! out — with work driven by each step's delta: body re-matching and head
//! revalidation both cost per delta atom, never per pooled trigger (EGD
//! merge repair still scans the pool for keys mentioning the merged term,
//! and `Strategy::Random` walks it to the drawn index). The old behaviour is
//! retained as [`chase_naive`] so tests and benches can compare the two
//! engines trigger for trigger: both select the canonically least trigger
//! (smallest constraint index, then smallest normalized assignment), so
//! their traces are bit-identical whenever the pool is maintained correctly.

use crate::monitor::MonitorGraph;
use crate::step::{apply_step, StepEffect};
use crate::trigger::{head_rests, normalize, Matcher};
use chase_core::fx::{FxHashMap, FxHashSet};
use chase_core::homomorphism::Subst;
use chase_core::{Atom, Constraint, ConstraintSet, Instance, MergeEffect, Sym, Term};
use chase_obs::{EventKind, Phase, PhaseTimer, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// Standard chase (fire only violated triggers) or oblivious chase (fire
/// every body match once).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaseMode {
    /// Fire a trigger only while the instantiated constraint is violated.
    #[default]
    Standard,
    /// Fire every `(constraint, assignment)` pair exactly once, violated or
    /// not (the oblivious chase used by c-stratification, Definition 4).
    Oblivious,
}

/// The order in which applicable constraints are fired.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Cycle through constraint indices `0..n`, applying at most one step per
    /// constraint per pass.
    #[default]
    RoundRobin,
    /// Cycle through the given constraint indices (repetitions allowed),
    /// applying at most one step per entry per pass.
    FixedCycle(Vec<usize>),
    /// Uniformly random choice among all active triggers, from a seeded RNG.
    Random {
        /// RNG seed; equal seeds give equal sequences.
        seed: u64,
    },
    /// Chase each group of constraint indices to completion before moving to
    /// the next group, then finish with a round-robin pass over everything
    /// (a no-op for correctly stratified phases, Theorem 2).
    Phased(Vec<Vec<usize>>),
}

/// Chase configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaseConfig {
    /// Standard or oblivious stepping.
    pub mode: ChaseMode,
    /// Firing order.
    pub strategy: Strategy,
    /// Stop after this many steps (`None` = unbounded — beware, the chase
    /// need not terminate).
    pub max_steps: Option<usize>,
    /// Stop after inventing this many fresh nulls.
    pub max_nulls: Option<usize>,
    /// Abort as soon as the monitor graph becomes k-cyclic for this `k`
    /// (Section 4.2). Implies monitor-graph maintenance.
    pub monitor_depth: Option<usize>,
    /// Keep a full step-by-step trace in the result.
    pub keep_trace: bool,
    /// Maintain (and return) the monitor graph even without a depth guard.
    pub keep_monitor: bool,
    /// Route all trigger matching through the `chase-plan` cost-guided join
    /// programs and composite indexes (the default). With `false`, every
    /// matching path runs the classic backtracking searcher instead.
    /// Trigger selection is canonical either way, so traces are
    /// bit-identical planner-on vs planner-off — only the cost differs.
    pub use_planner: bool,
}

impl Default for ChaseConfig {
    fn default() -> ChaseConfig {
        ChaseConfig {
            mode: ChaseMode::Standard,
            strategy: Strategy::RoundRobin,
            max_steps: Some(10_000),
            max_nulls: None,
            monitor_depth: None,
            keep_trace: false,
            keep_monitor: false,
            use_planner: true,
        }
    }
}

impl ChaseConfig {
    /// Default configuration with a step budget.
    pub fn with_max_steps(n: usize) -> ChaseConfig {
        ChaseConfig {
            max_steps: Some(n),
            ..ChaseConfig::default()
        }
    }

    /// Default configuration with the Section 4.2 monitor guard.
    pub fn with_monitor_depth(k: usize) -> ChaseConfig {
        ChaseConfig {
            monitor_depth: Some(k),
            max_steps: None,
            ..ChaseConfig::default()
        }
    }
}

/// Why the run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The instance satisfies every constraint: the chase terminated and the
    /// result is `I^Σ`.
    Satisfied,
    /// An EGD tried to equate two distinct constants: the chase fails.
    Failed,
    /// The step budget was exhausted with violations remaining.
    StepLimit(usize),
    /// The fresh-null budget was exhausted.
    NullLimit(usize),
    /// The monitor graph became k-cyclic for the configured depth: the
    /// sequence is *potentially* infinite and no guarantee can be given.
    MonitorAbort {
        /// The configured cycle depth that was reached.
        depth: usize,
    },
}

/// One applied chase step, as recorded in the trace.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Index of the fired constraint.
    pub constraint: usize,
    /// The trigger assignment, restricted to universal variables and sorted
    /// by variable name.
    pub assignment: Vec<(Sym, Term)>,
    /// The instantiated body under the assignment.
    pub ground_body: Vec<Atom>,
    /// Atoms newly added (TGD steps).
    pub added: Vec<Atom>,
    /// Fresh nulls invented (TGD steps).
    pub fresh_nulls: Vec<Term>,
    /// Merge performed (EGD steps): `(from, to)`.
    pub merged: Option<(Term, Term)>,
    /// Facts rewritten by the merge (EGD steps; `0` otherwise) — the size
    /// of the delta the pool was re-matched against.
    pub merge_rewritten: usize,
    /// Facts that collapsed onto existing rows during the merge (EGD
    /// steps; `0` otherwise).
    pub merge_collapsed: usize,
}

/// The outcome of a chase run.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The final (or last reached) instance.
    pub instance: Instance,
    /// Why the run stopped.
    pub reason: StopReason,
    /// Number of chase steps applied (the sequence length `r`).
    pub steps: usize,
    /// Number of fresh nulls invented.
    pub fresh_nulls: usize,
    /// Per-step trace (only when `keep_trace`).
    pub trace: Vec<StepRecord>,
    /// The monitor graph (only when maintained).
    pub monitor: Option<MonitorGraph>,
}

impl ChaseResult {
    /// Did the chase terminate with `I ⊨ Σ`?
    pub fn terminated(&self) -> bool {
        self.reason == StopReason::Satisfied
    }

    /// Did the chase fail on an EGD?
    pub fn failed(&self) -> bool {
        self.reason == StopReason::Failed
    }
}

impl fmt::Display for ChaseResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} after {} steps ({} fresh nulls, {} atoms)",
            self.reason,
            self.steps,
            self.fresh_nulls,
            self.instance.len()
        )
    }
}

/// Canonical identity of a trigger: the normalized assignment of the
/// constraint's universal variables (see [`normalize`]).
type TriggerKey = Vec<(Sym, Term)>;

/// A trigger key projected onto some of its variables: their bound terms,
/// in the projection's variable order.
type Projection = Vec<Term>;

/// One hash index over a TGD's pooled keys: projection → the keys with it.
#[derive(Clone)]
struct KeyIndex {
    /// The projection's variables, looked up in each normalized key (keys
    /// hold a handful of bindings, so a scan beats precomputing positions,
    /// which would need the name-sorted key layout).
    vars: Vec<Sym>,
    buckets: FxHashMap<Projection, FxHashSet<TriggerKey>>,
}

impl KeyIndex {
    /// Write `key`'s projection into `out` (a reused probe buffer).
    fn project(&self, key: &TriggerKey, out: &mut Projection) {
        out.clear();
        out.extend(self.vars.iter().map(|&v| {
            key.iter()
                .find(|&&(u, _)| u == v)
                .expect("a trigger key binds every universal")
                .1
        }));
    }
}

/// The head-side indexes over one TGD's pooled triggers. A trigger's head
/// satisfaction depends only on its *frontier* bindings, so:
///
/// * the **frontier index** (`indexes[0]`) groups keys by their frontier
///   projection — the probe for "which triggers does this head match
///   satisfy?";
/// * each head slot `j` has a **slot index** over the frontier variables
///   occurring in head atom `j` — the only triggers a fact placed at slot
///   `j` can help satisfy. Slots whose variable list equals the frontier's
///   (or an earlier slot's) share that index.
///
/// EGDs have no head and get an empty `HeadIndex`.
#[derive(Clone, Default)]
struct HeadIndex {
    /// Distinct projections; `indexes[0]` is the frontier index (over the
    /// frontier in `Tgd::frontier` order).
    indexes: Vec<KeyIndex>,
    /// Per head slot: the index it reads, and the positions of head atom
    /// `j` carrying that index's variables (first occurrence each).
    slots: Vec<(usize, Vec<usize>)>,
    /// Scratch buffer for projecting keys on insert and remove.
    probe: Projection,
}

impl HeadIndex {
    fn new(c: &Constraint) -> HeadIndex {
        let Constraint::Tgd(t) = c else {
            return HeadIndex::default();
        };
        let frontier = t.frontier();
        let mut var_lists: Vec<Vec<Sym>> = vec![frontier.to_vec()];
        let mut slots = Vec::with_capacity(t.head().len());
        for h in t.head() {
            let first = |v: Sym| h.terms().iter().position(|&x| x == Term::Var(v));
            let vars: Vec<Sym> = frontier
                .iter()
                .copied()
                .filter(|&v| first(v).is_some())
                .collect();
            let atom_pos = vars.iter().filter_map(|&v| first(v)).collect();
            let ix = var_lists
                .iter()
                .position(|l| *l == vars)
                .unwrap_or_else(|| {
                    var_lists.push(vars);
                    var_lists.len() - 1
                });
            slots.push((ix, atom_pos));
        }
        let indexes = var_lists
            .into_iter()
            .map(|vars| KeyIndex {
                vars,
                buckets: FxHashMap::default(),
            })
            .collect();
        HeadIndex {
            indexes,
            slots,
            probe: Vec::new(),
        }
    }

    fn insert(&mut self, key: &TriggerKey) {
        for ix in &mut self.indexes {
            ix.project(key, &mut self.probe);
            match ix.buckets.get_mut(self.probe.as_slice()) {
                Some(bucket) => {
                    bucket.insert(key.clone());
                }
                None => {
                    let bucket = FxHashSet::from_iter([key.clone()]);
                    ix.buckets.insert(self.probe.clone(), bucket);
                }
            }
        }
    }

    fn remove(&mut self, key: &TriggerKey) {
        for ix in &mut self.indexes {
            ix.project(key, &mut self.probe);
            let p = self.probe.as_slice();
            let bucket = ix.buckets.get_mut(p).expect("pooled key is indexed");
            bucket.remove(key);
            if bucket.is_empty() {
                ix.buckets.remove(p);
            }
        }
    }

    /// The pooled keys that fact `a`, placed at head slot `j`, could help
    /// satisfy: those whose slot-`j` frontier bindings equal `a`'s terms.
    fn slot_bucket(
        &self,
        j: usize,
        a: &Atom,
        probe: &mut Projection,
    ) -> Option<&FxHashSet<TriggerKey>> {
        let (ix, atom_pos) = &self.slots[j];
        probe.clear();
        probe.extend(atom_pos.iter().map(|&i| a.terms()[i]));
        self.indexes[*ix].buckets.get(probe.as_slice())
    }

    /// The pooled keys whose frontier bindings are `h`'s — every one of
    /// them is satisfied by the head match `h`.
    fn frontier_bucket(&self, h: &Subst, probe: &mut Projection) -> Option<&FxHashSet<TriggerKey>> {
        probe.clear();
        probe.extend(
            self.indexes[0]
                .vars
                .iter()
                .map(|&v| h.var(v).expect("a head match binds the frontier")),
        );
        self.indexes[0].buckets.get(probe.as_slice())
    }
}

/// The currently fireable triggers, one ordered map per constraint, plus a
/// [`HeadIndex`] per constraint for delta-driven head revalidation.
///
/// `BTreeMap` gives the canonical within-constraint order (assignments
/// compare by interned symbol id, then term) that both engines use for
/// selection, and `pop_first` hands the fired trigger out by value — no
/// `Subst` clone on the hot path. Every mutation goes through `insert`,
/// `remove`, `pop_first` or `take_nth`, which keep the indexes in step.
#[derive(Default, Clone)]
struct TriggerPool {
    pools: Vec<BTreeMap<TriggerKey, Subst>>,
    heads: Vec<HeadIndex>,
    total: usize,
}

impl TriggerPool {
    fn new(set: &ConstraintSet) -> TriggerPool {
        TriggerPool {
            pools: (0..set.len()).map(|_| BTreeMap::new()).collect(),
            heads: set.iter().map(HeadIndex::new).collect(),
            total: 0,
        }
    }

    fn insert(&mut self, ci: usize, key: TriggerKey, mu: Subst) -> bool {
        match self.pools[ci].entry(key) {
            Entry::Vacant(slot) => {
                self.heads[ci].insert(slot.key());
                self.total += 1;
                slot.insert(mu);
                true
            }
            Entry::Occupied(mut slot) => {
                slot.insert(mu);
                false
            }
        }
    }

    fn contains(&self, ci: usize, key: &TriggerKey) -> bool {
        self.pools[ci].contains_key(key)
    }

    fn remove(&mut self, ci: usize, key: &TriggerKey) -> Option<Subst> {
        let removed = self.pools[ci].remove(key);
        if removed.is_some() {
            self.heads[ci].remove(key);
            self.total -= 1;
        }
        removed
    }

    fn pop_first(&mut self, ci: usize) -> Option<(TriggerKey, Subst)> {
        let popped = self.pools[ci].pop_first();
        if let Some((key, _)) = &popped {
            self.heads[ci].remove(key);
            self.total -= 1;
        }
        popped
    }

    /// Remove and return the `n`-th trigger in global canonical order
    /// (constraint index, then assignment).
    fn take_nth(&mut self, mut n: usize) -> Option<(usize, TriggerKey, Subst)> {
        for ci in 0..self.pools.len() {
            let len = self.pools[ci].len();
            if n < len {
                let key = self.pools[ci]
                    .keys()
                    .nth(n)
                    .expect("index in range")
                    .clone();
                let mu = self.remove(ci, &key).expect("key just read");
                return Some((ci, key, mu));
            }
            n -= len;
        }
        None
    }

    /// The pooled triggers of TGD `ci` that the facts `added` (already in
    /// `inst`) newly satisfied — each key once or more; the caller dedups.
    ///
    /// A new head match maps some slot `j` onto some added fact `a`, and
    /// can only satisfy triggers in `a`'s slot-`j` bucket. For each such
    /// `(j, a)` with a non-empty bucket, the head matches seeded by `a`
    /// alone are enumerated and their frontier bindings probe the frontier
    /// index: every hit is newly satisfied, exactly. The enumeration stops
    /// once it yields more matches than the bucket holds (a head like
    /// `hasAirport(C1), hasAirport(C2)` would otherwise scan a cross
    /// product); the bucket's triggers are then checked one by one
    /// instead. Either way the cost is min(bucket, head matches) per
    /// `(j, a)`, not the size of the pool. (`matcher` and `inst` are
    /// mutable only so the head-delta programs can compile on first use.)
    fn newly_satisfied(
        &self,
        ci: usize,
        head: &[Atom],
        rests: &[Vec<Atom>],
        matcher: &mut Matcher,
        inst: &mut Instance,
        added: &[Atom],
    ) -> Vec<TriggerKey> {
        let index = &self.heads[ci];
        let mut hits: Vec<TriggerKey> = Vec::new();
        let mut probe = Projection::new();
        for a in added {
            for (j, h) in head.iter().enumerate() {
                if h.pred() != a.pred() {
                    continue;
                }
                let Some(bucket) = index.slot_bucket(j, a, &mut probe) else {
                    continue;
                };
                matcher.prepare_head_delta(ci, head, inst);
                let (matcher, inst) = (&*matcher, &*inst);
                let mut seen = 0usize;
                let overflow =
                    matcher.for_each_head_delta_match(ci, head, rests, j, inst, a, &mut |m| {
                        if seen == bucket.len() {
                            return true;
                        }
                        seen += 1;
                        if let Some(sat) = index.frontier_bucket(m, &mut probe) {
                            hits.extend(sat.iter().cloned());
                        }
                        false
                    });
                if overflow {
                    hits.extend(
                        bucket
                            .iter()
                            .filter(|key| {
                                let mu = &self.pools[ci][*key];
                                matcher.head_satisfied_via(ci, head, rests, j, inst, a, mu)
                            })
                            .cloned(),
                    );
                }
            }
        }
        hits
    }

    /// Check the indexes against the pool: every pooled key sits in exactly
    /// its own bucket of every index, no bucket holds a stale key or is
    /// empty, and `total` counts the pool.
    #[cfg(test)]
    fn assert_consistent(&self) {
        let total: usize = self.pools.iter().map(BTreeMap::len).sum();
        assert_eq!(self.total, total, "total counts the pool");
        for (ci, (pool, head)) in self.pools.iter().zip(&self.heads).enumerate() {
            for (i, ix) in head.indexes.iter().enumerate() {
                let indexed: usize = ix.buckets.values().map(FxHashSet::len).sum();
                assert_eq!(indexed, pool.len(), "constraint {ci}, index {i}: size");
                let mut probe = Projection::new();
                for (p, bucket) in &ix.buckets {
                    assert!(
                        !bucket.is_empty(),
                        "constraint {ci}, index {i}: empty bucket"
                    );
                    for key in bucket {
                        assert!(pool.contains_key(key), "constraint {ci}: stale {key:?}");
                        ix.project(key, &mut probe);
                        assert_eq!(&probe, p, "constraint {ci}: misfiled {key:?}");
                    }
                }
            }
        }
    }
}

/// The resumable core of a chase run: the instance together with every
/// incrementally maintained matching structure — the trigger pool, the
/// dead/fired memos, the compiled [`Matcher`] plan cache, the monitor
/// graph, and the cumulative step/null counters.
///
/// A one-shot [`chase`] builds an `EngineState`, drives it to a stop, and
/// tears it apart into a [`ChaseResult`]. The serving layer
/// (`chase-serve`) instead keeps one alive across update batches: after
/// [`EngineState::insert_batch`] the pool has already been re-matched
/// semi-naively from the batch delta, so [`chase_resume`] continues the
/// chase warm instead of rebuilding pool, memos, and plans from scratch.
///
/// Warm continuation is sound because everything memoized is monotone
/// under the chase's own operations: added atoms (chase steps *or*
/// base-fact batches) never un-satisfy a TGD trigger and never change an
/// EGD trigger's bindings, and EGD merges rename terms permanently, so the
/// dead-set stays valid once its keys are remapped through the merge.
/// Trigger selection stays canonical, so a resumed chase is some legal
/// chase sequence of the accumulated base facts.
///
/// The state is only meaningful for the `(set, cfg)` pair it was built
/// with; methods taking them again expect the *same* values (the session
/// layer owns all three together). `Clone` is the snapshot/fork
/// primitive: the columnar instance, the pool's ordered maps, and the plan
/// cache all clone without re-deriving anything.
#[derive(Clone)]
pub struct EngineState {
    inst: Instance,
    steps: usize,
    fresh_nulls: usize,
    monitor: Option<MonitorGraph>,
    /// Oblivious mode: triggers that already fired, keyed per constraint so
    /// membership probes borrow the key instead of cloning it.
    fired: Vec<FxHashSet<TriggerKey>>,
    /// Standard mode, delta engine: triggers known to be satisfied, keyed
    /// per constraint. This is monotone — added atoms never un-satisfy a
    /// TGD trigger and never change an EGD trigger's bindings — so
    /// membership means the "not already satisfied" check can be skipped
    /// for good. EGD merges remap the keys through `from ↦ to` (a
    /// satisfied trigger stays satisfied under the renaming).
    dead: Vec<FxHashSet<TriggerKey>>,
    /// The incrementally maintained active-trigger queue (delta engine only).
    pool: TriggerPool,
    /// Per-constraint body predicates, for delta → constraint dispatch.
    body_preds: Vec<FxHashSet<Sym>>,
    /// Per-constraint TGD head predicates, for revalidation dispatch.
    head_preds: Vec<FxHashSet<Sym>>,
    /// Per-constraint head rests (`[j]` = the TGD head without atom `j`),
    /// computed once for the unplanned matching paths; empty for EGDs and
    /// when the planner is on (its compiled programs replace them).
    head_rests: Vec<Vec<Vec<Atom>>>,
    /// The matching engine every trigger query goes through: compiled
    /// `chase-plan` join programs (planner on) or the classic searcher
    /// (planner off). Refreshed when the instance's statistics epoch
    /// moves.
    matcher: Matcher,
    /// Facts rewritten by EGD merges, cumulative across every run over
    /// this state (merge-cost observability for the serving layer).
    merge_rewritten: usize,
    /// Facts removed by merge deduplication, cumulative.
    merge_collapsed: usize,
    /// Did the pool's initial full enumeration run yet? (Delta engines
    /// only; the naive reference never builds the pool.)
    pool_built: bool,
    /// A terminal stop ([`StopReason::Failed`] or
    /// [`StopReason::MonitorAbort`]) observed by some run over this state.
    /// Budget stops are *not* terminal — a later resume gets a fresh
    /// budget — but a failed or aborted state cannot be chased further.
    poisoned: Option<StopReason>,
    /// Telemetry sink: per-phase wall-clock histograms and the event ring.
    /// Strictly write-only from the engine's point of view — nothing here
    /// is ever read back into trigger selection, so recording cannot
    /// perturb the deterministic trace. Defaults to the process-global
    /// recorder ([`chase_obs::global`], enabled by `CHASE_OBS`); `Clone`
    /// shares the sink, so forks and snapshots keep feeding one recorder.
    recorder: Recorder,
}

impl EngineState {
    /// Build fresh state for chasing `instance` under `set`/`cfg`: clones
    /// the instance, compiles the matcher (planner permitting), and sets up
    /// the dispatch tables. The trigger pool itself is populated lazily by
    /// the first run (or resume) over the state.
    pub fn new(instance: &Instance, set: &ConstraintSet, cfg: &ChaseConfig) -> EngineState {
        let monitor = if cfg.monitor_depth.is_some() || cfg.keep_monitor {
            Some(MonitorGraph::new())
        } else {
            None
        };
        let collect_preds =
            |atoms: &[Atom]| -> FxHashSet<Sym> { atoms.iter().map(|a| a.pred()).collect() };
        let body_preds: Vec<FxHashSet<Sym>> = set
            .enumerate()
            .map(|(_, c)| collect_preds(c.body()))
            .collect();
        let head_preds: Vec<FxHashSet<Sym>> = set
            .enumerate()
            .map(|(_, c)| match c {
                Constraint::Tgd(t) => collect_preds(t.head()),
                Constraint::Egd(_) => FxHashSet::default(),
            })
            .collect();
        let rests = set
            .iter()
            .map(|c| match c.as_tgd() {
                Some(t) if !cfg.use_planner => head_rests(t.head()),
                _ => Vec::new(),
            })
            .collect();
        let mut inst = instance.clone();
        let recorder = chase_obs::global().clone();
        let matcher = if cfg.use_planner {
            Matcher::planned_with(set, &mut inst, recorder.clone())
        } else {
            Matcher::unplanned()
        };
        EngineState {
            inst,
            steps: 0,
            fresh_nulls: 0,
            monitor,
            fired: vec![FxHashSet::default(); set.len()],
            dead: vec![FxHashSet::default(); set.len()],
            pool: TriggerPool::new(set),
            body_preds,
            head_preds,
            head_rests: rests,
            matcher,
            merge_rewritten: 0,
            merge_collapsed: 0,
            pool_built: false,
            poisoned: None,
            recorder,
        }
    }

    /// Install a telemetry recorder for this state (and its matcher),
    /// replacing the process-global default. The recorder only *observes* —
    /// phase timings and events never feed back into trigger selection —
    /// so traces are bit-identical whether it is enabled or not.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.matcher.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The telemetry recorder this state reports into.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The current instance (chased as far as the runs so far got).
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// Consume the state, keeping only the instance.
    pub fn into_instance(self) -> Instance {
        self.inst
    }

    /// Chase steps applied across every run over this state.
    pub fn total_steps(&self) -> usize {
        self.steps
    }

    /// Fresh nulls invented across every run over this state.
    pub fn total_fresh_nulls(&self) -> usize {
        self.fresh_nulls
    }

    /// Facts rewritten by EGD merges across every run over this state —
    /// the total merge delta the pool was re-matched against.
    pub fn total_merge_rewritten(&self) -> usize {
        self.merge_rewritten
    }

    /// Facts that collapsed onto existing rows during EGD merges across
    /// every run over this state.
    pub fn total_merge_collapsed(&self) -> usize {
        self.merge_collapsed
    }

    /// The matcher (plan cache) the state threads through every run — for
    /// plan-cache-reuse introspection (`Matcher::recompile_count`).
    pub fn matcher(&self) -> &Matcher {
        &self.matcher
    }

    /// The monitor graph, when the configuration maintains one.
    pub fn monitor(&self) -> Option<&MonitorGraph> {
        self.monitor.as_ref()
    }

    /// The terminal stop that poisoned this state, if any: an EGD
    /// [`StopReason::Failed`] or a [`StopReason::MonitorAbort`]. Poisoned
    /// states refuse further chasing ([`chase_resume`] returns the reason
    /// immediately); budget stops do not poison.
    pub fn poisoned(&self) -> Option<&StopReason> {
        self.poisoned.as_ref()
    }

    /// Is the state fully chased — the pool built, empty, and the state not
    /// poisoned? A quiescent standard-mode state satisfies its constraint
    /// set; resuming it is a no-op.
    pub fn quiescent(&self) -> bool {
        self.pool_built && self.pool.total == 0 && self.poisoned.is_none()
    }

    /// Ingest a batch of ground base facts and update the trigger pool
    /// incrementally: the batch is inserted atomically
    /// ([`Instance::insert_batch`]), plans are refreshed if the batch moved
    /// the statistics epoch, pooled triggers whose heads the new atoms may
    /// have satisfied are revalidated, and affected constraints are
    /// re-matched semi-naively from the batch delta — exactly the
    /// maintenance a TGD chase step performs for its own added atoms.
    ///
    /// Returns the actually-new atoms (duplicates contribute no work: the
    /// pool, plans, and statistics are untouched by an all-duplicate
    /// batch). Does **not** chase; call [`chase_resume`] afterwards.
    ///
    /// # Errors
    /// A non-ground atom anywhere in the batch rejects the whole batch and
    /// leaves the state untouched.
    ///
    /// # Panics
    /// Panics on a poisoned state (see [`EngineState::poisoned`]): its pool
    /// is inconsistent and the accepted facts could never be chased, so
    /// silently ingesting them would corrupt the session's contract. Check
    /// `poisoned()` first (the `chase-serve` layer does, turning it into
    /// an error).
    pub fn insert_batch(
        &mut self,
        set: &ConstraintSet,
        cfg: &ChaseConfig,
        batch: impl IntoIterator<Item = Atom>,
    ) -> Result<Vec<Atom>, chase_core::CoreError> {
        assert!(
            self.poisoned.is_none(),
            "insert_batch on a poisoned EngineState ({:?})",
            self.poisoned
        );
        let added = self.inst.insert_batch(batch)?;
        if !added.is_empty() {
            // Same maintenance order as a TGD step in `Run::fire`: refresh
            // plans first (the batch may have crossed a stats epoch — and
            // before the *first* run, the plans still carry the seed
            // instance's statistics), then revalidate + re-match from the
            // delta. Before the initial pool build the delta work is moot:
            // the first run's full enumeration will see the batch.
            self.matcher.refresh(set, &mut self.inst);
            if self.pool_built {
                let mut run = Run::new(set, cfg, self, false);
                let sampled = run.step_sampled();
                run.apply_delta(&added, sampled);
            }
        }
        Ok(added)
    }
}

/// Internal per-run view: borrows a (possibly resumed) [`EngineState`] and
/// drives it under one `(set, cfg, strategy)` until a stop. Budgets are
/// per run — a resumed state's accumulated totals don't eat into a new
/// run's budget — and the trace is per run too.
struct Run<'a> {
    set: &'a ConstraintSet,
    cfg: &'a ChaseConfig,
    st: &'a mut EngineState,
    /// Naive reference mode: skip all pool maintenance and re-enumerate
    /// triggers from scratch at every step (the seed engine's behaviour).
    naive: bool,
    rng: Option<StdRng>,
    stop: Option<StopReason>,
    trace: Vec<StepRecord>,
    /// Step/null counters at run start — the budget baselines.
    steps0: usize,
    nulls0: usize,
}

/// Does this normalized key bind some variable to `t`?
fn key_mentions(key: &TriggerKey, t: Term) -> bool {
    key.iter().any(|&(_, bound)| bound == t)
}

/// Substitute `from ↦ to` in a normalized key. Keys sort by variable
/// *name*, which the substitution leaves untouched, so the result is
/// normalized too.
fn remap_key(key: &TriggerKey, from: Term, to: Term) -> TriggerKey {
    key.iter()
        .map(|&(v, t)| (v, if t == from { to } else { t }))
        .collect()
}

/// Substitute `from ↦ to` in a trigger assignment.
fn remap_subst(mu: &Subst, from: Term, to: Term) -> Subst {
    let mut nu = Subst::new();
    for (v, t) in mu.var_bindings() {
        nu.bind_var(v, if t == from { to } else { t });
    }
    nu
}

/// Rewrite every key in a memo set through `from ↦ to`. Renamed keys can
/// collide with existing members; set union is exactly what the dead and
/// fired memo semantics want (both facts — "satisfied" / "already fired" —
/// hold for the collided key either way).
fn remap_key_set(memo: &mut FxHashSet<TriggerKey>, from: Term, to: Term) {
    let stale: Vec<TriggerKey> = memo
        .iter()
        .filter(|k| key_mentions(k, from))
        .cloned()
        .collect();
    for key in stale {
        memo.remove(&key);
        memo.insert(remap_key(&key, from, to));
    }
}

/// Sampling mask for the *per-step* telemetry sites — the
/// [`Phase::HeadRevalidate`], [`Phase::DeltaMatch`] and [`Phase::Insert`]
/// timers plus the [`EventKind::StepFired`] event. Timing every step costs
/// a handful of clock reads per chase step, which dominates micro-chases
/// (the CI overhead gate caps the recording-on vs -off median delta on
/// `ex4_strategies` at 5%); instead, one step in 64 records the full
/// decomposition and the rest skip even the clock reads. The gate is keyed
/// on the deterministic step counter, read once per step *before* the
/// counter moves, and that one decision arms all four sites — so steps 0,
/// 64, 128, … record one sample in each phase. Sampling is write-only and
/// reproducible — it can never perturb trigger selection — and step 0
/// always samples, so even a two-fact session surfaces nonzero phase
/// percentiles. An `insert_batch` delta samples on the same grid, keyed
/// on the step counter at ingest time. The rare, heavy sites ([`Phase::MergeRepair`],
/// [`Phase::PoolMaintain`], [`Phase::PlanCompile`] and all other events)
/// record every occurrence.
const OBS_SAMPLE_MASK: u64 = 63;

/// Panic with a named message when a strategy's constraint list (`what`)
/// indexes past the end of a set of `n` constraints, instead of with a
/// bare out-of-bounds index deep inside the run.
fn assert_names_constraints<'s>(
    what: &str,
    indices: impl IntoIterator<Item = &'s usize>,
    n: usize,
) {
    for &ci in indices {
        assert!(
            ci < n,
            "{what} names constraint {ci}, but the set has {n} constraints"
        );
    }
}

impl<'a> Run<'a> {
    fn new(
        set: &'a ConstraintSet,
        cfg: &'a ChaseConfig,
        st: &'a mut EngineState,
        naive: bool,
    ) -> Run<'a> {
        match &cfg.strategy {
            Strategy::Phased(phases) => {
                assert_names_constraints("phase schedule", phases.iter().flatten(), set.len())
            }
            Strategy::FixedCycle(order) => {
                assert_names_constraints("cyclic order", order, set.len())
            }
            Strategy::RoundRobin | Strategy::Random { .. } => {}
        }
        let rng = match cfg.strategy {
            Strategy::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        let (steps0, nulls0) = (st.steps, st.fresh_nulls);
        let mut run = Run {
            set,
            cfg,
            st,
            naive,
            rng,
            stop: None,
            trace: Vec::new(),
            steps0,
            nulls0,
        };
        if !run.naive && !run.st.pool_built {
            let _t = run.st.recorder.phase(Phase::PoolMaintain);
            run.enumerate_pool();
            run.st.pool_built = true;
        }
        run
    }

    /// Does the current step land on the [`OBS_SAMPLE_MASK`] sampling
    /// grid? Decides whether this step's per-step telemetry records.
    #[inline]
    fn step_sampled(&self) -> bool {
        self.st.steps as u64 & OBS_SAMPLE_MASK == 0
    }

    /// A [`Recorder::phase`] timer when the step is `sampled`, a disarmed
    /// guard (no clock read, nothing recorded) otherwise.
    #[inline]
    fn sampled_phase(&self, sampled: bool, phase: Phase) -> PhaseTimer {
        if sampled {
            self.st.recorder.phase(phase)
        } else {
            PhaseTimer::disarmed()
        }
    }

    /// Is `(ci, µ)` fireable right now, honoring the chase mode?
    fn fires(&self, ci: usize, c: &Constraint, mu: &Subst, key: &TriggerKey) -> bool {
        match self.cfg.mode {
            ChaseMode::Standard => self.st.matcher.is_active(ci, c, &self.st.inst, mu),
            ChaseMode::Oblivious => !self.st.fired[ci].contains(key),
        }
    }

    /// Populate the pool from a full enumeration — the **initial build**
    /// only. EGD merges used to route through here conservatively; they
    /// are now repaired incrementally by [`Run::apply_merge_delta`], so a
    /// running engine never re-enumerates.
    fn enumerate_pool(&mut self) {
        // Split borrows: the matcher holds `inst` while the callback fills
        // `pool`.
        let Run { set, cfg, st, .. } = self;
        let EngineState {
            inst,
            fired,
            pool,
            matcher,
            ..
        } = &mut **st;
        let matcher = &*matcher;
        debug_assert_eq!(pool.total, 0, "the pool is built once, from empty");
        for (ci, c) in set.enumerate() {
            matcher.for_each_body_hom(ci, c, inst, &mut |mu| {
                let key = normalize(c, mu);
                let fires = match cfg.mode {
                    ChaseMode::Standard => matcher.is_active(ci, c, inst, mu),
                    ChaseMode::Oblivious => !fired[ci].contains(&key),
                };
                if fires && !pool.contains(ci, &key) {
                    pool.insert(ci, key, mu.clone());
                }
                false
            });
        }
    }

    /// Incremental pool update after a TGD step added `added` to the
    /// instance. `sampled` is the step's [`OBS_SAMPLE_MASK`] decision, taken
    /// by the caller before the step counter moved.
    fn apply_delta(&mut self, added: &[Atom], sampled: bool) {
        if added.is_empty() {
            return;
        }
        let delta_preds: FxHashSet<Sym> = added.iter().map(|a| a.pred()).collect();
        // Revalidate pooled triggers that the new atoms may have satisfied:
        // a violated TGD trigger becomes satisfied only when an atom with one
        // of its head predicates appears, and only triggers whose frontier
        // bindings fit a head match through the new atom
        // ([`TriggerPool::newly_satisfied`]). (Oblivious triggers and EGD
        // triggers never die from added atoms.)
        if self.cfg.mode == ChaseMode::Standard {
            let _t = self.sampled_phase(sampled, Phase::HeadRevalidate);
            let EngineState {
                inst,
                dead,
                pool,
                matcher,
                head_preds,
                head_rests,
                ..
            } = &mut *self.st;
            for (ci, c) in self.set.enumerate() {
                if head_preds[ci].is_disjoint(&delta_preds) {
                    continue;
                }
                let Constraint::Tgd(t) = c else {
                    continue;
                };
                let now_dead =
                    pool.newly_satisfied(ci, t.head(), &head_rests[ci], matcher, inst, added);
                for key in now_dead {
                    if pool.remove(ci, &key).is_some() {
                        dead[ci].insert(key);
                    }
                }
            }
        }
        // Re-match constraints whose body can see the delta, seeded from the
        // new atoms.
        let _t = self.sampled_phase(sampled, Phase::DeltaMatch);
        // Split borrows: the matcher reads `inst` and the memos while
        // `found` collects, then the pool and dead-set take the results.
        let Run { set, cfg, st, .. } = self;
        let EngineState {
            inst,
            fired,
            dead,
            pool,
            matcher,
            body_preds,
            ..
        } = &mut **st;
        for (ci, c) in set.enumerate() {
            if body_preds[ci].is_disjoint(&delta_preds) {
                continue;
            }
            // The map both dedups matches reported once per delta atom they
            // use and distinct homomorphisms that normalize to the same
            // trigger.
            let mut found: FxHashMap<TriggerKey, Subst> = FxHashMap::default();
            matcher.for_each_delta_match(ci, c, inst, added, &mut |mu| {
                let key = normalize(c, mu);
                let known = pool.contains(ci, &key)
                    || match cfg.mode {
                        ChaseMode::Standard => dead[ci].contains(&key),
                        ChaseMode::Oblivious => fired[ci].contains(&key),
                    }
                    || found.contains_key(&key);
                if !known {
                    found.insert(key, mu.clone());
                }
                false
            });
            for (key, mu) in found {
                match cfg.mode {
                    ChaseMode::Standard => {
                        if matcher.is_active(ci, c, inst, &mu) {
                            pool.insert(ci, key, mu);
                        } else {
                            dead[ci].insert(key);
                        }
                    }
                    ChaseMode::Oblivious => {
                        pool.insert(ci, key, mu);
                    }
                }
            }
        }
    }

    /// Repair the pool and memos after an EGD merge — the delta-shaped
    /// replacement for the old conservative full rebuild:
    ///
    /// 1. **Remap.** The dead memo's keys and every pooled trigger whose
    ///    key mentions `from` are rewritten through `from ↦ to`
    ///    (normalized keys sort by variable *name*, so substituting the
    ///    bound terms renormalizes them in place; equal bound variables
    ///    imply equal substitutions, so key collisions are idempotent). A
    ///    remapped pooled trigger is re-admitted only if it is still
    ///    active under its new bindings — a *full* activity check, because
    ///    the remapped head instantiation can coincide with an unchanged
    ///    fact, and an EGD's sides can have become equal — and not already
    ///    dead (or fired, oblivious mode) under its new name.
    /// 2. **Re-match.** The surviving rewritten rows are the merge's
    ///    delta: they get the exact maintenance a TGD step's added atoms
    ///    get ([`Run::apply_delta`] — head revalidation of pooled
    ///    triggers, then semi-naive body re-matching).
    ///
    /// Soundness rests on two facts. A body match mentions a rewritten row
    /// iff its assignment binds `from` (the merged-away null cannot occur
    /// in a body constant), so remapping the mentioning keys covers every
    /// stale pool entry. And any body match new after the merge embeds at
    /// least one row content that is new to the store — a subset of the
    /// rewritten rows — so delta seeding discovers it.
    fn apply_merge_delta(&mut self, m: &MergeEffect, sampled: bool) {
        let repair = self.st.recorder.phase(Phase::MergeRepair);
        for ci in 0..self.set.len() {
            remap_key_set(&mut self.st.dead[ci], m.from, m.to);
            let stale: Vec<TriggerKey> = self.st.pool.pools[ci]
                .keys()
                .filter(|k| key_mentions(k, m.from))
                .cloned()
                .collect();
            for key in stale {
                let mu = self
                    .st
                    .pool
                    .remove(ci, &key)
                    .expect("stale key just listed");
                let key = remap_key(&key, m.from, m.to);
                let mu = remap_subst(&mu, m.from, m.to);
                let known = self.st.pool.contains(ci, &key)
                    || match self.cfg.mode {
                        ChaseMode::Standard => self.st.dead[ci].contains(&key),
                        ChaseMode::Oblivious => self.st.fired[ci].contains(&key),
                    };
                if known {
                    continue;
                }
                let c = &self.set[ci];
                let fires = match self.cfg.mode {
                    ChaseMode::Standard => self.st.matcher.is_active(ci, c, &self.st.inst, &mu),
                    ChaseMode::Oblivious => true,
                };
                if fires {
                    self.st.pool.insert(ci, key, mu);
                } else if self.cfg.mode == ChaseMode::Standard {
                    // Inactive under the renaming is inactive for good:
                    // satisfaction is monotone and the renaming permanent.
                    self.st.dead[ci].insert(key);
                }
            }
        }
        let added: Vec<Atom> = m
            .rewritten
            .iter()
            .map(|&f| self.st.inst.atom_at(f))
            .collect();
        // The delta re-match below times itself; close the repair phase
        // first so the two don't double-count.
        drop(repair);
        self.apply_delta(&added, sampled);
    }

    /// Next fireable trigger for constraint `ci` under the naive reference:
    /// re-enumerate every body homomorphism and keep the canonically least
    /// fireable one, exactly like the pool (but in O(instance) per call).
    fn naive_next_trigger(&self, ci: usize) -> Option<(TriggerKey, Subst)> {
        let c = &self.set[ci];
        let mut best: Option<(TriggerKey, Subst)> = None;
        self.st
            .matcher
            .for_each_body_hom(ci, c, &self.st.inst, &mut |mu| {
                let key = normalize(c, mu);
                if best.as_ref().is_none_or(|(bk, _)| key < *bk) && self.fires(ci, c, mu, &key) {
                    best = Some((key, mu.clone()));
                }
                false
            });
        best
    }

    /// All fireable triggers in global canonical order, re-enumerated from
    /// scratch (naive reference for `Random`).
    fn naive_all_triggers(&self) -> Vec<(usize, TriggerKey, Subst)> {
        let mut out: Vec<(usize, TriggerKey, Subst)> = Vec::new();
        for (ci, c) in self.set.enumerate() {
            let mut per: BTreeMap<TriggerKey, Subst> = BTreeMap::new();
            self.st
                .matcher
                .for_each_body_hom(ci, c, &self.st.inst, &mut |mu| {
                    let key = normalize(c, mu);
                    if !per.contains_key(&key) && self.fires(ci, c, mu, &key) {
                        per.insert(key, mu.clone());
                    }
                    false
                });
            out.extend(per.into_iter().map(|(key, mu)| (ci, key, mu)));
        }
        out
    }

    /// Take the next trigger to fire for constraint `ci`, removing it from
    /// the pool in delta mode.
    fn take_next_trigger(&mut self, ci: usize) -> Option<(TriggerKey, Subst)> {
        if self.naive {
            self.naive_next_trigger(ci)
        } else {
            self.st.pool.pop_first(ci)
        }
    }

    /// Apply one step; returns `false` when the run must stop.
    fn fire(&mut self, ci: usize, key: TriggerKey, mu: Subst) -> bool {
        let c = &self.set[ci];
        if self.cfg.mode == ChaseMode::Oblivious {
            self.st.fired[ci].insert(key.clone());
        }
        let ground_body: Vec<Atom> = mu.apply_atoms(c.body());
        // One sampling decision covers the whole step: taken before the
        // counter moves, so the insert timer, the StepFired event and the
        // delta maintenance's timers all describe the same (sampled) step.
        let sampled = self.step_sampled();
        let insert = self.sampled_phase(sampled, Phase::Insert);
        let effect = apply_step(&mut self.st.inst, c, &mu);
        drop(insert);
        self.st.steps += 1;
        if sampled {
            self.st
                .recorder
                .event(EventKind::StepFired, ci as u64, self.st.steps as u64);
        }
        let (added, fresh, merged, merge_stats) = match effect {
            StepEffect::Tgd {
                added, fresh_nulls, ..
            } => {
                // Plans are refreshed (statistics epoch permitting) before
                // the delta re-match, so growth-driven recompiles kick in as
                // soon as the data doubles.
                let EngineState { matcher, inst, .. } = &mut *self.st;
                matcher.refresh(self.set, inst);
                if !self.naive {
                    if self.cfg.mode == ChaseMode::Standard {
                        // The fired trigger is satisfied by its own head
                        // instantiation from now on.
                        self.st.dead[ci].insert(key.clone());
                    }
                    self.apply_delta(&added, sampled);
                }
                (added, fresh_nulls, None, (0, 0))
            }
            StepEffect::Merged(m) => {
                self.st.recorder.event(
                    EventKind::EgdMerge,
                    m.rewritten.len() as u64,
                    m.collapsed as u64,
                );
                // Merges maintain statistics incrementally, so the refresh
                // only recompiles if the collapses moved the stats epoch.
                let EngineState { matcher, inst, .. } = &mut *self.st;
                matcher.refresh(self.set, inst);
                if !m.is_noop() {
                    // A fired trigger stays fired under the renaming:
                    // remap the oblivious fired memo in *both* engines, so
                    // naive and delta traces keep moving together.
                    if self.cfg.mode == ChaseMode::Oblivious {
                        for memo in &mut self.st.fired {
                            remap_key_set(memo, m.from, m.to);
                        }
                    }
                    if !self.naive {
                        self.apply_merge_delta(&m, sampled);
                    }
                }
                self.st.merge_rewritten += m.rewritten.len();
                self.st.merge_collapsed += m.collapsed;
                let stats = (m.rewritten.len(), m.collapsed);
                (Vec::new(), Vec::new(), Some((m.from, m.to)), stats)
            }
            StepEffect::Failed => {
                self.stop = Some(StopReason::Failed);
                return false;
            }
            StepEffect::NoOp => (Vec::new(), Vec::new(), None, (0, 0)),
        };
        #[cfg(test)]
        self.st.pool.assert_consistent();
        self.st.fresh_nulls += fresh.len();
        if let Some(monitor) = &mut self.st.monitor {
            if !fresh.is_empty() {
                monitor.record_tgd_step(ci, &ground_body, &fresh, &added);
            }
            if let Some(depth) = self.cfg.monitor_depth {
                if monitor.is_k_cyclic(depth) {
                    self.stop = Some(StopReason::MonitorAbort { depth });
                }
            }
        }
        if self.cfg.keep_trace {
            self.trace.push(StepRecord {
                constraint: ci,
                assignment: key,
                ground_body,
                added,
                fresh_nulls: fresh,
                merged,
                merge_rewritten: merge_stats.0,
                merge_collapsed: merge_stats.1,
            });
        }
        if self.stop.is_some() {
            return false;
        }
        if let Some(limit) = self.cfg.max_steps {
            if self.st.steps - self.steps0 >= limit && !self.satisfied() {
                self.stop = Some(StopReason::StepLimit(limit));
                return false;
            }
        }
        if let Some(limit) = self.cfg.max_nulls {
            if self.st.fresh_nulls - self.nulls0 >= limit && !self.satisfied() {
                self.stop = Some(StopReason::NullLimit(limit));
                return false;
            }
        }
        true
    }

    fn satisfied(&self) -> bool {
        if !self.naive {
            // The pool holds exactly the fireable triggers; empty ⇔ done
            // (standard: `I ⊨ Σ`; oblivious: no unfired body match remains).
            return self.st.pool.total == 0;
        }
        match self.cfg.mode {
            ChaseMode::Standard => self.set.satisfied_by(&self.st.inst),
            // The oblivious chase is done when no unfired trigger remains.
            ChaseMode::Oblivious => {
                (0..self.set.len()).all(|ci| self.naive_next_trigger(ci).is_none())
            }
        }
    }

    /// Run a cyclic order until a full pass makes no progress.
    fn run_cycle(&mut self, order: &[usize]) {
        loop {
            let mut progressed = false;
            for &ci in order {
                if self.stop.is_some() {
                    return;
                }
                if let Some((key, mu)) = self.take_next_trigger(ci) {
                    progressed = true;
                    if !self.fire(ci, key, mu) {
                        return;
                    }
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn run_random(&mut self) {
        loop {
            if self.stop.is_some() {
                return;
            }
            let (ci, key, mu) = if self.naive {
                let mut triggers = self.naive_all_triggers();
                if triggers.is_empty() {
                    return;
                }
                let pick = self
                    .rng
                    .as_mut()
                    .expect("random strategy has an RNG")
                    .gen_range(0..triggers.len());
                triggers.swap_remove(pick)
            } else {
                if self.st.pool.total == 0 {
                    return;
                }
                let pick = self
                    .rng
                    .as_mut()
                    .expect("random strategy has an RNG")
                    .gen_range(0..self.st.pool.total);
                let (ci, key, mu) = self.st.pool.take_nth(pick).expect("pick in range");
                (ci, key, mu)
            };
            if !self.fire(ci, key, mu) {
                return;
            }
        }
    }

    fn finish(mut self) -> ResumeOutcome {
        let reason = match self.stop.take() {
            Some(r) => r,
            None => {
                debug_assert!(
                    self.cfg.mode == ChaseMode::Oblivious || self.set.satisfied_by(&self.st.inst),
                    "chase stopped without exhausting triggers"
                );
                StopReason::Satisfied
            }
        };
        if matches!(reason, StopReason::Failed | StopReason::MonitorAbort { .. }) {
            // Terminal stops poison the state: an EGD failure leaves the
            // fired trigger consumed but its effect unapplied, and a
            // monitor abort would re-trip immediately — neither state can
            // be chased further.
            let depth = match reason {
                StopReason::MonitorAbort { depth } => depth as u64,
                _ => 0,
            };
            self.st.recorder.event(EventKind::Poison, depth, 0);
            self.st.poisoned = Some(reason.clone());
        }
        self.st.recorder.event(
            EventKind::ResumeEnd,
            (self.st.steps - self.steps0) as u64,
            self.st.pool.total as u64,
        );
        ResumeOutcome {
            reason,
            steps: self.st.steps - self.steps0,
            fresh_nulls: self.st.fresh_nulls - self.nulls0,
            trace: self.trace,
        }
    }

    fn run(mut self) -> ResumeOutcome {
        self.st.recorder.event(
            EventKind::ResumeBegin,
            self.st.steps as u64,
            self.st.pool.total as u64,
        );
        // `cfg` outlives `&mut self`, so the strategy's vectors can be
        // borrowed across the run without cloning.
        let cfg = self.cfg;
        match &cfg.strategy {
            Strategy::RoundRobin => {
                let order: Vec<usize> = (0..self.set.len()).collect();
                self.run_cycle(&order);
            }
            Strategy::FixedCycle(order) => {
                self.run_cycle(order);
            }
            Strategy::Random { .. } => self.run_random(),
            Strategy::Phased(phases) => {
                for phase in phases {
                    if self.stop.is_some() {
                        break;
                    }
                    self.run_cycle(phase);
                }
                if self.stop.is_none() {
                    // Safety net: make the "chase until satisfied" contract
                    // hold even for phase lists that do not cover every
                    // violation.
                    let order: Vec<usize> = (0..self.set.len()).collect();
                    self.run_cycle(&order);
                }
            }
        }
        self.finish()
    }
}

/// Run the chase on `instance` with constraint set `set` under `cfg`.
///
/// # Examples
///
/// ```
/// use chase_core::{ConstraintSet, Instance};
/// use chase_engine::{chase, ChaseConfig, StopReason};
///
/// let sigma = ConstraintSet::parse("S(X) -> E(X,Y)").unwrap();
/// let inst = Instance::parse("S(n1). S(n2). E(n1,n2).").unwrap();
/// let res = chase(&inst, &sigma, &ChaseConfig::default());
/// assert!(res.terminated());
/// assert_eq!(res.steps, 1); // only n2 lacked an outgoing edge
///
/// // A divergent set is cut off by the monitor guard of Section 4.2.
/// let bad = ConstraintSet::parse("S(X) -> E(X,Y), S(Y)").unwrap();
/// let res = chase(&inst, &bad, &ChaseConfig::with_monitor_depth(3));
/// assert_eq!(res.reason, StopReason::MonitorAbort { depth: 3 });
/// ```
pub fn chase(instance: &Instance, set: &ConstraintSet, cfg: &ChaseConfig) -> ChaseResult {
    run_to_result(instance, set, cfg, false)
}

/// One-shot driver shared by [`chase`] and [`chase_naive`]: build fresh
/// state, run it to a stop, tear it apart into a [`ChaseResult`].
fn run_to_result(
    instance: &Instance,
    set: &ConstraintSet,
    cfg: &ChaseConfig,
    naive: bool,
) -> ChaseResult {
    let mut st = EngineState::new(instance, set, cfg);
    let out = Run::new(set, cfg, &mut st, naive).run();
    ChaseResult {
        instance: st.inst,
        reason: out.reason,
        steps: out.steps,
        fresh_nulls: out.fresh_nulls,
        trace: out.trace,
        monitor: st.monitor,
    }
}

/// The outcome of one [`chase_resume`] call over an [`EngineState`]:
/// everything a [`ChaseResult`] reports except the instance and the
/// monitor graph, which stay inside the state for the next resume.
///
/// `steps` and `fresh_nulls` count **this resume only**; the state's
/// [`EngineState::total_steps`] / [`EngineState::total_fresh_nulls`] hold
/// the running totals.
#[derive(Debug, Clone)]
pub struct ResumeOutcome {
    /// Why this resume stopped.
    pub reason: StopReason,
    /// Chase steps applied by this resume.
    pub steps: usize,
    /// Fresh nulls invented by this resume.
    pub fresh_nulls: usize,
    /// Per-step trace of this resume (only when `keep_trace`).
    pub trace: Vec<StepRecord>,
}

/// Continue the delta-driven chase on a (possibly warm) [`EngineState`]
/// until the pool drains, a budget trips, or a terminal stop occurs.
///
/// `set` and `cfg` must be the values the state was built with. Budgets
/// (`max_steps`, `max_nulls`) apply per resume, not cumulatively. A
/// poisoned state ([`EngineState::poisoned`]) is returned unchanged, with
/// the poisoning reason and zero steps.
///
/// # Examples
///
/// ```
/// use chase_core::{ConstraintSet, Instance};
/// use chase_engine::{chase_resume, ChaseConfig, EngineState, StopReason};
///
/// let sigma = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
/// let cfg = ChaseConfig::default();
/// let inst = Instance::parse("E(a,b).").unwrap();
/// let mut state = EngineState::new(&inst, &sigma, &cfg);
/// assert_eq!(chase_resume(&mut state, &sigma, &cfg).reason, StopReason::Satisfied);
///
/// // Warm update: ingest a batch, continue from the batch delta.
/// let batch = Instance::parse("E(b,c).").unwrap().atoms();
/// state.insert_batch(&sigma, &cfg, batch).unwrap();
/// let out = chase_resume(&mut state, &sigma, &cfg);
/// assert_eq!(out.steps, 1); // only the new join E(a,b)∘E(b,c) fires
/// assert_eq!(state.instance().len(), 3);
/// ```
pub fn chase_resume(
    state: &mut EngineState,
    set: &ConstraintSet,
    cfg: &ChaseConfig,
) -> ResumeOutcome {
    if let Some(reason) = state.poisoned.clone() {
        return ResumeOutcome {
            reason,
            steps: 0,
            fresh_nulls: 0,
            trace: Vec::new(),
        };
    }
    Run::new(set, cfg, state, false).run()
}

/// Run the chase with naive trigger discovery: every constraint is
/// re-matched against the whole instance on every step.
///
/// Trigger *selection* is canonical and identical to [`chase`] (least
/// constraint index, then least normalized assignment; `Random` draws the
/// same index from the same seeded stream over the same canonically ordered
/// trigger list), so on the same inputs both engines produce bit-identical
/// traces, step counts, and final instances — only the work per step
/// differs. Retained as the reference for equivalence tests and as the
/// baseline the `ex4_strategies`/`fig1_hierarchy` benches compare against.
///
/// Honesty note for benchmark readers: canonical selection means the cyclic
/// strategies here enumerate *all* of a constraint's body matches per step
/// to find the least fireable one, where the seed engine stopped at the
/// first fireable match in search order. Per-step re-enumeration is the
/// same O(instance); the constant is somewhat larger than the seed's on
/// workloads where an early match exists. (The seed's `Random` strategy
/// already enumerated everything every step.)
pub fn chase_naive(instance: &Instance, set: &ConstraintSet, cfg: &ChaseConfig) -> ChaseResult {
    run_to_result(instance, set, cfg, true)
}

/// Run the chase with the default configuration (standard mode, round-robin,
/// 10 000-step budget).
pub fn chase_default(instance: &Instance, set: &ConstraintSet) -> ChaseResult {
    chase(instance, set, &ChaseConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(set: &str, inst: &str) -> (ConstraintSet, Instance) {
        (
            ConstraintSet::parse(set).unwrap(),
            Instance::parse(inst).unwrap(),
        )
    }

    #[test]
    fn intro_alpha1_terminates() {
        // α1: every special node has an outgoing edge (Introduction).
        let (set, inst) = parse("S(X) -> E(X,Y)", "S(n1). S(n2). E(n1,n2).");
        let res = chase_default(&inst, &set);
        assert!(res.terminated());
        assert_eq!(res.steps, 1);
        assert_eq!(res.instance.len(), 4);
        assert!(set.satisfied_by(&res.instance));
    }

    #[test]
    fn intro_alpha2_diverges_until_budget() {
        // α2: every special node links to a special node — non-terminating on
        // the Introduction's instance.
        let (set, inst) = parse("S(X) -> E(X,Y), S(Y)", "S(n1). S(n2). E(n1,n2).");
        let res = chase(&inst, &set, &ChaseConfig::with_max_steps(50));
        assert_eq!(res.reason, StopReason::StepLimit(50));
    }

    #[test]
    fn intro_alpha2_monitor_aborts() {
        let (set, inst) = parse("S(X) -> E(X,Y), S(Y)", "S(n1). S(n2). E(n1,n2).");
        let res = chase(&inst, &set, &ChaseConfig::with_monitor_depth(3));
        assert_eq!(res.reason, StopReason::MonitorAbort { depth: 3 });
        assert!(res.monitor.unwrap().is_k_cyclic(3));
    }

    #[test]
    fn egd_failure_propagates() {
        let (set, inst) = parse("E(X,Y), E(X,Z) -> Y = Z", "E(a,b). E(a,c).");
        let res = chase_default(&inst, &set);
        assert!(res.failed());
    }

    #[test]
    fn egd_merge_terminates() {
        let (set, inst) = parse("E(X,Y), E(X,Z) -> Y = Z", "E(a,b). E(a,_n0). E(_n0,c).");
        let res = chase_default(&inst, &set);
        assert!(res.terminated());
        assert_eq!(res.instance, Instance::parse("E(a,b). E(b,c).").unwrap());
    }

    #[test]
    fn trace_records_steps() {
        let (set, inst) = parse("S(X) -> E(X,Y)", "S(a). S(b).");
        let cfg = ChaseConfig {
            keep_trace: true,
            ..ChaseConfig::default()
        };
        let res = chase(&inst, &set, &cfg);
        assert!(res.terminated());
        assert_eq!(res.trace.len(), 2);
        assert_eq!(res.trace[0].constraint, 0);
        assert_eq!(res.trace[0].fresh_nulls.len(), 1);
    }

    #[test]
    fn random_strategy_is_reproducible() {
        let (set, inst) = parse(
            "S(X) -> T(X)\nT(X) -> U(X,Y)\nU(X,Y) -> V(Y)",
            "S(a). S(b). S(c).",
        );
        let cfg = |seed| ChaseConfig {
            strategy: Strategy::Random { seed },
            keep_trace: true,
            ..ChaseConfig::default()
        };
        let r1 = chase(&inst, &set, &cfg(42));
        let r2 = chase(&inst, &set, &cfg(42));
        assert!(r1.terminated());
        assert_eq!(r1.steps, r2.steps);
        assert_eq!(r1.instance, r2.instance);
        let order1: Vec<usize> = r1.trace.iter().map(|s| s.constraint).collect();
        let order2: Vec<usize> = r2.trace.iter().map(|s| s.constraint).collect();
        assert_eq!(order1, order2);
    }

    #[test]
    fn oblivious_chase_fires_satisfied_triggers_once() {
        // The constraint is already satisfied, but the oblivious chase still
        // fires the body match exactly once.
        let (set, inst) = parse("S(X) -> E(X,Y)", "S(a). E(a,b).");
        let cfg = ChaseConfig {
            mode: ChaseMode::Oblivious,
            ..ChaseConfig::default()
        };
        let res = chase(&inst, &set, &cfg);
        assert_eq!(res.steps, 1);
        assert_eq!(res.fresh_nulls, 1);
        assert_eq!(res.instance.len(), 3);
    }

    #[test]
    fn phased_strategy_follows_phases() {
        // Phase 0 = {1}, phase 1 = {0}: U-facts must be produced before the
        // final pass touches constraint 0.
        let (set, inst) = parse("T(X) -> U(X)\nS(X) -> T(X)", "S(a).");
        let cfg = ChaseConfig {
            strategy: Strategy::Phased(vec![vec![1], vec![0]]),
            keep_trace: true,
            ..ChaseConfig::default()
        };
        let res = chase(&inst, &set, &cfg);
        assert!(res.terminated());
        assert_eq!(res.instance.len(), 3);
        let fired: Vec<usize> = res.trace.iter().map(|s| s.constraint).collect();
        assert_eq!(fired, vec![1, 0]);
    }

    #[test]
    fn phase_index_out_of_range_panics() {
        let (set, inst) = parse("S(X) -> T(X)", "S(a).");
        let cases = [
            (
                Strategy::Phased(vec![vec![0, 3]]),
                "phase schedule names constraint 3, but the set has 1 constraints",
            ),
            (
                Strategy::FixedCycle(vec![0, 1]),
                "cyclic order names constraint 1, but the set has 1 constraints",
            ),
        ];
        type Engine = fn(&Instance, &ConstraintSet, &ChaseConfig) -> ChaseResult;
        for (strategy, expected) in cases {
            let cfg = ChaseConfig {
                strategy,
                ..ChaseConfig::default()
            };
            for engine in [chase as Engine, chase_naive] {
                let err = std::panic::catch_unwind(|| engine(&inst, &set, &cfg)).unwrap_err();
                assert_eq!(
                    err.downcast_ref::<String>().map(String::as_str),
                    Some(expected)
                );
            }
        }
    }

    #[test]
    fn null_budget_stops_runaway() {
        let (set, inst) = parse("S(X) -> E(X,Y), S(Y)", "S(a).");
        let cfg = ChaseConfig {
            max_nulls: Some(7),
            max_steps: None,
            ..ChaseConfig::default()
        };
        let res = chase(&inst, &set, &cfg);
        assert_eq!(res.reason, StopReason::NullLimit(7));
        assert_eq!(res.fresh_nulls, 7);
    }

    /// Drive both engines over the same inputs — with the planner on *and*
    /// off — and demand bit-identical traces across all four runs: the
    /// contract that makes the bench comparisons honest.
    fn assert_engines_agree(set: &str, inst: &str, cfg: &ChaseConfig) {
        let (set, inst) = parse(set, inst);
        let mut cfg = cfg.clone();
        cfg.keep_trace = true;
        let mut unplanned_cfg = cfg.clone();
        unplanned_cfg.use_planner = false;
        let fast = chase(&inst, &set, &cfg);
        let runs = [
            ("naive planned", chase_naive(&inst, &set, &cfg)),
            ("delta unplanned", chase(&inst, &set, &unplanned_cfg)),
            ("naive unplanned", chase_naive(&inst, &set, &unplanned_cfg)),
        ];
        for (label, slow) in &runs {
            assert_eq!(fast.reason, slow.reason, "{label}");
            assert_eq!(fast.steps, slow.steps, "{label}");
            assert_eq!(fast.fresh_nulls, slow.fresh_nulls, "{label}");
            assert_eq!(fast.instance, slow.instance, "{label}");
            assert_eq!(fast.trace.len(), slow.trace.len(), "{label}");
            for (a, b) in fast.trace.iter().zip(&slow.trace) {
                assert_eq!(a.constraint, b.constraint, "{label}");
                assert_eq!(a.assignment, b.assignment, "{label}");
                assert_eq!(a.ground_body, b.ground_body, "{label}");
                assert_eq!(a.added, b.added, "{label}");
                assert_eq!(a.fresh_nulls, b.fresh_nulls, "{label}");
                assert_eq!(a.merged, b.merged, "{label}");
                assert_eq!(a.merge_rewritten, b.merge_rewritten, "{label}");
                assert_eq!(a.merge_collapsed, b.merge_collapsed, "{label}");
            }
        }
    }

    #[test]
    fn delta_and_naive_agree_on_tgd_chains() {
        assert_engines_agree(
            "S(X) -> T(X)\nT(X) -> U(X,Y)\nU(X,Y) -> V(Y)",
            "S(a). S(b). S(c).",
            &ChaseConfig::default(),
        );
    }

    #[test]
    fn delta_and_naive_agree_on_divergence_cutoff() {
        assert_engines_agree(
            "S(X) -> E(X,Y), S(Y)",
            "S(n1). S(n2). E(n1,n2).",
            &ChaseConfig::with_max_steps(60),
        );
    }

    #[test]
    fn delta_and_naive_agree_on_egd_merges() {
        assert_engines_agree(
            "E(X,Y), E(X,Z) -> Y = Z\nS(X) -> E(X,Y)",
            "S(a). E(a,_n0). E(_n0,c). E(a,b).",
            &ChaseConfig::default(),
        );
    }

    #[test]
    fn delta_and_naive_agree_on_random_strategy() {
        for seed in 0..5 {
            assert_engines_agree(
                "S(X) -> T(X)\nT(X) -> U(X,Y)\nU(X,Y) -> V(Y)",
                "S(a). S(b). S(c).",
                &ChaseConfig {
                    strategy: Strategy::Random { seed },
                    ..ChaseConfig::default()
                },
            );
        }
    }

    #[test]
    fn delta_and_naive_agree_on_oblivious_mode() {
        assert_engines_agree(
            "S(X) -> E(X,Y)\nE(X,Y), E(X,Z) -> Y = Z",
            "S(a). E(a,b).",
            &ChaseConfig {
                mode: ChaseMode::Oblivious,
                ..ChaseConfig::default()
            },
        );
    }

    /// Warm resume over an [`EngineState`] must land on the same instance
    /// as a from-scratch chase of the accumulated facts — here the inputs
    /// are null-free and confluent, so the final instances are equal
    /// outright.
    #[test]
    fn warm_resume_matches_from_scratch_chase() {
        let (set, inst) = parse("E(X,Y), E(Y,Z) -> E(X,Z)", "E(a,b). E(b,c).");
        let cfg = ChaseConfig::default();
        let mut st = EngineState::new(&inst, &set, &cfg);
        let first = chase_resume(&mut st, &set, &cfg);
        assert_eq!(first.reason, StopReason::Satisfied);
        assert!(st.quiescent());
        let batch = Instance::parse("E(c,d). E(a,b).").unwrap().atoms();
        let added = st.insert_batch(&set, &cfg, batch.clone()).unwrap();
        assert_eq!(added.len(), 1, "E(a,b) is a duplicate");
        let second = chase_resume(&mut st, &set, &cfg);
        assert_eq!(second.reason, StopReason::Satisfied);
        assert!(second.steps > 0);
        let mut union = inst.clone();
        union.insert_batch(batch).unwrap();
        let scratch = chase(&union, &set, &cfg);
        assert_eq!(st.instance(), &scratch.instance);
        assert_eq!(
            st.total_steps(),
            scratch.steps,
            "warm resume fires exactly the triggers the scratch chase fires"
        );
    }

    /// Per-resume budgets: a resumed state gets a fresh step budget, and a
    /// budget stop does not poison the state.
    #[test]
    fn resume_budgets_are_per_run() {
        let (set, inst) = parse("S(X) -> E(X,Y), S(Y)", "S(a).");
        let cfg = ChaseConfig::with_max_steps(5);
        let mut st = EngineState::new(&inst, &set, &cfg);
        let first = chase_resume(&mut st, &set, &cfg);
        assert_eq!(first.reason, StopReason::StepLimit(5));
        assert_eq!(first.steps, 5);
        assert!(st.poisoned().is_none());
        let second = chase_resume(&mut st, &set, &cfg);
        assert_eq!(second.reason, StopReason::StepLimit(5));
        assert_eq!(second.steps, 5, "budget renews per resume");
        assert_eq!(st.total_steps(), 10);
    }

    /// Terminal stops poison the state; later resumes refuse to run.
    #[test]
    fn failed_state_is_poisoned() {
        let (set, inst) = parse("E(X,Y), E(X,Z) -> Y = Z", "E(a,b). E(a,c).");
        let cfg = ChaseConfig::default();
        let mut st = EngineState::new(&inst, &set, &cfg);
        assert_eq!(chase_resume(&mut st, &set, &cfg).reason, StopReason::Failed);
        assert_eq!(st.poisoned(), Some(&StopReason::Failed));
        let after = chase_resume(&mut st, &set, &cfg);
        assert_eq!(after.reason, StopReason::Failed);
        assert_eq!(after.steps, 0, "poisoned state refuses to chase");
    }

    /// Cloning the state is a full snapshot: the clone and the original
    /// evolve independently and identically from the fork point.
    #[test]
    fn engine_state_clone_is_a_fork() {
        let (set, inst) = parse("E(X,Y), E(Y,Z) -> E(X,Z)", "E(a,b). E(b,c).");
        let cfg = ChaseConfig::default();
        let mut st = EngineState::new(&inst, &set, &cfg);
        chase_resume(&mut st, &set, &cfg);
        let mut fork = st.clone();
        let batch = Instance::parse("E(c,a).").unwrap().atoms();
        st.insert_batch(&set, &cfg, batch.clone()).unwrap();
        let a = chase_resume(&mut st, &set, &cfg);
        fork.insert_batch(&set, &cfg, batch).unwrap();
        let b = chase_resume(&mut fork, &set, &cfg);
        assert_eq!(a.steps, b.steps);
        assert_eq!(st.instance(), fork.instance());
    }

    /// Steps 0, 64, 128, … sample; one decision per step arms the insert
    /// timer and both delta-maintenance timers together.
    #[test]
    fn per_step_phases_sample_the_same_steps() {
        let set = ConstraintSet::parse("E(X,Y) -> T(X,Y)").unwrap();
        let cfg = ChaseConfig::default();
        for (facts, samples) in [(1, 1), (2, 1), (64, 1), (65, 2)] {
            let text: String = (0..facts).map(|i| format!("E(a{i},b). ")).collect();
            let inst = Instance::parse(&text).unwrap();
            let mut st = EngineState::new(&inst, &set, &cfg);
            st.set_recorder(Recorder::enabled(16));
            let out = chase_resume(&mut st, &set, &cfg);
            assert_eq!(out.steps, facts);
            for phase in [Phase::Insert, Phase::HeadRevalidate, Phase::DeltaMatch] {
                assert_eq!(
                    st.recorder().phase_snapshot(phase).count(),
                    samples,
                    "{phase:?} after a {facts}-step chase"
                );
            }
        }
    }

    /// The pool's head indexes stay consistent through every kind of pool
    /// mutation. `Run::fire` checks them after every step in test builds;
    /// this drives each mutation path and checks the seams between runs.
    #[test]
    fn pool_indexes_stay_consistent() {
        let tgds = "S(X) -> E(X,Y), T(Y)\nE(X,Y), E(Y,Z) -> P(X,Z)\n\
                    P(X,Z) -> R(Z,W), Q(W,X)\nA(X) -> K(Z), U(Z,X)";
        let egds = "E(X,Y), E(X,Z) -> Y = Z\nS(X) -> E(X,Y)\nE(X,Y) -> F(Y,X)";
        let base = "S(a). S(b). E(a,b). E(b,_n0). E(b,c). A(a). A(c). K(_n1). U(_n1,a).";
        for sigma in [tgds, egds] {
            let (set, inst) = parse(sigma, base);
            let strategies = [
                Strategy::RoundRobin,
                Strategy::Random { seed: 7 },
                Strategy::FixedCycle((0..set.len()).rev().collect()),
            ];
            for mode in [ChaseMode::Standard, ChaseMode::Oblivious] {
                for strategy in &strategies {
                    let cfg = ChaseConfig {
                        mode,
                        strategy: strategy.clone(),
                        max_steps: Some(200),
                        ..ChaseConfig::default()
                    };
                    let mut st = EngineState::new(&inst, &set, &cfg);
                    chase_resume(&mut st, &set, &cfg);
                    st.pool.assert_consistent();
                    if st.poisoned().is_some() {
                        continue;
                    }
                    let mut fork = st.clone();
                    let batch = Instance::parse("S(c). E(c,d). E(d,a). A(d).")
                        .unwrap()
                        .atoms();
                    st.insert_batch(&set, &cfg, batch.clone()).unwrap();
                    st.pool.assert_consistent();
                    let a = chase_resume(&mut st, &set, &cfg);
                    st.pool.assert_consistent();
                    fork.insert_batch(&set, &cfg, batch).unwrap();
                    fork.pool.assert_consistent();
                    let b = chase_resume(&mut fork, &set, &cfg);
                    fork.pool.assert_consistent();
                    assert_eq!(a.steps, b.steps);
                    assert_eq!(st.instance(), fork.instance());
                }
            }
        }
    }

    #[test]
    fn delta_engine_prunes_rematch_work() {
        // A multi-atom join body: the delta path must still find triggers
        // that combine a new atom with old atoms.
        assert_engines_agree(
            "E(X,Y), E(Y,Z) -> E(X,Z)",
            "E(a,b). E(b,c). E(c,d).",
            &ChaseConfig::default(),
        );
    }
}
