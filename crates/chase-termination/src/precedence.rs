//! The precedence oracles `≺` (Definition 2), `≺c` (Definition 4, corrected)
//! and `≺k,P` (Definitions 10/14) — the coNP core of every decomposition-
//! based termination condition.
//!
//! # What is decided
//!
//! `≺k,P(α1, …, αk)` asks for a *witness*: a small initial instance `I0` and
//! assignments `a1, …, ak` such that the oblivious steps
//! `I0 →*α1,a1 … →*αk−1,ak−1 Ik−1` leave `αk(ak)` **newly violated**
//! (`I0 ⊨ αk(ak)` but `Ik−1 ⊭ αk(ak)`), some labeled-null parameter of
//! `αk(ak)`'s head occurs in `I0` only at positions from `P`, and every one
//! of the k−1 steps is necessary (skipping any step leaves `αk(ak)`
//! satisfied). `≺` and `≺c` are the 2-ary variants without the null/P
//! condition, with `≺` additionally requiring the first step to be a
//! *standard* step (`I0 ⊭ α(a)`).
//!
//! # How it is decided
//!
//! Following the paper's decidability argument (Prop. 1/3), it suffices to
//! examine candidate instances of size ≤ Σ|αi| built from homomorphic images
//! of the constraint bodies. The search enumerates
//!
//! 1. a **source** for every body atom in the chain — either `I0` or a head
//!    atom of an earlier step (unifying terms in a labeled union-find),
//! 2. a **partition** of the residual free variables (which identifications
//!    the homomorphic images perform), finest first,
//! 3. a **labelling** of each block — a constant mentioned in `Σ`, a fresh
//!    constant, or (when the P-condition needs nulls) a fresh labeled null,
//!
//! then *materializes* the candidate and **executes the chain for real**,
//! checking every side condition directly on instances. Generation may
//! over-approximate; the executor is the ground truth.
//!
//! # Scope and soundness
//!
//! * Chain *steps* must be TGDs; an EGD-merging step rewrites the instance
//!   mid-chain, which the static unification model cannot track faithfully.
//!   Sequences with EGD steps return [`Verdict::ResourceLimit`] ("unknown"),
//!   and all recognizers treat unknown edges conservatively as present. The
//!   *final* constraint may be a TGD or an EGD. (Every worked example in the
//!   paper is TGD-only; PAPER.md, "Deviations from the paper", D7.)
//! * The enumeration is budgeted; exhausting [`PrecedenceConfig`] budgets
//!   also yields `ResourceLimit`, never a wrong `Fails`.

use chase_core::fx::FxHashMap;
use chase_core::homomorphism::Subst;
use chase_core::{Atom, Constraint, ConstraintSet, Instance, PosSet, Sym, Term};

/// Resource budgets for the candidate-instance search.
#[derive(Debug, Clone)]
pub struct PrecedenceConfig {
    /// Maximum number of materialized candidates per query.
    pub max_candidates: u64,
    /// Maximum number of residual free variables whose partitions are
    /// enumerated (Bell-number growth).
    pub max_free_vars: usize,
}

impl Default for PrecedenceConfig {
    fn default() -> PrecedenceConfig {
        PrecedenceConfig {
            max_candidates: 200_000,
            max_free_vars: 9,
        }
    }
}

/// Outcome of a precedence query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A witness exists: the precedence relation holds.
    Holds,
    /// The full (complete) candidate space was exhausted: it does not hold.
    Fails,
    /// The search was cut short by a budget or an unsupported feature; no
    /// definite answer. Callers must treat this conservatively.
    ResourceLimit,
}

impl Verdict {
    /// Did the relation definitely hold?
    pub fn holds(self) -> bool {
        self == Verdict::Holds
    }

    /// Was a definite answer (either way) reached?
    pub fn definite(self) -> bool {
        self != Verdict::ResourceLimit
    }
}

/// Which relation is being decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainVariant {
    /// `≺` (Definition 2): single standard step.
    Standard,
    /// `≺c` (Definition 4, corrected — PAPER.md, "Deviations from the
    /// paper", D8): single oblivious step, no requirement that the trigger
    /// be violated.
    Oblivious,
    /// `≺k,P` (Definition 14): k−1 oblivious steps, the null/P condition and
    /// the step-necessity conditions.
    Restricted(PosSet),
}

/// Node labels in the unification structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    /// Still unconstrained (an `I0`-level value).
    Free,
    /// A constant mentioned in the constraints.
    Const(Sym),
    /// The fresh null invented by step `.0` for one existential variable
    /// (`.0` is a globally unique created-null id).
    Created(u32),
}

/// Union-find over term nodes with label merging.
#[derive(Clone)]
struct Uf {
    parent: Vec<usize>,
    label: Vec<Label>,
}

impl Uf {
    fn new() -> Uf {
        Uf {
            parent: Vec::new(),
            label: Vec::new(),
        }
    }

    fn add(&mut self, label: Label) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        self.label.push(label);
        id
    }

    fn find(&self, mut x: usize) -> usize {
        while self.parent[x] != x {
            x = self.parent[x];
        }
        x
    }

    fn label_of(&self, x: usize) -> Label {
        self.label[self.find(x)]
    }

    /// Merge two classes; `false` when their labels are incompatible
    /// (distinct constants, distinct created nulls, or constant vs null).
    fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return true;
        }
        let merged = match (self.label[ra], self.label[rb]) {
            (Label::Free, l) | (l, Label::Free) => l,
            (Label::Const(x), Label::Const(y)) if x == y => Label::Const(x),
            _ => return false,
        };
        self.parent[ra] = rb;
        self.label[rb] = merged;
        true
    }
}

/// Where a body atom's image lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// The atom is part of the initial instance `I0`.
    I0,
    /// The atom is the image of head atom `atom` of chain step `step`.
    Head { step: usize, atom: usize },
}

/// Block labels for residual free variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockLabel {
    FreshConst,
    FreshNull,
    SigmaConst(Sym),
}

/// Base id for materialized created nulls, disjoint from fresh-null blocks.
const CREATED_BASE: u32 = 1 << 20;

struct ChainSearch<'a> {
    set: &'a ConstraintSet,
    seq: &'a [usize],
    k: usize,
    variant: ChainVariant,
    cfg: &'a PrecedenceConfig,
    base_uf: Uf,
    const_nodes: FxHashMap<Sym, usize>,
    /// `var_nodes[pos][v]`: node of universal variable `v` of chain entry
    /// `pos`.
    var_nodes: Vec<FxHashMap<Sym, usize>>,
    /// `created_nodes[step][y]`: node of the null created for existential
    /// `y` by step `step`.
    created_nodes: Vec<FxHashMap<Sym, usize>>,
    /// Materialized term of each created-null node id.
    created_term: FxHashMap<usize, Term>,
    /// Flattened body atoms of the whole chain: `(pos, atom_index)`.
    atoms: Vec<(usize, usize)>,
    sigma_consts: Vec<Sym>,
    budget: u64,
    found: bool,
    incomplete: bool,
}

impl<'a> ChainSearch<'a> {
    fn new(
        set: &'a ConstraintSet,
        seq: &'a [usize],
        variant: ChainVariant,
        cfg: &'a PrecedenceConfig,
    ) -> ChainSearch<'a> {
        let k = seq.len();
        let mut base_uf = Uf::new();
        let mut const_nodes = FxHashMap::default();
        let mut var_nodes: Vec<FxHashMap<Sym, usize>> = Vec::with_capacity(k);
        let mut created_nodes: Vec<FxHashMap<Sym, usize>> = Vec::with_capacity(k);
        let mut created_term = FxHashMap::default();
        let mut next_created = 0u32;
        for (pos, &ci) in seq.iter().enumerate() {
            let c = &set[ci];
            let mut vars = FxHashMap::default();
            for v in c.universals() {
                vars.insert(v, base_uf.add(Label::Free));
            }
            var_nodes.push(vars);
            let mut created = FxHashMap::default();
            if pos + 1 < k {
                if let Constraint::Tgd(t) = c {
                    for &y in t.existentials() {
                        let node = base_uf.add(Label::Created(next_created));
                        created_term.insert(node, Term::Null(CREATED_BASE + next_created));
                        next_created += 1;
                        created.insert(y, node);
                    }
                }
            }
            created_nodes.push(created);
            for a in c.body().iter().chain(c.head_atoms()) {
                for &t in a.terms() {
                    if let Term::Const(s) = t {
                        const_nodes
                            .entry(s)
                            .or_insert_with(|| base_uf.add(Label::Const(s)));
                    }
                }
            }
        }
        let mut atoms = Vec::new();
        for (pos, &ci) in seq.iter().enumerate() {
            for ai in 0..set[ci].body().len() {
                atoms.push((pos, ai));
            }
        }
        ChainSearch {
            set,
            seq,
            k,
            variant,
            cfg,
            base_uf,
            const_nodes,
            var_nodes,
            created_nodes,
            created_term,
            atoms,
            sigma_consts: set.constants(),
            budget: cfg.max_candidates,
            found: false,
            incomplete: false,
        }
    }

    /// Node of `t` as it appears in chain entry `pos` (head terms use the
    /// created-null nodes of their step).
    fn term_node(&self, pos: usize, t: Term) -> usize {
        match t {
            Term::Const(c) => self.const_nodes[&c],
            Term::Var(v) => match self.created_nodes[pos].get(&v) {
                Some(&n) => n,
                None => self.var_nodes[pos][&v],
            },
            Term::Null(_) => unreachable!("constraints contain no nulls"),
        }
    }

    fn done(&self) -> bool {
        self.found || self.incomplete
    }

    fn dfs(&mut self, idx: usize, uf: &Uf, srcs: &mut Vec<Src>) {
        if self.done() {
            return;
        }
        if idx == self.atoms.len() {
            self.leaf(uf, srcs);
            return;
        }
        let (pos, ai) = self.atoms[idx];
        let atom = self.set[self.seq[pos]].body()[ai].clone();
        // Head sources first: witnesses need the final constraint to consume
        // at least one head atom, so this order finds them sooner.
        for j in 0..pos.min(self.k - 1) {
            let head_len = self.set[self.seq[j]].head_atoms().len();
            for hi in 0..head_len {
                let h = self.set[self.seq[j]].head_atoms()[hi].clone();
                if h.pred() != atom.pred() || h.arity() != atom.arity() {
                    continue;
                }
                let mut uf2 = uf.clone();
                let ok =
                    atom.terms().iter().zip(h.terms()).all(|(&tb, &th)| {
                        uf2.union(self.term_node(pos, tb), self.term_node(j, th))
                    });
                if ok {
                    srcs.push(Src::Head { step: j, atom: hi });
                    self.dfs(idx + 1, &uf2, srcs);
                    srcs.pop();
                    if self.done() {
                        return;
                    }
                }
            }
        }
        srcs.push(Src::I0);
        self.dfs(idx + 1, uf, srcs);
        srcs.pop();
    }

    fn leaf(&mut self, uf: &Uf, srcs: &[Src]) {
        // Prune 1: with TGD-only steps the instance only grows, so the final
        // constraint can only become *newly* violated if at least one of its
        // body atoms is the image of a step's head atom. (This also rejects
        // final constraints with empty bodies, correctly: they can never be
        // newly violated by a growing instance.)
        let final_pos = self.k - 1;
        let final_has_head_source = self
            .atoms
            .iter()
            .zip(srcs)
            .any(|(&(pos, _), &s)| pos == final_pos && s != Src::I0);
        if !final_has_head_source {
            return;
        }
        // Prune 2: every step must *transitively feed* the final constraint
        // through head-source edges. A step j outside the final constraint's
        // dependency cone contributes nothing the skip-j run would miss, so
        // `αk(ak)` stays violated there and the necessity condition fails;
        // for k = 2 this coincides with prune 1. Sound for all variants.
        let mut feeds_final = vec![false; self.k];
        feeds_final[final_pos] = true;
        loop {
            let mut changed = false;
            for (&(pos, _), &s) in self.atoms.iter().zip(srcs) {
                if let Src::Head { step, .. } = s {
                    if feeds_final[pos] && !feeds_final[step] {
                        feeds_final[step] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        if !feeds_final.iter().all(|&b| b) {
            return;
        }
        // I0 atoms cannot contain chase-created nulls.
        for (&(pos, ai), &s) in self.atoms.iter().zip(srcs) {
            if s == Src::I0 {
                let atom = &self.set[self.seq[pos]].body()[ai];
                for &t in atom.terms() {
                    if matches!(uf.label_of(self.term_node(pos, t)), Label::Created(_)) {
                        return;
                    }
                }
            }
        }
        // Residual free variables, one representative per class.
        let mut free_roots: Vec<usize> = Vec::new();
        for pos in 0..self.k {
            for &n in self.var_nodes[pos].values() {
                let r = uf.find(n);
                if uf.label[r] == Label::Free && !free_roots.contains(&r) {
                    free_roots.push(r);
                }
            }
        }
        free_roots.sort_unstable();
        if free_roots.len() > self.cfg.max_free_vars {
            self.incomplete = true;
            return;
        }
        // Block label choices: fresh nulls only matter for the P-condition
        // of the Restricted variant (chain steps are TGDs, so instance
        // merges/failures never occur and satisfaction checks treat nulls
        // and constants alike).
        let mut choices = vec![BlockLabel::FreshConst];
        if matches!(self.variant, ChainVariant::Restricted(_)) {
            choices.push(BlockLabel::FreshNull);
        }
        for &c in &self.sigma_consts {
            choices.push(BlockLabel::SigmaConst(c));
        }
        let n = free_roots.len();
        let mut blocks = vec![0usize; n];
        self.enum_partitions(uf, srcs, &free_roots, &mut blocks, 0, 0, &choices);
    }

    /// Enumerate set partitions of the free roots as restricted-growth
    /// strings, trying a *new* block first so the all-distinct partition
    /// (the typical witness shape) is explored first.
    #[allow(clippy::too_many_arguments)]
    fn enum_partitions(
        &mut self,
        uf: &Uf,
        srcs: &[Src],
        free_roots: &[usize],
        blocks: &mut Vec<usize>,
        i: usize,
        max_used: usize,
        choices: &[BlockLabel],
    ) {
        if self.done() {
            return;
        }
        if i == free_roots.len() {
            let block_count = max_used;
            let mut labels = vec![choices[0]; block_count];
            self.enum_labels(uf, srcs, free_roots, blocks, &mut labels, 0, choices);
            return;
        }
        // New block first…
        blocks[i] = max_used;
        self.enum_partitions(uf, srcs, free_roots, blocks, i + 1, max_used + 1, choices);
        // …then each existing block.
        for b in 0..max_used {
            if self.done() {
                return;
            }
            blocks[i] = b;
            self.enum_partitions(uf, srcs, free_roots, blocks, i + 1, max_used, choices);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enum_labels(
        &mut self,
        uf: &Uf,
        srcs: &[Src],
        free_roots: &[usize],
        blocks: &[usize],
        labels: &mut Vec<BlockLabel>,
        b: usize,
        choices: &[BlockLabel],
    ) {
        if self.done() {
            return;
        }
        if b == labels.len() {
            if self.budget == 0 {
                self.incomplete = true;
                return;
            }
            self.budget -= 1;
            if self.materialize_and_check(uf, srcs, free_roots, blocks, labels) {
                self.found = true;
            }
            return;
        }
        for &choice in choices {
            labels[b] = choice;
            self.enum_labels(uf, srcs, free_roots, blocks, labels, b + 1, choices);
            if self.done() {
                return;
            }
        }
    }

    fn materialize_and_check(
        &self,
        uf: &Uf,
        srcs: &[Src],
        free_roots: &[usize],
        blocks: &[usize],
        labels: &[BlockLabel],
    ) -> bool {
        // Term of each block.
        let block_term = |b: usize| match labels[b] {
            BlockLabel::FreshConst => Term::Const(Sym::new(&format!("$f{b}"))),
            BlockLabel::FreshNull => Term::Null(b as u32),
            BlockLabel::SigmaConst(c) => Term::Const(c),
        };
        let mut root_term: FxHashMap<usize, Term> = FxHashMap::default();
        for (i, &r) in free_roots.iter().enumerate() {
            root_term.insert(r, block_term(blocks[i]));
        }
        let term_of = |node: usize| -> Term {
            let r = uf.find(node);
            match uf.label[r] {
                Label::Const(c) => Term::Const(c),
                Label::Created(_) => self.created_term[&r],
                Label::Free => root_term[&r],
            }
        };
        // Initial instance.
        let mut i0 = Instance::new();
        for (&(pos, ai), &s) in self.atoms.iter().zip(srcs) {
            if s == Src::I0 {
                let atom = &self.set[self.seq[pos]].body()[ai];
                i0.insert(atom.map_terms(|t| term_of(self.term_node(pos, t))));
            }
        }
        // Assignments.
        let assignment = |pos: usize| -> Subst {
            let mut a = Subst::new();
            for (&v, &n) in &self.var_nodes[pos] {
                a.bind_var(v, term_of(n));
            }
            a
        };
        let step_assignments: Vec<Subst> = (0..self.k - 1).map(assignment).collect();
        let final_assignment = assignment(self.k - 1);
        let created_terms: Vec<Vec<(Sym, Term)>> = (0..self.k - 1)
            .map(|s| {
                self.created_nodes[s]
                    .iter()
                    .map(|(&y, &n)| (y, self.created_term[&n]))
                    .collect()
            })
            .collect();
        self.execute(&i0, &step_assignments, &final_assignment, &created_terms)
    }

    /// Run the chain for real and verify every side condition of the variant.
    fn execute(
        &self,
        i0: &Instance,
        step_assignments: &[Subst],
        final_assignment: &Subst,
        created_terms: &[Vec<(Sym, Term)>],
    ) -> bool {
        let final_c = &self.set[self.seq[self.k - 1]];
        // I0 ⊨ β(b).
        if !final_c.satisfied_with(i0, final_assignment) {
            return false;
        }
        // Standard variant: the first (only) step must be a standard step,
        // i.e. I0 ⊭ α(a).
        if self.variant == ChainVariant::Standard
            && self.set[self.seq[0]].satisfied_with(i0, &step_assignments[0])
        {
            return false;
        }
        // Execute the oblivious steps, optionally skipping one (for the
        // necessity conditions). Created nulls are instantiated identically
        // across runs. In the *main* run every step must genuinely apply
        // (`Ii−1 →*αi,ai Ii`). In a *skip* run, steps whose instantiated
        // body is no longer present are skipped gracefully (`Jl := Jl−1`) —
        // the reading of Definition 14's fifth bullet under which Example 15
        // and the Figure 2 constraint land on the paper's claimed hierarchy
        // levels (a strict reading would reject every genuinely chained
        // witness, collapsing `T[k]` to `T[2]`; PAPER.md, "Deviations from
        // the paper", D9).
        let run_chain = |skip: Option<usize>| -> Option<Instance> {
            let mut inst = i0.clone();
            for s in 0..self.k - 1 {
                if Some(s) == skip {
                    continue;
                }
                let tgd = self.set[self.seq[s]]
                    .as_tgd()
                    .expect("chain steps are gated to TGDs");
                let a = &step_assignments[s];
                let ground: Vec<Atom> = a.apply_atoms(tgd.body());
                if !ground.iter().all(|at| inst.contains(at)) {
                    skip?;
                    continue; // skip run: J_l := J_{l−1}
                }
                let mut nu = a.clone();
                for &(y, t) in &created_terms[s] {
                    nu.bind_var(y, t);
                }
                for h in tgd.head() {
                    inst.insert(nu.apply_atom(h));
                }
            }
            Some(inst)
        };
        let full = match run_chain(None) {
            Some(inst) => inst,
            None => return false,
        };
        // Ik−1 ⊭ β(b).
        if final_c.satisfied_with(&full, final_assignment) {
            return false;
        }
        if let ChainVariant::Restricted(p) = &self.variant {
            // Some labeled-null parameter in the head of β(b) whose I0
            // positions all lie in P. A null not occurring in I0 at all
            // (e.g. one created mid-chain) satisfies the condition
            // trivially: null-pos({n}, I0) = ∅ ⊆ P.
            let head_vals: Vec<Term> = match final_c {
                Constraint::Tgd(t) => t
                    .frontier()
                    .iter()
                    .filter_map(|&v| final_assignment.var(v))
                    .collect(),
                Constraint::Egd(e) => [
                    final_assignment.var(e.left()),
                    final_assignment.var(e.right()),
                ]
                .into_iter()
                .flatten()
                .collect(),
            };
            let null_ok = head_vals
                .iter()
                .any(|&t| t.is_null() && i0.positions_of(t).is_subset(p));
            if !null_ok {
                return false;
            }
            // Necessity: skipping any step must leave the chain defined and
            // β(b) satisfied.
            for skip in 0..self.k - 1 {
                match run_chain(Some(skip)) {
                    None => return false,
                    Some(j) => {
                        if !final_c.satisfied_with(&j, final_assignment) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

/// Decide a chain relation over `seq` (constraint indices into `set`;
/// `seq.len() = k ≥ 2`).
pub fn chain(
    set: &ConstraintSet,
    seq: &[usize],
    variant: ChainVariant,
    cfg: &PrecedenceConfig,
) -> Verdict {
    assert!(seq.len() >= 2, "a chain needs at least two constraints");
    // EGD steps are out of scope for the static model (see module docs).
    if seq[..seq.len() - 1].iter().any(|&i| set[i].is_egd()) {
        return Verdict::ResourceLimit;
    }
    // Fast refutations.
    if let ChainVariant::Restricted(_) = &variant {
        if let Constraint::Tgd(t) = &set[seq[seq.len() - 1]] {
            if t.frontier().is_empty() {
                // No universally quantified parameter occurs in the head, so
                // no null can appear there: the P-condition cannot hold.
                return Verdict::Fails;
            }
        }
    }
    let mut search = ChainSearch::new(set, seq, variant, cfg);
    let base = search.base_uf.clone();
    let mut srcs = Vec::with_capacity(search.atoms.len());
    search.dfs(0, &base, &mut srcs);
    if search.found {
        Verdict::Holds
    } else if search.incomplete {
        Verdict::ResourceLimit
    } else {
        Verdict::Fails
    }
}

/// `α ≺ β` (Definition 2): firing `α` as a standard step can turn `β` from
/// satisfied to violated.
pub fn precedes(set: &ConstraintSet, a: usize, b: usize, cfg: &PrecedenceConfig) -> Verdict {
    chain(set, &[a, b], ChainVariant::Standard, cfg)
}

/// `α ≺c β` (Definition 4, corrected to use a genuinely oblivious step — see
/// PAPER.md, "Deviations from the paper", D8, and Example 7).
///
/// # Examples
///
/// ```
/// use chase_core::ConstraintSet;
/// use chase_termination::{precedes, precedes_c, PrecedenceConfig, Verdict};
///
/// // Example 4/7: α2 ⊀ α4 under the standard step, but α2 ≺c α4 — the
/// // oblivious edge that makes the set non-c-stratified.
/// let sigma = ConstraintSet::parse(
///     "R(X1) -> S(X1,X1)
///      S(X1,X2) -> T(X2,Z)
///      S(X1,X2) -> T(X1,X2), T(X2,X1)
///      T(X1,X2), T(X1,X3), T(X3,X1) -> R(X2)",
/// ).unwrap();
/// let cfg = PrecedenceConfig::default();
/// assert_eq!(precedes(&sigma, 1, 3, &cfg), Verdict::Fails);
/// assert_eq!(precedes_c(&sigma, 1, 3, &cfg), Verdict::Holds);
/// ```
pub fn precedes_c(set: &ConstraintSet, a: usize, b: usize, cfg: &PrecedenceConfig) -> Verdict {
    chain(set, &[a, b], ChainVariant::Oblivious, cfg)
}

/// `≺k,P(seq)` (Definition 14); `≺P` of Definition 10 is the case
/// `seq.len() == 2`.
pub fn precedes_k(
    set: &ConstraintSet,
    seq: &[usize],
    p: &PosSet,
    cfg: &PrecedenceConfig,
) -> Verdict {
    chain(set, seq, ChainVariant::Restricted(p.clone()), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::Position;

    fn cfg() -> PrecedenceConfig {
        PrecedenceConfig::default()
    }

    fn parse(text: &str) -> ConstraintSet {
        ConstraintSet::parse(text).unwrap()
    }

    #[test]
    fn example2_gamma_does_not_precede_itself() {
        // γ: a 2-cycle forces a 3-cycle; a 3-cycle is never a 2-cycle, so
        // γ ⊀ γ and γ ⊀c γ (Examples 2 and 6).
        let s = parse("E(X1,X2), E(X2,X1) -> E(X1,Y1), E(Y1,Y2), E(Y2,X1)");
        assert_eq!(precedes(&s, 0, 0, &cfg()), Verdict::Fails);
        assert_eq!(precedes_c(&s, 0, 0, &cfg()), Verdict::Fails);
    }

    #[test]
    fn simple_feeding_pair_precedes() {
        // α: S(x) → T(x), β: T(x) → U(x). Firing α puts a new T-fact in,
        // newly violating β.
        let s = parse("S(X) -> T(X)\nT(X) -> U(X)");
        assert_eq!(precedes(&s, 0, 1, &cfg()), Verdict::Holds);
        assert_eq!(precedes_c(&s, 0, 1, &cfg()), Verdict::Holds);
        // β's head U is never produced by... α's body S is not produced by β:
        assert_eq!(precedes(&s, 1, 0, &cfg()), Verdict::Fails);
    }

    #[test]
    fn example7_oblivious_gap() {
        // Example 4/7: α2 ⊀ α4 under the standard step, but α2 ≺c α4 under
        // the oblivious step — the edge that makes Σ non-c-stratified.
        let s = parse(
            "R(X1) -> S(X1,X1)\n\
             S(X1,X2) -> T(X2,Z)\n\
             S(X1,X2) -> T(X1,X2), T(X2,X1)\n\
             T(X1,X2), T(X1,X3), T(X3,X1) -> R(X2)",
        );
        assert_eq!(precedes(&s, 1, 3, &cfg()), Verdict::Fails, "α2 ⊀ α4");
        assert_eq!(precedes_c(&s, 1, 3, &cfg()), Verdict::Holds, "α2 ≺c α4");
    }

    #[test]
    fn intro_alpha2_precedes_itself() {
        // S(x) → ∃y E(x,y), S(y): the new S-fact newly violates the same
        // constraint.
        let s = parse("S(X) -> E(X,Y), S(Y)");
        assert_eq!(precedes(&s, 0, 0, &cfg()), Verdict::Holds);
        assert_eq!(precedes_c(&s, 0, 0, &cfg()), Verdict::Holds);
    }

    #[test]
    fn full_tgd_symmetric_closure_never_self_precedes() {
        // α5 of §3.7: T(x1,x2) → T(x2,x1). Its own firing adds the swapped
        // atom, which can only *satisfy* other instances of α5.
        let s = parse("T(X1,X2) -> T(X2,X1)");
        assert_eq!(precedes(&s, 0, 0, &cfg()), Verdict::Fails);
        assert_eq!(precedes_c(&s, 0, 0, &cfg()), Verdict::Fails);
        let p: PosSet = [Position::new("T", 0), Position::new("T", 1)]
            .into_iter()
            .collect();
        assert_eq!(precedes_k(&s, &[0, 0], &p, &cfg()), Verdict::Fails);
    }

    #[test]
    fn restricted_relation_needs_null_positions_in_p() {
        // Example 10's Σ: α1 full, α2 existential. With P = {E^1, E^2}:
        // α2 ≺P α1 (a created null flows into α1's head) but α1 ⊀P α1 —
        // Example 12's minimal system has the single edge (α2, α1).
        let s = parse(
            "S(X), E(X,Y) -> E(Y,X)\n\
             S(X), E(X,Y) -> E(Y,Z), E(Z,X)",
        );
        let p: PosSet = [Position::new("E", 0), Position::new("E", 1)]
            .into_iter()
            .collect();
        assert_eq!(precedes_k(&s, &[1, 0], &p, &cfg()), Verdict::Holds);
        assert_eq!(precedes_k(&s, &[0, 0], &p, &cfg()), Verdict::Fails);
        assert_eq!(precedes_k(&s, &[0, 1], &p, &cfg()), Verdict::Fails);
        assert_eq!(precedes_k(&s, &[1, 1], &p, &cfg()), Verdict::Fails);
    }

    #[test]
    fn restricted_relation_empty_p_still_sees_created_nulls() {
        // A null created by the step itself has null-pos(∅) ⊆ P for any P,
        // including the empty set.
        let s = parse("S(X) -> T(Y)\nT(X) -> U(X,Z)");
        let p = PosSet::new();
        assert_eq!(precedes_k(&s, &[0, 1], &p, &cfg()), Verdict::Holds);
    }

    #[test]
    fn example15_chain_length_tracks_arity() {
        // The Example 15 family: S(x_n), R(x1..xn) → ∃y R(y, x1..x_{n−1}).
        // Genuine firing chains have at most arity−1 steps (after that the
        // S-guarded last position holds a created null), so ≺k,∅ holds for
        // chains of up to that length and fails beyond.
        //
        // Arity 2 (the Figure 2 constraint): ≺2 holds, ≺3 fails.
        let s2 = parse("S(X2), R(X1,X2) -> R(Y,X1)");
        let p = PosSet::new();
        assert_eq!(precedes_k(&s2, &[0, 0], &p, &cfg()), Verdict::Holds);
        assert_eq!(precedes_k(&s2, &[0, 0, 0], &p, &cfg()), Verdict::Fails);
        // Arity 3: ≺3 holds, ≺4 fails.
        let s3 = parse("S(X3), R(X1,X2,X3) -> R(Y,X1,X2)");
        assert_eq!(precedes_k(&s3, &[0, 0], &p, &cfg()), Verdict::Holds);
        assert_eq!(precedes_k(&s3, &[0, 0, 0], &p, &cfg()), Verdict::Holds);
        assert_eq!(precedes_k(&s3, &[0, 0, 0, 0], &p, &cfg()), Verdict::Fails);
    }

    #[test]
    fn egd_steps_are_conservatively_unknown() {
        let s = parse("E(X,Y), E(X,Z) -> Y = Z\nE(X,Y) -> F(X,Y)");
        assert_eq!(precedes(&s, 0, 1, &cfg()), Verdict::ResourceLimit);
        // EGD as the *final* constraint is fully supported.
        assert!(precedes(&s, 1, 0, &cfg()).definite());
    }

    #[test]
    fn egd_as_final_constraint() {
        // Copying E into F can newly violate the key constraint on F.
        let s = parse("E(X,Y) -> F(X,Y)\nF(X,Y), F(X,Z) -> Y = Z");
        assert_eq!(precedes(&s, 0, 1, &cfg()), Verdict::Holds);
    }

    #[test]
    fn budget_exhaustion_reports_resource_limit() {
        let s = parse("S(X) -> E(X,Y), S(Y)");
        let tiny = PrecedenceConfig {
            max_candidates: 0,
            max_free_vars: 9,
        };
        assert_eq!(precedes(&s, 0, 0, &tiny), Verdict::ResourceLimit);
    }
}
