//! The Turing-machine-to-TGD encoding from the proof of Theorem 8.
//!
//! Theorem 8 shows that `(I,Σ)`-irrelevance is undecidable by compiling a
//! Turing machine `M` into a constraint set `ΣM` such that `M` reaches a
//! transition `δ` (from the empty input) iff the marker rule
//! `Aδ(x) → Bδ(x)` can eventually fire when chasing the empty instance.
//!
//! The configuration encoding follows the paper: each configuration is a row
//! of `T(x, symbol, y)` "tape edges" delimited by begin/end markers, the
//! head is a parallel `H(x, state, y)` edge, successive rows are linked by
//! vertical `L`/`R` edges, and per-symbol copy rules reproduce the untouched
//! part of the tape into the next row.
//!
//! Two deliberate tightenings over the paper's proof sketch (PAPER.md,
//! "Deviations from the paper", D2): transition rules are instantiated per concrete
//! neighbor-symbol (the sketch's universally quantified neighbor would also
//! match the end marker), and vertical `R`-edges are only emitted where a
//! cell actually needs copying (the sketch's extra `R(y,y')` would duplicate
//! cells the rule already rebuilds). Both changes keep the encoding a
//! *bisimulation* for deterministic machines, which the tests verify against
//! a direct simulator.

use chase_core::{ConstraintSet, Instance};
use std::fmt;

/// Head movement of a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Move left one cell.
    Left,
    /// Move right one cell.
    Right,
    /// Stay on the current cell.
    Stay,
}

/// One transition `(from, read) → (write, dir, to)`.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Source state.
    pub from: usize,
    /// Symbol read (index into [`TuringMachine::symbols`]).
    pub read: usize,
    /// Symbol written.
    pub write: usize,
    /// Head movement.
    pub dir: Dir,
    /// Target state.
    pub to: usize,
}

/// A single-tape Turing machine. Symbol 0 is the blank; state 0 is initial.
#[derive(Debug, Clone)]
pub struct TuringMachine {
    /// Number of states.
    pub states: usize,
    /// Tape symbol names (index 0 = blank). Names must be lower-case
    /// identifiers (they become constants).
    pub symbols: Vec<String>,
    /// The transition table. For the encoding to be a bisimulation the
    /// machine should be deterministic (at most one transition per
    /// `(state, read)` pair).
    pub transitions: Vec<Transition>,
}

impl TuringMachine {
    /// Is the machine deterministic?
    pub fn is_deterministic(&self) -> bool {
        for (i, a) in self.transitions.iter().enumerate() {
            for b in &self.transitions[i + 1..] {
                if a.from == b.from && a.read == b.read {
                    return false;
                }
            }
        }
        true
    }
}

/// Result of directly simulating a machine.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Did the machine halt (no applicable transition) within the budget?
    pub halted: bool,
    /// Steps executed.
    pub steps: usize,
    /// Indices of transitions fired, in order.
    pub fired: Vec<usize>,
    /// Final tape contents (symbol indices).
    pub tape: Vec<usize>,
}

/// Simulate `tm` from the empty input for at most `max_steps` steps.
pub fn simulate(tm: &TuringMachine, max_steps: usize) -> SimResult {
    let mut tape: Vec<usize> = vec![0];
    let mut head: usize = 0;
    let mut state: usize = 0;
    let mut fired = Vec::new();
    for step in 0..max_steps {
        let read = tape[head];
        let delta = tm
            .transitions
            .iter()
            .position(|t| t.from == state && t.read == read);
        let Some(di) = delta else {
            return SimResult {
                halted: true,
                steps: step,
                fired,
                tape,
            };
        };
        let t = &tm.transitions[di];
        fired.push(di);
        tape[head] = t.write;
        state = t.to;
        match t.dir {
            Dir::Right => {
                head += 1;
                if head == tape.len() {
                    tape.push(0);
                }
            }
            Dir::Left => {
                assert!(head > 0, "machine moved left past the tape start");
                head -= 1;
            }
            Dir::Stay => {}
        }
    }
    SimResult {
        halted: false,
        steps: max_steps,
        fired,
        tape,
    }
}

/// The compiled form of a machine.
#[derive(Debug, Clone)]
pub struct TmEncoding {
    /// The constraint set `ΣM`.
    pub constraints: ConstraintSet,
    /// For each transition `i`: the index of its marker rule
    /// `A<i>(x) → B<i>(x)` in `constraints` (the `αt` of Theorem 8).
    pub marker_rules: Vec<usize>,
}

impl fmt::Display for TmEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.constraints)
    }
}

/// The empty instance the encoded machine is chased from.
pub fn empty_instance() -> Instance {
    Instance::new()
}

/// Compile `tm` into `ΣM` (Theorem 8).
pub fn encode(tm: &TuringMachine) -> TmEncoding {
    let sym = |i: usize| tm.symbols[i].clone();
    let state = |s: usize| format!("st{s}");
    let mut lines: Vec<String> = Vec::new();

    // 1. Initial configuration: B | blank(head, state 0) | E.
    lines.push(format!(
        "-> T(W,bMark,X), T(X,{blank},Y), H(X,{s0},Y), T(Y,eMark,Z)",
        blank = sym(0),
        s0 = state(0)
    ));

    // 2–5. Transition rules.
    for (i, t) in tm.transitions.iter().enumerate() {
        let (a, aw, s, s2) = (sym(t.read), sym(t.write), state(t.from), state(t.to));
        match t.dir {
            Dir::Right => {
                // Within the tape: one rule per concrete next symbol.
                for b in 0..tm.symbols.len() {
                    let b = sym(b);
                    lines.push(format!(
                        "T(X,{a},Y), H(X,{s},Y), T(Y,{b},Z) -> \
                         L(X,X2), R(Z,Z2), T(X2,{aw},Y2), T(Y2,{b},Z2), H(Y2,{s2},Z2), A{i}(X2)"
                    ));
                }
                // Past the end of the tape: extend with a fresh blank.
                lines.push(format!(
                    "T(X,{a},Y), H(X,{s},Y), T(Y,eMark,Z) -> \
                     L(X,X2), T(X2,{aw},Y2), T(Y2,{blank},Z2), H(Y2,{s2},Z2), \
                     T(Z2,eMark,W2), A{i}(X2)",
                    blank = sym(0)
                ));
            }
            Dir::Left => {
                // One rule per concrete symbol of the left neighbor.
                for c in 0..tm.symbols.len() {
                    let c = sym(c);
                    lines.push(format!(
                        "T(W,{c},X), T(X,{a},Y), H(X,{s},Y) -> \
                         L(W,W2), R(Y,Y2), T(W2,{c},X2), T(X2,{aw},Y2), H(W2,{s2},X2), A{i}(W2)"
                    ));
                }
            }
            Dir::Stay => {
                lines.push(format!(
                    "T(X,{a},Y), H(X,{s},Y) -> \
                     L(X,X2), R(Y,Y2), T(X2,{aw},Y2), H(X2,{s2},Y2), A{i}(X2)"
                ));
            }
        }
    }

    // 6. Marker rules A_i(x) → B_i(x), recorded for Theorem 8 queries.
    let mut marker_rules = Vec::with_capacity(tm.transitions.len());
    for i in 0..tm.transitions.len() {
        marker_rules.push(lines.len());
        lines.push(format!("A{i}(X) -> B{i}(X)"));
    }

    // 7. Left copy, per symbol (including the begin marker).
    for a in tm.symbols.iter().cloned().chain(["bMark".to_owned()]) {
        lines.push(format!("T(X,{a},Y), L(Y,Y2) -> L(X,X2), T(X2,{a},Y2)"));
    }
    // 8. Right copy, per symbol (including the end marker).
    for a in tm.symbols.iter().cloned().chain(["eMark".to_owned()]) {
        lines.push(format!("T(X,{a},Y), R(X,X2) -> T(X2,{a},Y2), R(Y,Y2)"));
    }

    let constraints = ConstraintSet::parse(&lines.join("\n")).expect("encoding parses");
    TmEncoding {
        constraints,
        marker_rules,
    }
}

/// A machine that writes `mark` onto `n` cells moving right, then halts.
/// Fires each of its `n` transitions exactly once.
pub fn tm_writer(n: usize) -> TuringMachine {
    TuringMachine {
        states: n + 1,
        symbols: vec!["blank".into(), "mark".into()],
        transitions: (0..n)
            .map(|i| Transition {
                from: i,
                read: 0,
                write: 1,
                dir: Dir::Right,
                to: i + 1,
            })
            .collect(),
    }
}

/// A machine exercising right-at-end, left and stay moves:
/// write, right, write, left, check, halt.
pub fn tm_flipper() -> TuringMachine {
    TuringMachine {
        states: 4,
        symbols: vec!["blank".into(), "mark".into()],
        transitions: vec![
            Transition {
                from: 0,
                read: 0,
                write: 1,
                dir: Dir::Right,
                to: 1,
            },
            Transition {
                from: 1,
                read: 0,
                write: 1,
                dir: Dir::Left,
                to: 2,
            },
            Transition {
                from: 2,
                read: 1,
                write: 1,
                dir: Dir::Stay,
                to: 3,
            },
        ],
    }
}

/// A machine that never halts (moves right forever over blanks).
pub fn tm_infinite() -> TuringMachine {
    TuringMachine {
        states: 1,
        symbols: vec!["blank".into()],
        transitions: vec![Transition {
            from: 0,
            read: 0,
            write: 0,
            dir: Dir::Right,
            to: 0,
        }],
    }
}

/// [`tm_writer`] plus one transition out of an unreachable state — its
/// marker rule can never fire (the interesting case for Theorem 8).
pub fn tm_writer_with_unreachable(n: usize) -> TuringMachine {
    let mut tm = tm_writer(n);
    tm.states += 1;
    tm.transitions.push(Transition {
        from: tm.states - 1,
        read: 0,
        write: 0,
        dir: Dir::Stay,
        to: tm.states - 1,
    });
    tm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulator_runs_the_writer() {
        let tm = tm_writer(3);
        assert!(tm.is_deterministic());
        let r = simulate(&tm, 100);
        assert!(r.halted);
        assert_eq!(r.steps, 3);
        assert_eq!(r.fired, vec![0, 1, 2]);
        assert_eq!(r.tape, vec![1, 1, 1, 0]);
    }

    #[test]
    fn simulator_runs_the_flipper() {
        let r = simulate(&tm_flipper(), 100);
        assert!(r.halted);
        assert_eq!(r.fired, vec![0, 1, 2]);
    }

    #[test]
    fn simulator_detects_divergence() {
        let r = simulate(&tm_infinite(), 50);
        assert!(!r.halted);
        assert_eq!(r.steps, 50);
    }

    #[test]
    fn encoding_has_marker_rules_for_every_transition() {
        let tm = tm_flipper();
        let enc = encode(&tm);
        assert_eq!(enc.marker_rules.len(), 3);
        for (i, &ri) in enc.marker_rules.iter().enumerate() {
            let c = &enc.constraints[ri];
            let t = c.as_tgd().unwrap();
            assert_eq!(t.body()[0].pred().as_str(), format!("A{i}"));
            assert_eq!(t.head()[0].pred().as_str(), format!("B{i}"));
        }
    }

    #[test]
    fn encoding_parses_and_is_tgd_only() {
        let enc = encode(&tm_writer(2));
        assert!(enc.constraints.iter().all(|c| c.is_tgd()));
        enc.constraints.schema().unwrap();
    }
}
