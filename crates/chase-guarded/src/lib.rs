#![warn(missing_docs)]

//! # chase-guarded
//!
//! Section 5 of the paper: query answering over knowledge bases whose chase
//! may not terminate, via guarded fragments.
//!
//! * [`guards`] — the recognizers: *weakly guarded* TGD sets (Definition 20,
//!   Calì–Gottlob–Kifer) and the paper's strictly larger class of
//!   *restrictedly guarded* sets (Definition 22), which replaces affected
//!   positions with the restriction-system position set `f`.
//! * [`nullprop`] — the *guarded null property* (Definition 21), checked at
//!   runtime over chase traces; by Lemma 7 every chase sequence of an RGTGD
//!   set has it.
//! * [`qa`] — certain-answer query answering on (terminating or budgeted)
//!   chases. The paper's Corollary 1 decidability argument goes through
//!   Courcelle's theorem on bounded-treewidth models; what this crate ships
//!   is the *class recognition* (the paper's actual §5 contribution) plus
//!   sound certain-answer computation whenever the chase terminates — see
//!   PAPER.md, "Deviations from the paper", D3, for the scope
//!   substitution.
//!
//! # Examples
//!
//! Recognize a guarded set, then answer a query over a knowledge base:
//!
//! ```
//! use chase_core::{ConjunctiveQuery, ConstraintSet, Instance, Term};
//! use chase_engine::ChaseConfig;
//! use chase_guarded::{certain_answers, is_weakly_guarded};
//!
//! let sigma = ConstraintSet::parse(
//!     "parent(X,Y) -> person(X), person(Y)\n\
//!      person(X) -> bornIn(X,P)",
//! ).unwrap();
//! assert!(is_weakly_guarded(&sigma));
//!
//! let kb = Instance::parse("parent(ada,byron).").unwrap();
//! let cfg = ChaseConfig::default();
//! // Certain: ada is a person (derived, null-free).
//! let q = ConjunctiveQuery::parse("q(X) <- person(X), parent(X,byron)").unwrap();
//! let answers = certain_answers(&kb, &sigma, &q, &cfg).unwrap();
//! assert_eq!(answers, vec![vec![Term::constant("ada")]]);
//! // Not certain: the birthplace the chase invents is a labeled null.
//! let q2 = ConjunctiveQuery::parse("q(P) <- bornIn(ada,P)").unwrap();
//! assert!(certain_answers(&kb, &sigma, &q2, &cfg).unwrap().is_empty());
//! ```

pub mod guards;
pub mod nullprop;
pub mod qa;

pub use guards::{guard_atoms, is_restrictedly_guarded, is_weakly_guarded};
pub use nullprop::{guarded_null_property, NullPropViolation};
pub use qa::{certain_answers, QaError};
