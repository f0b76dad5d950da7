//! # tesla-automata — from temporal assertions to finite-state automata
//!
//! TESLA assertions "have a natural expression as finite-state
//! automata that can be mechanically woven into a program" (§3). This
//! crate is that translation: it lowers a [`tesla_spec::Assertion`]
//! into an [`Automaton`] *class* — a symbolic NFA whose alphabet is
//! program-event patterns — ready for the instrumenter to drive and
//! for libtesla to instantiate.
//!
//! The pieces, mapped to the paper:
//!
//! * [`symbol`] — the symbolic alphabet: each [`symbol::Symbol`]
//!   matches a family of concrete program events (function call or
//!   return with argument patterns, structure-field assignment,
//!   Objective-C-style message send, or the assertion site itself) and
//!   says which variables it binds (§3.4.1).
//! * [`nfa`] — Thompson-style construction over *epsilon-free*
//!   fragments: sequences, exclusive alternation (`^`), the inclusive
//!   OR (`||`) as a cross-product automaton exactly per the equations
//!   of §3.4.2, `ATLEAST(n, ...)` repetition, and `optional`.
//! * [`automaton`] — bounds wrapping (§3.3): «init» on the start
//!   event, «cleanup» on the end event, *bypass* finalisation for code
//!   paths that never reach the assertion site (§4.1), and the
//!   cleanup-safety analysis that decides whether finalising an
//!   instance in a given state is acceptance or a violation (the
//!   `eventually` case).
//! * [`dfa`] — subset construction; figure 9's states are labelled
//!   with NFA state sets ("NFA:1,3") exactly as this module produces.
//!   The runtime steps instances on the same [`Dfa`]
//!   ([`Dfa::build`]). Its breadth-first routine is the crate's one
//!   determiniser: it also builds the lint closure and the
//!   synchronized product, so every DFA numbers its states in the
//!   same discovery order.
//! * [`analysis`] — the automaton algebra behind `tesla lint`:
//!   complete-DFA complement, synchronized product, emptiness within
//!   the temporal bound, Hopcroft minimisation (the crate's one
//!   minimiser) and language inclusion via product-with-complement,
//!   plus the within-bound closure construction that makes TESLA's
//!   ignore/site/strict semantics amenable to that algebra.
//! * [`manifest`] — the `.tesla` manifests of §4.1. Manifests from
//!   many compilation units are merged into one program-wide
//!   description, which is what makes incremental rebuilds
//!   one-to-many (§5.1). The paper stores them as protocol buffers;
//!   their text form here, versioned JSONL, is written and read by the
//!   `tesla` crate (see DESIGN.md).
//! * [`dot`] — Graphviz rendering, optionally weighted by run-time
//!   transition counts (fig. 9, §4.4.2).
//! * [`cache`] — the shared automaton compile cache: assertions are
//!   compiled once per content fingerprint and shared by `Arc` across
//!   compilation units and threads, fixing the §7 "re-loading,
//!   re-parsing, and re-interpreting" inefficiency.
//!
//! ## Example
//!
//! ```
//! use tesla_automata::{compile, Dfa};
//! use tesla_spec::parse_assertion;
//!
//! let a = parse_assertion(
//!     "TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(ANY(ptr), so) == 0)",
//! ).unwrap();
//! let auto = compile(&a).unwrap();
//! assert_eq!(auto.n_states, 3);                 // the fig. 9 chain
//! assert_eq!(auto.bound.start_fn, "amd64_syscall");
//! let dfa = Dfa::from_automaton(&auto);
//! assert_eq!(dfa.label(0), "NFA:0");            // fig. 9's state labels
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod automaton;
pub mod bitset;
pub mod cache;
pub mod coverage;
pub mod dfa;
pub mod dot;
pub mod manifest;
pub mod nfa;
pub mod symbol;

pub use analysis::{
    body_alphabet, compare_languages, has_guards, merge_groups, union_alphabet, unreachable_states,
    Closure, CompleteDfa, LanguageRelation,
};
pub use automaton::{compile, Automaton, Bound};
pub use bitset::{FoldHasher, StateSet};
pub use cache::CompileCache;
pub use coverage::{ClassCoverage, CoverageMap};
pub use dfa::Dfa;
// The DFA under the name of the matrix type it replaced. Its one user
// is the benchmark package's probe suite (`bench/src/probe.rs`),
// which builds outside this workspace; the alias goes when the
// benchmark joins it.
#[doc(hidden)]
pub use dfa::Dfa as CompiledDfa;
pub use manifest::{fnv1a, Fnv64, Manifest};
pub use symbol::{
    Direction, Guard, InstrSide, ProgEvent, Symbol, SymbolId, SymbolKind, Transition,
};

/// The matrix: [`Dfa::build`]'s table, which the runtime steps
/// guard-free instances on, checked against the NFA it came from.
#[cfg(test)]
mod compiled {
    mod tests {
        use crate::dfa::{tests::sample_automata, Dfa};
        use crate::{StateSet, SymbolId};
        use tesla_prop::{check, prop_assert_eq};

        const SEED: u64 = 0xc0de;

        /// A row reaches exactly the NFA's state set on every prefix
        /// of a random word, and dies where the NFA does.
        #[test]
        fn matrix_and_nfa_agree_on_random_words() {
            check(
                256,
                SEED,
                |g| (g.range(0usize..4), g.vec(0..16, |g| g.range(0u32..8))),
                |(which, word)| {
                    let a = &sample_automata()[which];
                    let d = Dfa::build(a).expect("guard-free");
                    let n = a.n_symbols() as u32;
                    let mut set = a.initial_states();
                    let mut row = d.start;
                    for sym in word.into_iter().map(|w| SymbolId(w % n)) {
                        if sym == a.init_sym || sym == a.cleanup_sym {
                            continue;
                        }
                        let next = a.step(&set, sym, |_| true);
                        let Some(nr) = d.next(row, sym) else {
                            prop_assert_eq!(next, StateSet::EMPTY);
                            return Ok(());
                        };
                        prop_assert_eq!(d.states[nr as usize], next);
                        set = next;
                        row = nr;
                    }
                    Ok(())
                },
            );
        }
    }
}

/// Maximum number of NFA states per automaton. Cross-product (`||`)
/// state counts multiply, so the compiler enforces a cap rather than
/// letting a pathological assertion exhaust memory; the paper's
/// assertions compile to well under this.
pub const MAX_STATES: usize = bitset::MAX_STATES;

/// Errors from assertion-to-automaton compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The assertion failed structural validation.
    Spec(tesla_spec::SpecError),
    /// The automaton would exceed [`MAX_STATES`] states.
    TooManyStates(usize),
    /// The expression was empty after lowering (e.g. only modifiers).
    EmptyAutomaton,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Spec(e) => write!(f, "invalid assertion: {e}"),
            CompileError::TooManyStates(n) => {
                write!(
                    f,
                    "automaton needs {n} states, more than the maximum {MAX_STATES}"
                )
            }
            CompileError::EmptyAutomaton => write!(f, "assertion lowered to an empty automaton"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<tesla_spec::SpecError> for CompileError {
    fn from(e: tesla_spec::SpecError) -> CompileError {
        CompileError::Spec(e)
    }
}
