//! Subset construction: symbolic NFA → DFA.
//!
//! Figure 9 of the paper shows DFA states labelled with the NFA state
//! sets they stand for ("NFA:1,3"); [`Dfa`] is exactly that structure.
//! It backs offline analysis, state-graph rendering, the rows of the
//! runtime's transition-weight tables and the fuzzer's coverage cells,
//! serves as a differential-testing oracle (a property test checks
//! that NFA and DFA reach the same state sets on random words), and is
//! the table the runtime steps instances on ([`Dfa::build`]).
//!
//! Every DFA in this crate comes from one breadth-first routine,
//! `explore`: [`Dfa`] itself, the lint closure ([`crate::Closure`])
//! and the synchronized product ([`crate::CompleteDfa::product`]).
//! State ids are its discovery order, so the DOT node ids, weight
//! rows, runtime instance rows, lint L004 state groups and coverage
//! cells of an automaton all agree.
//!
//! Guards are ignored by [`Dfa::from_automaton`] (treated as always
//! passing): that DFA is a *structural* view. [`Dfa::build`] refuses
//! guarded automata instead.

use crate::analysis::has_guards;
use crate::automaton::Automaton;
use crate::bitset::StateSet;
use crate::symbol::SymbolId;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

/// The "no successor" cell of an `explore` table.
pub(crate) const NONE: u32 = u32::MAX;

/// Cap on the states of a DFA the runtime steps ([`Dfa::build`]).
///
/// Bounds its table at `MAX_DFA_STATES × n_symbols × 4` bytes;
/// assertions from the paper's corpora determinise to well under a
/// hundred states.
pub const MAX_DFA_STATES: usize = 4096;

/// What `explore` builds: the keys in id order, the row-major
/// `keys × n_cols` successor table, and the key → id index.
pub(crate) type Explored<K> = (Vec<K>, Vec<u32>, HashMap<K, u32>);

/// In-order breadth-first construction of a deterministic automaton.
///
/// States are keys numbered in discovery order, `start` first. Row `i`
/// (`step(key_i, col)` for every column in turn) is filled before key
/// `i + 1` is expanded, and a key first seen as a successor gets the
/// next free id. `step` returns `None` for "no successor", which the
/// table records as [`NONE`].
///
/// Returns `None` as soon as a key beyond the first `cap` is
/// discovered.
pub(crate) fn explore<K: Copy + Eq + Hash>(
    start: K,
    n_cols: usize,
    cap: usize,
    mut step: impl FnMut(&K, usize) -> Option<K>,
) -> Option<Explored<K>> {
    // Assertions determinise to a handful of states: room for eight
    // saves the early regrowths.
    let mut keys = Vec::with_capacity(8);
    keys.push(start);
    let mut index = HashMap::from([(start, 0u32)]);
    let mut table = Vec::with_capacity(8 * n_cols);
    let mut i = 0;
    while i < keys.len() {
        let key = keys[i];
        for col in 0..n_cols {
            let id = match step(&key, col) {
                None => NONE,
                // A self-loop needs no lookup.
                Some(next) if next == key => i as u32,
                Some(next) => match index.entry(next) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        if keys.len() >= cap {
                            return None;
                        }
                        keys.push(next);
                        *e.insert(keys.len() as u32 - 1)
                    }
                },
            };
            table.push(id);
        }
        i += 1;
    }
    Some((keys, table, index))
}

/// One body step of `automaton`'s subset construction, for
/// `explore`: guards pass, a run that dies has no successor, and the
/// «init» and «cleanup» pseudo-symbols never step (the instance
/// lifecycle handles them, not body transitions).
pub(crate) fn body_step(
    automaton: &Automaton,
) -> impl Fn(&StateSet, usize) -> Option<StateSet> + '_ {
    move |set, sym| {
        let sym = SymbolId(sym as u32);
        if sym == automaton.init_sym || sym == automaton.cleanup_sym {
            return None;
        }
        let next = automaton.step(set, sym, |_| true);
        (!next.is_empty()).then_some(next)
    }
}

/// A determinised view of an [`Automaton`]'s body.
///
/// Whether a state accepts, or may be finalised, is a fact about the
/// NFA set it stands for: `automaton.accepting.intersects(&states[s])`
/// and [`Automaton::finalise_ok`].
#[derive(Debug, Clone)]
pub struct Dfa {
    /// For each DFA state, the NFA state set it represents (the
    /// "NFA:…" labels of fig. 9).
    pub states: Vec<StateSet>,
    /// Row-major successor table, [`NONE`] for "no transition"; read
    /// through [`Dfa::next`].
    table: Vec<u32>,
    /// NFA set → DFA state, as `explore` built it; read through
    /// [`Dfa::resolve`].
    index: HashMap<StateSet, u32>,
    n_symbols: usize,
    /// DFA start state (always 0).
    pub start: u32,
}

impl Dfa {
    /// Determinise `automaton`'s body via subset construction,
    /// uncapped, with every guard passing.
    pub fn from_automaton(automaton: &Automaton) -> Dfa {
        Dfa::determinise(automaton, usize::MAX).expect("uncapped subset construction completes")
    }

    /// The DFA the runtime steps instances on, or `None` when the
    /// automaton is outside that fragment: it has guarded transitions
    /// (a guard is a fact about the thread's call stack, which a DFA
    /// state cannot see) or its subset construction exceeds
    /// [`MAX_DFA_STATES`].
    pub fn build(automaton: &Automaton) -> Option<Dfa> {
        if has_guards(automaton) {
            return None;
        }
        Dfa::determinise(automaton, MAX_DFA_STATES)
    }

    fn determinise(automaton: &Automaton, cap: usize) -> Option<Dfa> {
        let n_symbols = automaton.n_symbols();
        let (states, table, index) = explore(
            automaton.initial_states(),
            n_symbols,
            cap,
            body_step(automaton),
        )?;
        Some(Dfa {
            states,
            table,
            index,
            n_symbols,
            start: 0,
        })
    }

    /// Number of DFA states.
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Number of symbols (columns of the transition table).
    pub fn n_symbols(&self) -> usize {
        self.n_symbols
    }

    /// The successor of `state` on `sym`; `None` when the run dies
    /// there or `sym` is outside the alphabet.
    #[inline]
    pub fn next(&self, state: u32, sym: SymbolId) -> Option<u32> {
        let sym = sym.0 as usize;
        if sym >= self.n_symbols {
            return None;
        }
        let t = self.table[state as usize * self.n_symbols + sym];
        (t != NONE).then_some(t)
    }

    /// The DFA state that stands for `set`, if `set` is one of the
    /// subsets the construction reached.
    pub fn resolve(&self, set: &StateSet) -> Option<u32> {
        self.index.get(set).copied()
    }

    /// Every transition as `(from, symbol, to)`, row by row.
    pub fn edges(&self) -> impl Iterator<Item = (u32, SymbolId, u32)> + '_ {
        self.table
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != NONE)
            .map(|(i, &t)| {
                let (from, sym) = (i / self.n_symbols, i % self.n_symbols);
                (from as u32, SymbolId(sym as u32), t)
            })
    }

    /// Run a word; `None` means the run died (no transition).
    pub fn run(&self, word: &[SymbolId]) -> Option<u32> {
        word.iter()
            .try_fold(self.start, |s, &sym| self.next(s, sym))
    }

    /// The fig. 9 style label of a DFA state: `"NFA:1,3"`.
    pub fn label(&self, state: u32) -> String {
        let members: Vec<String> = self.states[state as usize]
            .iter()
            .map(|s| s.to_string())
            .collect();
        format!("NFA:{}", members.join(","))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::automaton::compile;
    use tesla_prop::{check, prop_assert_eq};
    use tesla_spec::{call, AssertionBuilder, ExprBuilder};

    const SEED: u64 = 0xdfa;

    fn nfa_accepts(a: &Automaton, word: &[SymbolId]) -> bool {
        let mut states = a.initial_states();
        for &sym in word {
            let next = a.step(&states, sym, |_| true);
            if next.is_empty() {
                return false;
            }
            states = next;
        }
        a.accepting.intersects(&states)
    }

    /// Guard-free automata of four shapes: a chain, a three-way
    /// inclusive OR, a sequence OR'd with a call, and `eventually`.
    pub(crate) fn sample_automata() -> Vec<Automaton> {
        let simple = AssertionBuilder::syscall()
            .previously(call("check").any_ptr().returns(0))
            .build()
            .unwrap();
        let or3 = AssertionBuilder::syscall()
            .previously(
                ExprBuilder::from(call("a").returns(0))
                    .or(call("b").returns(0))
                    .or(call("c").returns(0)),
            )
            .build()
            .unwrap();
        let seq_or = AssertionBuilder::within("main")
            .previously(
                ExprBuilder::from(call("x").returns(0))
                    .then(call("y").returns(0))
                    .or(ExprBuilder::from(call("z").returns(0))),
            )
            .build()
            .unwrap();
        let ev = AssertionBuilder::syscall()
            .eventually(call("audit").returns(0))
            .build()
            .unwrap();
        vec![
            compile(&simple).unwrap(),
            compile(&or3).unwrap(),
            compile(&seq_or).unwrap(),
            compile(&ev).unwrap(),
        ]
    }

    #[test]
    fn dfa_start_is_initial_singleton() {
        for a in sample_automata() {
            let d = Dfa::from_automaton(&a);
            assert_eq!(d.states[0], a.initial_states());
            assert!(d.n_states() >= 2);
        }
    }

    #[test]
    fn dfa_labels_name_nfa_sets() {
        let a = &sample_automata()[0];
        let d = Dfa::from_automaton(a);
        assert!(d.label(0).starts_with("NFA:"));
    }

    #[test]
    fn dfa_is_deterministic() {
        for a in sample_automata() {
            let d = Dfa::from_automaton(&a);
            // One successor slot per (state, symbol); the lifecycle
            // pseudo-symbols never step.
            assert_eq!(d.n_symbols(), a.n_symbols());
            assert_eq!(d.table.len(), d.n_states() * d.n_symbols());
            for s in 0..d.n_states() as u32 {
                assert_eq!(d.next(s, a.init_sym), None);
                assert_eq!(d.next(s, a.cleanup_sym), None);
            }
            for (from, sym, to) in d.edges() {
                assert_eq!(d.next(from, sym), Some(to));
                assert!((to as usize) < d.n_states());
            }
        }
    }

    #[test]
    fn explore_numbers_keys_breadth_first_and_honours_the_cap() {
        // Two columns: `2k + 1` and `2k + 2` (a complete binary tree in
        // breadth-first order) up to 6; the leaves loop on column 0.
        let step = |&k: &u32, c: usize| match 2 * k + 1 + c as u32 {
            n if n <= 6 => Some(n),
            _ => (c == 0).then_some(k),
        };
        let (keys, table, index) = explore(0u32, 2, 7, step).unwrap();
        assert_eq!(keys, (0..=6).collect::<Vec<_>>());
        assert_eq!(
            table,
            [1, 2, 3, 4, 5, 6, 3, NONE, 4, NONE, 5, NONE, 6, NONE]
        );
        assert!(keys.iter().all(|k| index[k] == *k));
        assert!(explore(0u32, 2, 6, step).is_none());
    }

    #[test]
    fn resolve_round_trips_every_state() {
        for a in sample_automata() {
            let d = Dfa::build(&a).expect("guard-free");
            for s in 0..d.n_states() as u32 {
                assert_eq!(d.resolve(&d.states[s as usize]), Some(s));
            }
            assert_eq!(d.resolve(&StateSet::EMPTY), None);
        }
    }

    #[test]
    fn build_refuses_guarded_automata() {
        // `incallstack` is a guard: a fact about the call stack that a
        // DFA state cannot see.
        let guarded = AssertionBuilder::syscall()
            .body(
                ExprBuilder::in_callstack("ufs_readdir")
                    .or(ExprBuilder::from(call("check").returns(0)).then(ExprBuilder::site())),
            )
            .build()
            .unwrap();
        let guarded = compile(&guarded).unwrap();
        assert!(Dfa::build(&guarded).is_none());
        assert!(Dfa::from_automaton(&guarded).n_states() >= 2);
        for a in sample_automata() {
            let (built, structural) =
                (Dfa::build(&a).expect("guard-free"), Dfa::from_automaton(&a));
            assert_eq!(built.states, structural.states);
            assert_eq!(built.table, structural.table);
        }
    }

    #[test]
    fn dfa_and_nfa_agree_on_random_words() {
        check(
            256,
            SEED,
            |g| (g.range(0usize..4), g.vec(0..12, |g| g.range(0u32..6))),
            |(which, word)| {
                let a = &sample_automata()[which];
                let n = a.n_symbols() as u32;
                let word: Vec<SymbolId> = word
                    .into_iter()
                    .map(|w| SymbolId(w % n))
                    .filter(|s| *s != a.init_sym && *s != a.cleanup_sym)
                    .collect();
                let d = Dfa::from_automaton(a);
                let dfa_accepts = d
                    .run(&word)
                    .is_some_and(|s| a.accepting.intersects(&d.states[s as usize]));
                prop_assert_eq!(dfa_accepts, nfa_accepts(a, &word));
                Ok(())
            },
        );
    }
}
