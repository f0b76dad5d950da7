//! Automaton algebra for specification-level static analysis.
//!
//! The runtime asks "did *this* trace satisfy the assertion?"; the
//! `tesla lint` pass asks questions about *all* traces: can the
//! assertion ever fail (vacuity)? can it ever pass (contradiction)?
//! does one assertion's language contain another's (subsumption)? The
//! classical toolkit for such questions is the DFA algebra —
//! complement, synchronized product, emptiness, language inclusion and
//! minimisation — which this module implements over a small
//! *complete* DFA representation ([`CompleteDfa`]).
//!
//! # The within-bound word model
//!
//! TESLA automata are not interpreted over raw regular languages but
//! over the instance lifecycle of §3.3/§4.4: an instance is created at
//! «init», observes the events it references, and is finalised at
//! «cleanup». The [`Closure`] construction reifies that lifecycle as
//! an ordinary complete DFA so the algebra applies:
//!
//! * **ignore semantics** — an event with no outgoing transition from
//!   the current state set is ignored (self-loop) unless the automaton
//!   is `strict` (then the run dies);
//! * **site failure** — the assertion-site event with no transition is
//!   a violation: the run moves to an explicit non-accepting *sink*;
//! * **bound-relative feasibility** — a body symbol that aliases the
//!   bound's own «init»/«cleanup» event (same function, same
//!   direction) cannot occur strictly inside a non-recursive
//!   activation and is excluded from the alphabet by
//!   [`body_alphabet`];
//! * **single-activation words** — each word models one activation in
//!   which the assertion site is evaluated at most once; a second
//!   site event self-loops in the closure and is never sampled by the
//!   word oracles.
//!
//! A closure state *accepts* iff finalising there would pass
//! ([`Automaton::finalise_ok`]), so the closure's language is the set
//! of event sequences the assertion tolerates. Vacuity is then
//! emptiness of the complement, contradiction is emptiness of the
//! acceptance-reachability variant, and subsumption is inclusion via
//! product-with-complement over the shared alphabet.
//!
//! Guards (`incallstack`) are data-dependent and have no sound
//! closed-form here; automata containing guards are excluded from
//! these verdicts by the lint pass (see [`has_guards`]).

use crate::automaton::Automaton;
use crate::bitset::StateSet;
use crate::dfa::{explore, Dfa};
use crate::symbol::{SymbolId, SymbolKind};
use std::collections::{HashMap, VecDeque};

/// A complete deterministic finite automaton over an abstract column
/// alphabet `0..n_syms`: every state has exactly one successor per
/// column, so complement and product are total operations.
#[derive(Debug, Clone)]
pub struct CompleteDfa {
    /// Number of alphabet columns.
    pub n_syms: usize,
    /// Row-major successor table, read through [`CompleteDfa::next`].
    table: Vec<u32>,
    /// Start state.
    pub start: u32,
    /// Accepting states.
    pub accepting: Vec<bool>,
}

impl CompleteDfa {
    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.accepting.len()
    }

    /// The successor of `state` on `column` (always present: the DFA
    /// is complete).
    pub fn next(&self, state: u32, column: usize) -> u32 {
        self.table[state as usize * self.n_syms + column]
    }

    /// The successors of `state`, one per column.
    fn row(&self, state: u32) -> &[u32] {
        let base = state as usize * self.n_syms;
        &self.table[base..base + self.n_syms]
    }

    /// Run a word of column indices and report acceptance.
    pub fn accepts(&self, word: &[usize]) -> bool {
        let end = word.iter().fold(self.start, |s, &c| self.next(s, c));
        self.accepting[end as usize]
    }

    /// The same automaton with acceptance flipped: recognises exactly
    /// the complement language.
    pub fn complement(&self) -> CompleteDfa {
        CompleteDfa {
            accepting: self.accepting.iter().map(|a| !a).collect(),
            ..self.clone()
        }
    }

    /// Synchronized product: both automata consume each column in
    /// lock-step; a product state accepts iff `join` of the component
    /// acceptances holds (`&&` for intersection, `||` for union).
    /// Only product states reachable from the joint start are built.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets have different sizes — callers must
    /// align columns first (see [`union_alphabet`]).
    pub fn product(&self, other: &CompleteDfa, join: impl Fn(bool, bool) -> bool) -> CompleteDfa {
        assert_eq!(
            self.n_syms, other.n_syms,
            "product over mismatched alphabets"
        );
        let (pairs, table, _) = explore(
            (self.start, other.start),
            self.n_syms,
            usize::MAX,
            |&(x, y), c| Some((self.next(x, c), other.next(y, c))),
        )
        .expect("uncapped product construction completes");
        let accepting = pairs
            .iter()
            .map(|&(x, y)| join(self.accepting[x as usize], other.accepting[y as usize]))
            .collect();
        CompleteDfa {
            n_syms: self.n_syms,
            table,
            start: 0,
            accepting,
        }
    }

    /// States reachable from the start.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.n_states()];
        let mut queue = VecDeque::from([self.start]);
        seen[self.start as usize] = true;
        while let Some(s) = queue.pop_front() {
            for &t in self.row(s) {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    queue.push_back(t);
                }
            }
        }
        seen
    }

    /// Is the language empty (no accepting state reachable)?
    pub fn is_empty(&self) -> bool {
        self.find_accepted_word().is_none()
    }

    /// A shortest accepted word (BFS), or `None` if the language is
    /// empty. Used both for emptiness and as a witness for
    /// diagnostics.
    pub fn find_accepted_word(&self) -> Option<Vec<usize>> {
        let n = self.n_states();
        let mut parent: Vec<Option<(u32, usize)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([self.start]);
        seen[self.start as usize] = true;
        let mut hit = if self.accepting[self.start as usize] {
            Some(self.start)
        } else {
            None
        };
        'bfs: while let Some(s) = queue.pop_front() {
            for (c, &t) in self.row(s).iter().enumerate() {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    parent[t as usize] = Some((s, c));
                    if self.accepting[t as usize] {
                        hit = Some(t);
                        break 'bfs;
                    }
                    queue.push_back(t);
                }
            }
        }
        let mut word = Vec::new();
        let mut s = hit?;
        while let Some((p, c)) = parent[s as usize] {
            word.push(c);
            s = p;
        }
        word.reverse();
        Some(word)
    }

    /// Language inclusion via product-with-complement: does this
    /// automaton's language contain `other`'s? `L(other) ⊆ L(self)`
    /// iff `L(other) ∩ ¬L(self)` is empty.
    pub fn includes(&self, other: &CompleteDfa) -> bool {
        other.product(&self.complement(), |a, b| a && b).is_empty()
    }

    /// A word accepted by `other` but not by `self`, if any — the
    /// counterexample to [`CompleteDfa::includes`].
    pub fn inclusion_counterexample(&self, other: &CompleteDfa) -> Option<Vec<usize>> {
        other
            .product(&self.complement(), |a, b| a && b)
            .find_accepted_word()
    }

    /// Minimise with the initial partition derived from acceptance
    /// alone. See [`CompleteDfa::minimise_classes`].
    pub fn minimise(&self) -> (CompleteDfa, Vec<u32>) {
        let classes: Vec<u32> = self.accepting.iter().map(|&a| u32::from(a)).collect();
        self.minimise_classes(&classes)
    }

    /// Hopcroft-style minimisation: drop unreachable states, then
    /// refine the initial partition (states with equal `classes`
    /// values start in the same block) with a splitter worklist until
    /// no block is split by any (block, column) preimage.
    ///
    /// Returns the minimal DFA and a map from original state index to
    /// minimised state index (`u32::MAX` for unreachable originals).
    /// Two originals mapping to the same index are behaviourally
    /// indistinguishable.
    pub fn minimise_classes(&self, classes: &[u32]) -> (CompleteDfa, Vec<u32>) {
        let reach = self.reachable();
        let dense: Vec<u32> = {
            let mut next = 0;
            reach
                .iter()
                .map(|&r| {
                    if r {
                        next += 1;
                        next - 1
                    } else {
                        u32::MAX
                    }
                })
                .collect()
        };
        let orig: Vec<usize> = (0..self.n_states()).filter(|&i| reach[i]).collect();
        let n = orig.len();

        // Inverse transition table over the trimmed automaton:
        // inv[c][t] = sources with an edge on column c into t.
        let mut inv: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); n]; self.n_syms];
        for (di, &oi) in orig.iter().enumerate() {
            for (c, &t) in self.row(oi as u32).iter().enumerate() {
                inv[c][dense[t as usize] as usize].push(di as u32);
            }
        }

        // Initial partition by class value.
        let mut block_of: Vec<usize> = Vec::with_capacity(n);
        let mut blocks: Vec<Vec<u32>> = Vec::new();
        {
            let mut by_class: HashMap<u32, usize> = HashMap::new();
            for (di, &oi) in orig.iter().enumerate() {
                let b = *by_class.entry(classes[oi]).or_insert_with(|| {
                    blocks.push(Vec::new());
                    blocks.len() - 1
                });
                block_of.push(b);
                blocks[b].push(di as u32);
            }
        }

        // Splitter worklist: every (block, column) pair is a candidate
        // splitter initially; each split pushes the smaller half.
        let mut work: VecDeque<(usize, usize)> = (0..blocks.len())
            .flat_map(|b| (0..self.n_syms).map(move |c| (b, c)))
            .collect();
        while let Some((a, c)) = work.pop_front() {
            // Preimage of block `a` under column `c`.
            let mut pre: Vec<u32> = Vec::new();
            for &s in &blocks[a] {
                pre.extend_from_slice(&inv[c][s as usize]);
            }
            if pre.is_empty() {
                continue;
            }
            let mut in_pre = vec![false; n];
            for &s in &pre {
                in_pre[s as usize] = true;
            }
            // Find blocks cut by the preimage and split them.
            let mut touched: Vec<usize> = pre.iter().map(|&s| block_of[s as usize]).collect();
            touched.sort_unstable();
            touched.dedup();
            for y in touched {
                let (inside, outside): (Vec<u32>, Vec<u32>) =
                    blocks[y].iter().partition(|&&s| in_pre[s as usize]);
                if inside.is_empty() || outside.is_empty() {
                    continue;
                }
                // Keep the larger half in place, give the smaller a
                // new block id, and queue the smaller as a splitter.
                let (keep, moved) = if inside.len() <= outside.len() {
                    (outside, inside)
                } else {
                    (inside, outside)
                };
                let new_id = blocks.len();
                for &s in &moved {
                    block_of[s as usize] = new_id;
                }
                blocks[y] = keep;
                blocks.push(moved);
                for c2 in 0..self.n_syms {
                    work.push_back((new_id, c2));
                }
            }
        }

        // Rebuild, numbering blocks in order of first appearance over
        // the dense state walk so the result is deterministic and the
        // start lands on a stable index.
        let mut renum = vec![usize::MAX; blocks.len()];
        let mut order = Vec::new();
        for &b in &block_of[..n] {
            if renum[b] == usize::MAX {
                renum[b] = order.len();
                order.push(b);
            }
        }
        let n_blocks = order.len();
        let mut table = vec![0u32; n_blocks * self.n_syms];
        let mut accepting = vec![false; n_blocks];
        for (di, &oi) in orig.iter().enumerate() {
            let b = renum[block_of[di]];
            accepting[b] |= self.accepting[oi];
            for (c, &t) in self.row(oi as u32).iter().enumerate() {
                table[b * self.n_syms + c] = renum[block_of[dense[t as usize] as usize]] as u32;
            }
        }
        let map: Vec<u32> = (0..self.n_states())
            .map(|oi| {
                if reach[oi] {
                    renum[block_of[dense[oi] as usize]] as u32
                } else {
                    u32::MAX
                }
            })
            .collect();
        let start = map[self.start as usize];
        (
            CompleteDfa {
                n_syms: self.n_syms,
                table,
                start,
                accepting,
            },
            map,
        )
    }
}

/// Does any transition of `a` carry a guard? Guarded automata are
/// excluded from language-level lint verdicts: whether a guard holds
/// is data-dependent, so no sound "always"/"never" claim is possible.
pub fn has_guards(a: &Automaton) -> bool {
    a.transitions.iter().any(|t| t.guard.is_some())
}

/// Does `kind` alias one of the bound's own events (same function and
/// direction as «init» or «cleanup»)? Such a symbol cannot occur
/// strictly inside a non-recursive bound activation: the activation
/// starts immediately *after* the «init» event and ends *at* the
/// «cleanup» event.
pub fn aliases_bound(a: &Automaton, kind: &SymbolKind) -> bool {
    let SymbolKind::Function {
        name, direction, ..
    } = kind
    else {
        return false;
    };
    let b = &a.bound;
    (name == &b.start_fn && *direction == b.start_dir)
        || (name == &b.end_fn && *direction == b.end_dir)
}

/// The feasible body alphabet of `a`: every symbol kind except the
/// «init»/«cleanup» pseudo-symbols and bound-aliased function events
/// (see [`aliases_bound`]). The site symbol is included; it is the
/// distinguished column shared between automata when alphabets are
/// aligned. Order follows the automaton's symbol table.
pub fn body_alphabet(a: &Automaton) -> Vec<SymbolKind> {
    a.symbols
        .iter()
        .filter(|s| !matches!(s.kind, SymbolKind::BoundStart | SymbolKind::BoundEnd))
        .filter(|s| !aliases_bound(a, &s.kind))
        .map(|s| s.kind.clone())
        .collect()
}

/// The union of two automata's feasible body alphabets, deduplicated
/// by kind equality. Both automata's assertion sites are identified
/// as the single shared [`SymbolKind::Site`] column: subsumption
/// compares what each assertion *checks*, not where it is spelled.
pub fn union_alphabet(a: &Automaton, b: &Automaton) -> Vec<SymbolKind> {
    let mut alphabet = body_alphabet(a);
    for kind in body_alphabet(b) {
        if !alphabet.contains(&kind) {
            alphabet.push(kind);
        }
    }
    alphabet
}

/// One state of a [`Closure`]: the NFA subset an instance may occupy
/// plus the single-activation phase (has the site event happened?).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClosureState {
    /// NFA states (empty for the sink).
    pub set: StateSet,
    /// Has the assertion-site event been consumed?
    pub site_done: bool,
    /// Is this the failure sink?
    pub is_sink: bool,
}

/// The complete-DFA closure of one automaton over an explicit column
/// alphabet, under the within-bound word model described in the
/// module docs. `dfa.accepting` marks *pass* states: finalising the
/// instance there does not raise a violation.
#[derive(Debug, Clone)]
pub struct Closure<'a> {
    /// The automaton this closure interprets.
    pub automaton: &'a Automaton,
    /// Column kinds (the site column is [`SymbolKind::Site`]).
    pub alphabet: Vec<SymbolKind>,
    /// Index of the site column in `alphabet`.
    pub site_col: usize,
    /// The closure as a complete DFA; accepting = pass.
    pub dfa: CompleteDfa,
    /// Per closure state, does the subset contain an NFA-accepting
    /// state? (Acceptance reachability = "the assertion can complete
    /// its behaviour", the contradiction lint's criterion.)
    pub nfa_accepting: Vec<bool>,
    /// Book-keeping per DFA state.
    pub states: Vec<ClosureState>,
    /// Column → this automaton's symbol, `None` for foreign columns
    /// (which self-loop: the automaton never observes them).
    pub cols: Vec<Option<SymbolId>>,
}

impl<'a> Closure<'a> {
    /// Build the closure of `automaton` over `alphabet`.
    ///
    /// # Panics
    ///
    /// Panics if `alphabet` has no [`SymbolKind::Site`] column.
    pub fn build(automaton: &'a Automaton, alphabet: &[SymbolKind]) -> Closure<'a> {
        let site_col = alphabet
            .iter()
            .position(|k| matches!(k, SymbolKind::Site))
            .expect("closure alphabet must contain the site column");
        let cols: Vec<Option<SymbolId>> = alphabet
            .iter()
            .map(|kind| {
                automaton
                    .symbols
                    .iter()
                    .find(|s| &s.kind == kind)
                    .map(|s| s.id)
            })
            .collect();

        let sink = ClosureState {
            set: StateSet::EMPTY,
            site_done: false,
            is_sink: true,
        };
        let start = ClosureState {
            set: automaton.initial_states(),
            site_done: false,
            is_sink: false,
        };
        let step = |cur: &ClosureState, c: usize| {
            let is_site = c == site_col;
            // Self-loops keep the DFA complete: the sink absorbs, the
            // automaton never observes a foreign column, and a second
            // site visit is outside the single-activation word model.
            let Some(sym) = cols[c].filter(|_| !(cur.is_sink || (is_site && cur.site_done))) else {
                return Some(*cur);
            };
            let next = automaton.step(&cur.set, sym, |_| true);
            Some(if !next.is_empty() {
                ClosureState {
                    set: next,
                    site_done: cur.site_done || is_site,
                    is_sink: false,
                }
            } else if is_site || automaton.strict {
                sink
            } else {
                *cur
            })
        };
        let (states, table, _) = explore(start, alphabet.len(), usize::MAX, step)
            .expect("uncapped closure construction completes");
        let accepting: Vec<bool> = states
            .iter()
            .map(|s| !s.is_sink && automaton.finalise_ok(&s.set))
            .collect();
        let nfa_accepting: Vec<bool> = states
            .iter()
            .map(|s| !s.is_sink && automaton.accepting.intersects(&s.set))
            .collect();
        Closure {
            automaton,
            alphabet: alphabet.to_vec(),
            site_col,
            dfa: CompleteDfa {
                n_syms: alphabet.len(),
                table,
                start: 0,
                accepting,
            },
            nfa_accepting,
            states,
            cols,
        }
    }

    /// Project a column word onto this automaton's symbols, dropping
    /// foreign columns (the automaton never observes those events, so
    /// the projection is exactly what [`Automaton::simulate`] would
    /// see at run time).
    pub fn project(&self, word: &[usize]) -> Vec<SymbolId> {
        word.iter().filter_map(|&c| self.cols[c]).collect()
    }

    /// The closure with acceptance meaning "an NFA-accepting state is
    /// in the subset" instead of "finalising passes".
    pub fn acceptance_dfa(&self) -> CompleteDfa {
        CompleteDfa {
            accepting: self.nfa_accepting.clone(),
            ..self.dfa.clone()
        }
    }

    /// Vacuity: no word in the model can make the assertion fail —
    /// the complement of the pass language is empty.
    pub fn vacuous(&self) -> bool {
        self.dfa.complement().is_empty()
    }

    /// A shortest failing word, `None` when vacuous.
    pub fn failure_witness(&self) -> Option<Vec<usize>> {
        self.dfa.complement().find_accepted_word()
    }

    /// Contradiction: the assertion can never complete its behaviour
    /// inside the bound — the acceptance language is empty.
    pub fn contradictory(&self) -> bool {
        self.acceptance_dfa().is_empty()
    }

    /// A shortest word reaching an NFA-accepting subset, `None` when
    /// contradictory.
    pub fn acceptance_witness(&self) -> Option<Vec<usize>> {
        self.acceptance_dfa().find_accepted_word()
    }
}

/// How two assertion languages over their shared alphabet relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanguageRelation {
    /// Same pass language.
    Equal,
    /// `L(a) ⊋ L(b)`: `a` tolerates strictly more, so `a` is the
    /// weaker check — everything it can catch, `b` catches too.
    FirstWeaker,
    /// `L(b) ⊋ L(a)`.
    SecondWeaker,
    /// Neither contains the other.
    Incomparable,
}

/// Compare the pass languages of two automata over their union
/// alphabet. Returns `None` when no sound comparison is possible
/// (either automaton is guarded) or when the automata share no
/// concrete event kind (only the site column in common — two
/// assertions about disjoint events say nothing about each other).
pub fn compare_languages(a: &Automaton, b: &Automaton) -> Option<LanguageRelation> {
    if has_guards(a) || has_guards(b) {
        return None;
    }
    let alphabet = union_alphabet(a, b);
    let shared = body_alphabet(a);
    let b_alpha = body_alphabet(b);
    if !shared
        .iter()
        .any(|k| !matches!(k, SymbolKind::Site) && b_alpha.contains(k))
    {
        return None;
    }
    let ca = Closure::build(a, &alphabet);
    let cb = Closure::build(b, &alphabet);
    let a_incl_b = ca.dfa.includes(&cb.dfa);
    let b_incl_a = cb.dfa.includes(&ca.dfa);
    Some(match (a_incl_b, b_incl_a) {
        (true, true) => LanguageRelation::Equal,
        (true, false) => LanguageRelation::FirstWeaker,
        (false, true) => LanguageRelation::SecondWeaker,
        (false, false) => LanguageRelation::Incomparable,
    })
}

/// Groups of indistinguishable states of `d`, the DFA of `a` (each
/// group has ≥ 2 members, sorted): states with the same acceptance and
/// cleanup-safety whose successor structure cannot be told apart.
/// The subset construction of a well-factored assertion yields none;
/// duplicated branches (e.g. `a ^ a`, or an `||` arm repeated) do.
///
/// Indices refer to `d`'s states, matching the DOT renderer's
/// `s{i}` node names, so findings can be highlighted directly.
pub fn merge_groups(a: &Automaton, d: &Dfa) -> Vec<Vec<u32>> {
    let n = d.n_states();
    let n_syms = d.n_symbols();
    // Complete the partial DFA with an explicit dead sink at index n.
    let sink = n as u32;
    let mut table: Vec<u32> = (0..sink)
        .flat_map(|s| (0..n_syms as u32).map(move |c| d.next(s, SymbolId(c)).unwrap_or(sink)))
        .collect();
    table.resize(table.len() + n_syms, sink);
    let mut accepting: Vec<bool> = d.states.iter().map(|s| a.accepting.intersects(s)).collect();
    accepting.push(false);
    let complete = CompleteDfa {
        n_syms,
        table,
        start: d.start,
        accepting,
    };
    // Initial classes: (accepting, cleanup_safe), sink on its own.
    let mut classes: Vec<u32> = (0..n)
        .map(|i| u32::from(complete.accepting[i]) | (u32::from(a.finalise_ok(&d.states[i])) << 1))
        .collect();
    classes.push(4);
    let (_, map) = complete.minimise_classes(&classes);
    let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
    for (i, &m) in map.iter().enumerate().take(n) {
        if m != u32::MAX {
            groups.entry(m).or_default().push(i as u32);
        }
    }
    let mut out: Vec<Vec<u32>> = groups.into_values().filter(|g| g.len() >= 2).collect();
    out.sort();
    out
}

/// NFA states of `a` that appear in no reachable subset of its DFA:
/// unreachable under determinization. The spec compiler prunes these,
/// so any hit indicates a hand-built or corrupted manifest.
pub fn unreachable_states(a: &Automaton, d: &Dfa) -> Vec<u32> {
    (0..a.n_states)
        .filter(|&s| !d.states.iter().any(|set| set.contains(s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{compile, Verdict};
    use tesla_prop::{check, prop_assert, prop_assert_eq, prop_assert_ne};
    use tesla_spec::{call, AssertionBuilder, ExprBuilder};

    const SEED: u64 = 0xa7a1_7515;

    fn chain() -> Automaton {
        let a = AssertionBuilder::within("f")
            .previously(call("check").any("int").returns(0))
            .build()
            .unwrap();
        compile(&a).unwrap()
    }

    fn or_pair() -> Automaton {
        let a = AssertionBuilder::within("f")
            .previously(
                ExprBuilder::from(call("verify").any("int").returns(0))
                    .or(call("audit").any("int").returns(0)),
            )
            .build()
            .unwrap();
        compile(&a).unwrap()
    }

    fn vacuous_optional() -> Automaton {
        let a = AssertionBuilder::within("f")
            .previously(ExprBuilder::from(call("log").any("int").returns(0)).optional())
            .build()
            .unwrap();
        compile(&a).unwrap()
    }

    fn bound_aliased() -> Automaton {
        // The obligation is the bound function's own exit: infeasible
        // strictly inside one activation of `f`.
        let a = AssertionBuilder::within("f")
            .previously(call("f").any("int").returns(0))
            .build()
            .unwrap();
        compile(&a).unwrap()
    }

    fn xor_dup() -> Automaton {
        let a = AssertionBuilder::within("f")
            .previously(
                ExprBuilder::from(call("push").any("int").returns(1))
                    .xor(call("pop").any("int").returns(1)),
            )
            .build()
            .unwrap();
        compile(&a).unwrap()
    }

    #[test]
    fn complement_flips_acceptance() {
        let a = chain();
        let c = Closure::build(&a, &body_alphabet(&a));
        let comp = c.dfa.complement();
        for w in [vec![], vec![0], vec![0, 1], vec![1]] {
            assert_eq!(c.dfa.accepts(&w), !comp.accepts(&w), "{w:?}");
        }
    }

    #[test]
    fn product_intersects_languages() {
        let a = chain();
        let alphabet = body_alphabet(&a);
        let c = Closure::build(&a, &alphabet);
        let p = c.dfa.product(&c.dfa.complement(), |x, y| x && y);
        assert!(p.is_empty(), "L ∩ ¬L must be empty");
        let u = c.dfa.product(&c.dfa.complement(), |x, y| x || y);
        assert!(u.complement().is_empty(), "L ∪ ¬L must be everything");
    }

    #[test]
    fn includes_is_reflexive_and_detects_strictness() {
        let weak = or_pair();
        let strong = chain_named("verify");
        let alphabet = union_alphabet(&weak, &strong);
        let cw = Closure::build(&weak, &alphabet);
        let cs = Closure::build(&strong, &alphabet);
        assert!(cw.dfa.includes(&cw.dfa));
        assert!(
            cw.dfa.includes(&cs.dfa),
            "or-language contains single-event language"
        );
        assert!(!cs.dfa.includes(&cw.dfa));
        let cex = cs.dfa.inclusion_counterexample(&cw.dfa).unwrap();
        assert!(cw.dfa.accepts(&cex) && !cs.dfa.accepts(&cex));
    }

    fn chain_named(f: &str) -> Automaton {
        let a = AssertionBuilder::within("f")
            .previously(call(f).any("int").returns(0))
            .build()
            .unwrap();
        compile(&a).unwrap()
    }

    #[test]
    fn compare_languages_orders_or_against_chain() {
        assert_eq!(
            compare_languages(&or_pair(), &chain_named("verify")),
            Some(LanguageRelation::FirstWeaker)
        );
        assert_eq!(
            compare_languages(&chain_named("verify"), &or_pair()),
            Some(LanguageRelation::SecondWeaker)
        );
        assert_eq!(
            compare_languages(&chain_named("verify"), &chain_named("verify")),
            Some(LanguageRelation::Equal)
        );
        // Disjoint concrete alphabets: no verdict.
        assert_eq!(
            compare_languages(&chain_named("verify"), &chain_named("other")),
            None
        );
    }

    #[test]
    fn vacuity_verdicts() {
        assert!(Closure::build(&vacuous_optional(), &body_alphabet(&vacuous_optional())).vacuous());
        let a = chain();
        let c = Closure::build(&a, &body_alphabet(&a));
        assert!(!c.vacuous());
        // The witness really fails under the NFA semantics.
        let w = c.failure_witness().unwrap();
        let verdict = c.automaton.simulate(&c.project(&w));
        assert_ne!(verdict, Verdict::Accepted, "witness {w:?} should fail");
    }

    #[test]
    fn contradiction_verdicts() {
        let aliased = bound_aliased();
        let c = Closure::build(&aliased, &body_alphabet(&aliased));
        assert!(
            c.contradictory(),
            "bound-aliased obligation can never complete"
        );
        assert!(!c.vacuous(), "it still fails at the site");
        let healthy = chain();
        let ch = Closure::build(&healthy, &body_alphabet(&healthy));
        assert!(!ch.contradictory());
        assert!(ch.acceptance_witness().is_some());
    }

    #[test]
    fn body_alphabet_excludes_bound_aliases() {
        let a = bound_aliased();
        let alphabet = body_alphabet(&a);
        assert_eq!(
            alphabet.len(),
            1,
            "only the site column remains: {alphabet:?}"
        );
        assert!(matches!(alphabet[0], SymbolKind::Site));
        let b = chain();
        assert_eq!(body_alphabet(&b).len(), 2);
    }

    #[test]
    fn merge_groups_flags_duplicated_xor_branch_states() {
        let d = Dfa::from_automaton(&xor_dup());
        // xor introduces two alternative one-event paths whose
        // post-event states are indistinguishable.
        let groups = merge_groups(&xor_dup(), &d);
        assert!(!groups.is_empty(), "xor duplicate states should merge");
        assert!(groups.iter().all(|g| g.len() >= 2));
    }

    #[test]
    fn merge_groups_clean_on_chain_and_or() {
        for a in [chain(), or_pair()] {
            let d = Dfa::from_automaton(&a);
            assert!(merge_groups(&a, &d).is_empty(), "{}", a.name);
        }
    }

    #[test]
    fn unreachable_states_empty_for_compiled_automata() {
        for a in [chain(), or_pair(), xor_dup(), vacuous_optional()] {
            let d = Dfa::from_automaton(&a);
            assert!(unreachable_states(&a, &d).is_empty());
        }
    }

    #[test]
    fn minimise_collapses_sink_free_redundancy() {
        let a = xor_dup();
        let c = Closure::build(&a, &body_alphabet(&a));
        let (m, map) = c.dfa.minimise();
        assert!(m.n_states() < c.dfa.n_states());
        assert_eq!(map[c.dfa.start as usize], m.start);
    }

    fn shapes() -> Vec<Automaton> {
        vec![
            chain(),
            or_pair(),
            vacuous_optional(),
            bound_aliased(),
            xor_dup(),
        ]
    }

    /// A word after which `p` and `q` end in states of different
    /// `classes`: an accepted word of the product of `m` rooted at `p`
    /// with `m` rooted at `q`, accepting where exactly one side ends in
    /// class `k`, for some class `k`.
    fn separating_word(m: &CompleteDfa, classes: &[u32], p: u32, q: u32) -> Option<Vec<usize>> {
        let mut values = classes.to_vec();
        values.sort_unstable();
        values.dedup();
        values.into_iter().find_map(|k| {
            let rooted = |start| CompleteDfa {
                start,
                accepting: classes.iter().map(|&c| c == k).collect(),
                ..m.clone()
            };
            rooted(p)
                .product(&rooted(q), |a, b| a != b)
                .find_accepted_word()
        })
    }

    /// Closure acceptance ⟺ NFA simulation, over single-site
    /// words of the feasible alphabet.
    #[test]
    fn closure_agrees_with_simulate() {
        check(
            64,
            SEED,
            |g| {
                let which = g.range(0usize..5);
                let raw = g.vec(0..10, |g| g.range(0usize..4));
                (which, raw, g.option(|g| g.range(0usize..10)))
            },
            |(which, raw, site_at)| {
                let a = &shapes()[which];
                let alphabet = body_alphabet(a);
                let c = Closure::build(a, &alphabet);
                // Build a word: non-site columns from `raw`, with at most
                // one site insertion.
                let non_site: Vec<usize> =
                    (0..alphabet.len()).filter(|&i| i != c.site_col).collect();
                let mut word: Vec<usize> = raw
                    .iter()
                    .filter_map(|&r| non_site.get(r % non_site.len().max(1)).copied())
                    .collect();
                if let Some(at) = site_at {
                    word.insert(at.min(word.len()), c.site_col);
                }
                let nfa = a.simulate(&c.project(&word));
                prop_assert_eq!(
                    c.dfa.accepts(&word),
                    nfa == Verdict::Accepted,
                    "word {:?} → {:?}",
                    word,
                    nfa
                );
                Ok(())
            },
        );
    }

    /// Hopcroft minimisation preserves the language.
    #[test]
    fn minimised_dfa_is_language_equivalent() {
        check(
            64,
            SEED,
            |g| (g.range(0usize..5), g.vec(0..12, |g| g.range(0usize..4))),
            |(which, word)| {
                let a = &shapes()[which];
                let c = Closure::build(a, &body_alphabet(a));
                let (m, _) = c.dfa.minimise();
                prop_assert!(m.n_states() <= c.dfa.n_states());
                let word: Vec<usize> = word.into_iter().map(|w| w % c.dfa.n_syms.max(1)).collect();
                prop_assert_eq!(c.dfa.accepts(&word), m.accepts(&word));
                Ok(())
            },
        );
    }

    /// Hopcroft's output is minimal: every block keeps one class,
    /// and any two blocks are told apart by some word whose end
    /// states' classes differ, so no two could be merged. The
    /// partition (pass, completes) has up to four classes.
    #[test]
    fn minimised_states_are_pairwise_distinguishable() {
        check(
            64,
            SEED,
            |g| g.range(0usize..5),
            |which| {
                let a = &shapes()[which];
                let c = Closure::build(a, &body_alphabet(a));
                let classes: Vec<u32> = (0..c.dfa.n_states())
                    .map(|s| u32::from(c.dfa.accepting[s]) | (u32::from(c.nfa_accepting[s]) << 1))
                    .collect();
                let (m, map) = c.dfa.minimise_classes(&classes);
                let mut block_class = vec![None; m.n_states()];
                for (s, &b) in map.iter().enumerate().filter(|&(_, &b)| b != u32::MAX) {
                    let class = *block_class[b as usize].get_or_insert(classes[s]);
                    prop_assert_eq!(class, classes[s], "block {} mixes classes", b);
                }
                let block_class: Vec<u32> = block_class.into_iter().map(Option::unwrap).collect();
                for p in 0..m.n_states() as u32 {
                    for q in p + 1..m.n_states() as u32 {
                        let w = separating_word(&m, &block_class, p, q);
                        prop_assert!(w.is_some(), "blocks {} and {} are indistinguishable", p, q);
                        let end = |s| w.iter().flatten().fold(s, |s, &col| m.next(s, col));
                        prop_assert_ne!(block_class[end(p) as usize], block_class[end(q) as usize]);
                    }
                }
                Ok(())
            },
        );
    }
}
