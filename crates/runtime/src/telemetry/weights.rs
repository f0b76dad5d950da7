//! Dense, lock-free transition-weight tables.
//!
//! Fig. 9's weighted graphs need a `(class, source states, symbol) →
//! count` aggregate. The first implementation kept it in one global
//! `Mutex<HashMap>`, which reintroduced a shared lock on every state
//! update and undid the contention-free dispatch work. This version
//! gives each class a dense `rows × symbols` matrix of `AtomicU64`
//! cells whose rows are the states of the class's own [`Dfa`]:
//!
//! * the engine's registry builds a class's table on the DFA its
//!   instances step on (`ClassDef::compiled`), so an update out of
//!   row `r` is counted at cell `(r, sym)` with one relaxed
//!   `fetch_add` and no lookup;
//! * a class without a runtime DFA (guarded, or past
//!   `MAX_DFA_STATES`), and every class of a registry attached as a
//!   handler, gets one [`Dfa::from_automaton`], whose breadth-first
//!   numbering is the same;
//! * a source given as a state set (an interpreted class's state, a
//!   dedup union, or the `from_states` of an event an attached
//!   registry decodes) finds its row through [`Dfa::resolve`], one
//!   fold-hash lookup.
//!
//! Row ids are the DFA state ids `automata::dot` renders, so a table
//! is directly a [`WeightSource`].
//!
//! Keys with no row still happen: events observed before any
//! registration (standalone handler use), state sets produced by
//! *merging* duplicate-binding clones (`union_with` in the store can
//! build a set that is not a reachable DFA state), and the
//! guard-narrowed sets of an interpreted class. Those fall through to
//! a small striped map — cold by construction, and exact.

use crate::locks;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tesla_automata::dot::WeightSource;
use tesla_automata::{Automaton, Dfa, FoldHasher, StateSet, SymbolId};

/// Classes with ids below this keep their tables in a dense slot
/// array (readers pay one atomic load); beyond it (rare — a class is
/// one registered assertion) the tables live in a locked map and stay
/// exact, just slower.
pub const MAX_DENSE_CLASSES: usize = 1024;

const SPILL_STRIPES: usize = 16;

/// One class's dense transition-count matrix, indexed by the states
/// of the class's [`Dfa`] (so row ids are DOT state ids).
pub struct ClassWeights {
    dfa: Arc<Dfa>,
    cells: Box<[AtomicU64]>,
}

impl ClassWeights {
    /// The (zeroed) matrix whose rows are `dfa`'s states.
    pub fn new(dfa: Arc<Dfa>) -> ClassWeights {
        let cells = (0..dfa.n_states() * dfa.n_symbols())
            .map(|_| AtomicU64::new(0))
            .collect();
        ClassWeights { dfa, cells }
    }

    /// Number of DFA states (matrix rows).
    pub fn n_states(&self) -> usize {
        self.dfa.n_states()
    }

    /// Number of symbols (matrix columns).
    pub fn n_symbols(&self) -> usize {
        self.dfa.n_symbols()
    }

    #[inline]
    fn cell(&self, row: u32, sym: u32) -> Option<&AtomicU64> {
        let n_syms = self.dfa.n_symbols();
        if (sym as usize) < n_syms {
            self.cells.get(row as usize * n_syms + sym as usize)
        } else {
            None
        }
    }

    /// Count one firing of `sym` out of DFA row `row`. Returns `false`
    /// when the cell is outside the table (caller spills).
    #[inline]
    pub fn record_row(&self, row: u32, sym: SymbolId) -> bool {
        match self.cell(row, sym.0) {
            Some(c) => {
                c.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Count one firing of `sym` out of the exact state set `from`.
    /// Returns `false` when `from` is no DFA state (caller spills).
    #[inline]
    pub fn record(&self, from: &StateSet, sym: SymbolId) -> bool {
        self.dfa
            .resolve(from)
            .is_some_and(|row| self.record_row(row, sym))
    }

    /// Weight of the `row --sym-->` edge (row = DFA/DOT state id).
    pub fn get(&self, row: u32, sym: u32) -> u64 {
        self.cell(row, sym).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Dense count for an exact source state set, if it is a row.
    pub fn count_from(&self, from: &StateSet, sym: SymbolId) -> Option<u64> {
        self.dfa.resolve(from).map(|row| self.get(row, sym.0))
    }

    /// Sum of every cell — the class's dense transition count.
    pub fn total(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// All non-zero cells as `(row, symbol, count)`.
    pub fn nonzero(&self) -> Vec<(u32, u32, u64)> {
        let n_syms = self.dfa.n_symbols();
        let mut out = Vec::new();
        for (i, c) in self.cells.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n > 0 {
                out.push(((i / n_syms) as u32, (i % n_syms) as u32, n));
            }
        }
        out
    }
}

/// Live transition weights are directly renderable: the dense row ids
/// are the DFA state ids `automata::dot` queries.
impl WeightSource for ClassWeights {
    fn weight(&self, from: u32, sym: u32) -> u64 {
        self.get(from, sym)
    }
}

type SpillKey = (u32, StateSet, SymbolId);

/// The full per-class weight store: tables installed at registration,
/// in `OnceLock` slots for the first [`MAX_DENSE_CLASSES`] ids and in
/// a locked map beyond them, plus the striped exact-spillover map.
pub struct TransitionWeights {
    dense: Box<[OnceLock<Arc<ClassWeights>>]>,
    /// Tables of the classes from [`MAX_DENSE_CLASSES`] up, by id.
    cold: Mutex<BTreeMap<u32, Arc<ClassWeights>>>,
    spill: Box<[Mutex<HashMap<SpillKey, u64>>]>,
}

impl Default for TransitionWeights {
    fn default() -> TransitionWeights {
        TransitionWeights::new()
    }
}

impl TransitionWeights {
    /// New, empty store.
    pub fn new() -> TransitionWeights {
        TransitionWeights {
            dense: (0..MAX_DENSE_CLASSES).map(|_| OnceLock::new()).collect(),
            cold: Mutex::new(BTreeMap::new()),
            spill: (0..SPILL_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// Install the table for `class` (idempotent; the first
    /// registration wins). Its rows are `dfa`'s, the DFA the class's
    /// instances step on, when it has one; otherwise the class gets
    /// one [`Dfa::from_automaton`]. Called at class registration —
    /// cold path.
    pub fn register(&self, class: u32, automaton: &Automaton, dfa: Option<&Arc<Dfa>>) {
        let table = || {
            let dfa = dfa.map_or_else(|| Arc::new(Dfa::from_automaton(automaton)), Arc::clone);
            Arc::new(ClassWeights::new(dfa))
        };
        match self.dense.get(class as usize) {
            Some(slot) => {
                slot.get_or_init(table);
            }
            None => {
                locks::lock(&self.cold).entry(class).or_insert_with(table);
            }
        }
    }

    /// The table for `class`, if registered — this is the
    /// [`WeightSource`] for rendering that class's weighted graph.
    pub fn class(&self, class: u32) -> Option<Arc<ClassWeights>> {
        match self.dense.get(class as usize) {
            Some(slot) => slot.get().cloned(),
            None => locks::lock(&self.cold).get(&class).cloned(),
        }
    }

    /// Run `f` on `class`'s table, if registered. A dense id is one
    /// atomic load and clones no `Arc`; a cold id takes the map's
    /// lock.
    #[inline]
    fn with_table<R>(&self, class: u32, f: impl FnOnce(&ClassWeights) -> R) -> Option<R> {
        match self.dense.get(class as usize) {
            Some(slot) => slot.get().map(|cw| f(cw)),
            None => self.class(class).map(|cw| f(&cw)),
        }
    }

    fn stripe(key: &SpillKey) -> usize {
        let mut h = FoldHasher::default();
        key.hash(&mut h);
        h.finish() as usize % SPILL_STRIPES
    }

    /// Count one transition out of DFA row `row` of `class`'s table:
    /// one relaxed add, no lookup. Returns `false` when `class` has no
    /// table or the cell is outside it (caller counts the row's state
    /// set instead).
    #[inline]
    pub fn record_row(&self, class: u32, row: u32, sym: SymbolId) -> bool {
        self.with_table(class, |cw| cw.record_row(row, sym)) == Some(true)
    }

    /// Count one transition out of the exact state set `from`: its
    /// table row when the class's DFA has the set, else the striped
    /// map.
    #[inline]
    pub fn record(&self, class: u32, from: &StateSet, sym: SymbolId) {
        if self.with_table(class, |cw| cw.record(from, sym)) == Some(true) {
            return;
        }
        let key = (class, *from, sym);
        *locks::lock(&self.spill[Self::stripe(&key)])
            .entry(key)
            .or_insert(0) += 1;
    }

    /// Exact count for `(class, from, sym)` — dense plus spillover
    /// (events recorded before the class registered land in the
    /// spillover and are still included).
    pub fn count(&self, class: u32, from: &StateSet, sym: SymbolId) -> u64 {
        let dense = self
            .with_table(class, |cw| cw.count_from(from, sym))
            .flatten()
            .unwrap_or(0);
        let key = (class, *from, sym);
        let spilled = locks::lock(&self.spill[Self::stripe(&key)])
            .get(&key)
            .copied()
            .unwrap_or(0);
        dense + spilled
    }

    /// Sum of counts for `class` on `sym` over all source state sets.
    pub fn symbol_count(&self, class: u32, sym: SymbolId) -> u64 {
        let mut total = 0;
        if let Some(cw) = self.class(class) {
            for row in 0..cw.n_states() as u32 {
                total += cw.get(row, sym.0);
            }
        }
        for stripe in self.spill.iter() {
            total += locks::lock(stripe)
                .iter()
                .filter(|((c, _, s), _)| *c == class && *s == sym)
                .map(|(_, n)| *n)
                .sum::<u64>();
        }
        total
    }

    /// Every transition recorded for `class` — dense plus spillover.
    /// One weight lands per `Update` event, so this is also the
    /// class's exact update count.
    pub fn class_total(&self, class: u32) -> u64 {
        let mut total = self.class(class).map_or(0, |cw| cw.total());
        for stripe in self.spill.iter() {
            total += locks::lock(stripe)
                .iter()
                .filter(|((c, _, _), _)| *c == class)
                .map(|(_, n)| *n)
                .sum::<u64>();
        }
        total
    }

    /// Every transition recorded across all classes (the global
    /// update count).
    pub fn grand_total(&self) -> u64 {
        let mut total: u64 = self
            .dense
            .iter()
            .filter_map(OnceLock::get)
            .map(|cw| cw.total())
            .sum();
        total += locks::lock(&self.cold)
            .values()
            .map(|cw| cw.total())
            .sum::<u64>();
        for stripe in self.spill.iter() {
            total += locks::lock(stripe).values().sum::<u64>();
        }
        total
    }

    /// Symbols of `class` that fired at least once, sorted.
    pub fn covered_symbols(&self, class: u32) -> Vec<SymbolId> {
        let mut syms: Vec<SymbolId> = Vec::new();
        if let Some(cw) = self.class(class) {
            for (_, sym, _) in cw.nonzero() {
                syms.push(SymbolId(sym));
            }
        }
        for stripe in self.spill.iter() {
            syms.extend(
                locks::lock(stripe)
                    .keys()
                    .filter(|(c, _, _)| *c == class)
                    .map(|(_, _, s)| *s),
            );
        }
        syms.sort_unstable();
        syms.dedup();
        syms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_automata::compile;
    use tesla_spec::{call, AssertionBuilder};

    fn automaton() -> Automaton {
        let a = AssertionBuilder::within("req")
            .previously(call("check").arg_var("x").returns(0))
            .build()
            .unwrap();
        compile(&a).unwrap()
    }

    #[test]
    fn dense_and_spill_counts_sum_exactly() {
        let w = TransitionWeights::new();
        let a = automaton();
        let start = a.initial_states();
        let sym = a.site_sym;
        // Before registration: spills.
        w.record(0, &start, sym);
        w.register(0, &a, None);
        // After registration: dense.
        w.record(0, &start, sym);
        w.record(0, &start, sym);
        assert_eq!(w.count(0, &start, sym), 3);
        assert_eq!(w.symbol_count(0, sym), 3);
        assert_eq!(w.covered_symbols(0), vec![sym]);
        // The dense table alone holds only the post-registration hits,
        // in DFA row 0 (the start state is BFS-first).
        let cw = w.class(0).unwrap();
        assert_eq!(cw.get(0, sym.0), 2);
    }

    #[test]
    fn unindexed_state_sets_spill_exactly() {
        let w = TransitionWeights::new();
        let a = automaton();
        w.register(0, &a, None);
        // A merged (non-DFA) state set.
        let mut merged = StateSet::singleton(0);
        merged.insert(a.n_states.saturating_sub(1));
        merged.insert(1);
        let sym = a.site_sym;
        w.record(0, &merged, sym);
        assert_eq!(w.count(0, &merged, sym), 1);
    }
}
