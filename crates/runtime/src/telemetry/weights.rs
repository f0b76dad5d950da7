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
//! A table belongs to its class's record in the metrics registry
//! ([`crate::telemetry::ClassMetrics::weights`]), installed at
//! registration. Keys with no row still happen: events observed
//! before any registration (standalone handler use), state sets
//! produced by *merging* duplicate-binding clones (`union_with` in the
//! store can build a set that is not a reachable DFA state), and the
//! guard-narrowed sets of an interpreted class. Those fall through to
//! the same record's spill map — cold by construction, and exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tesla_automata::dot::WeightSource;
use tesla_automata::{Dfa, StateSet, SymbolId};

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
