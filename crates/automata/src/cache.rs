//! Shared automaton compile cache (§7).
//!
//! The paper's toolchain "re-load\[s\], re-pars\[es\], and re-interpret\[s\]
//! the same TESLA automaton description for every LLVM IR file it
//! instruments" — with 85 assertions and 20 units that is 1 700
//! automaton compilations per build where 85 would do. This module is
//! the fix the paper sketches but never built: assertions are compiled
//! to [`Automaton`] classes **once per content fingerprint** and
//! shared by `Arc` across every compilation unit, every incremental
//! rebuild, and every thread of the parallel back-end.
//!
//! The cache key is [`ManifestEntry::content_fingerprint`] — an
//! FNV-1a hash of the assertion's structure, fed through its derived
//! `Hash` and deterministic within the process (see
//! [`Fnv64`](crate::Fnv64)) — so an edited assertion recompiles
//! exactly itself while every untouched assertion is a pointer copy.
//! Compilation runs *outside* the map lock: concurrent instrumentation
//! threads never serialise on each other's compiles, and a racing
//! duplicate compile is resolved by first-insert-wins (both results
//! are identical by construction).

use crate::automaton::{compile, Automaton};
use crate::dfa::Dfa;
use crate::manifest::{Manifest, ManifestEntry};
use crate::CompileError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lock a memo table, poisoned or not. Each critical section is one
/// probe or one first-insert-wins insert of a finished value, so a
/// thread that panicked while holding the lock left the table whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An automaton paired with the DFA the runtime steps it on, `None`
/// outside that fragment ([`Dfa::build`]).
type WithDfa = (Arc<Automaton>, Option<Arc<Dfa>>);

/// A memo table from assertion content fingerprints to compiled
/// automata. Cheap to share (`Arc<CompileCache>`), safe to call from
/// many threads.
#[derive(Debug, Default)]
pub struct CompileCache {
    map: Mutex<HashMap<u64, Arc<Automaton>>>,
    /// [`Dfa::build`] results keyed by the same fingerprint.
    /// `Some(None)` records "this automaton has no runtime DFA" so
    /// repeated registrations skip re-running subset construction
    /// just to fail again.
    dfa_map: Mutex<HashMap<u64, Option<Arc<Dfa>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Compile `entry`'s assertion, or return the shared compiled form
    /// if an identical assertion was compiled before.
    ///
    /// # Errors
    ///
    /// Returns the [`CompileError`] tagged with the assertion name,
    /// matching [`Manifest::compile_all`]. Failures are not cached:
    /// they are cheap to reproduce and keep the table small.
    pub fn get_or_compile(
        &self,
        entry: &ManifestEntry,
    ) -> Result<Arc<Automaton>, (String, CompileError)> {
        self.get_or_compile_keyed(entry.content_fingerprint(), entry)
    }

    /// [`CompileCache::get_or_compile`] under a precomputed `key`.
    fn get_or_compile_keyed(
        &self,
        key: u64,
        entry: &ManifestEntry,
    ) -> Result<Arc<Automaton>, (String, CompileError)> {
        if let Some(a) = lock(&self.map).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(a));
        }
        // Compile outside the lock: automaton construction (NFA
        // lowering, cross-products, cleanup-safe analysis) is the
        // expensive part and must not serialise other threads.
        let automaton =
            Arc::new(compile(&entry.assertion).map_err(|e| (entry.assertion.name.clone(), e))?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = lock(&self.map);
        Ok(Arc::clone(map.entry(key).or_insert(automaton)))
    }

    /// Compile every entry of `manifest`, sharing previously compiled
    /// automata. The result is positionally aligned with
    /// `manifest.entries` — index *i* is runtime class *i*, exactly as
    /// in [`Manifest::compile_all`].
    ///
    /// # Errors
    ///
    /// Returns the first compile failure, tagged with its assertion
    /// name.
    pub fn compile_manifest(
        &self,
        manifest: &Manifest,
    ) -> Result<Vec<Arc<Automaton>>, (String, CompileError)> {
        manifest
            .entries
            .iter()
            .map(|e| self.get_or_compile(e))
            .collect()
    }

    /// Compile `entry`'s automaton *and* its runtime [`Dfa`] (when one
    /// exists), both memoised by content fingerprint. The DFA's `None`
    /// outcome (guards / state blow-up) is memoised too, so
    /// re-registering such an automaton costs one map probe, not a
    /// subset construction.
    ///
    /// # Errors
    ///
    /// As [`CompileCache::get_or_compile`].
    pub fn get_or_compile_with_dfa(
        &self,
        entry: &ManifestEntry,
    ) -> Result<WithDfa, (String, CompileError)> {
        let key = entry.content_fingerprint();
        let automaton = self.get_or_compile_keyed(key, entry)?;
        if let Some(d) = lock(&self.dfa_map).get(&key) {
            return Ok((automaton, d.clone()));
        }
        // Subset construction outside the lock, first-insert-wins —
        // same discipline as the automaton map.
        let dfa = Dfa::build(&automaton).map(Arc::new);
        let mut map = lock(&self.dfa_map);
        Ok((automaton, map.entry(key).or_insert(dfa).clone()))
    }

    /// [`CompileCache::compile_manifest`], with each automaton paired
    /// with its memoised runtime [`Dfa`] (or `None` for automata
    /// outside that fragment). Positionally aligned with
    /// `manifest.entries`.
    ///
    /// # Errors
    ///
    /// Returns the first compile failure, tagged with its assertion
    /// name.
    pub fn compile_manifest_with_dfas(
        &self,
        manifest: &Manifest,
    ) -> Result<Vec<WithDfa>, (String, CompileError)> {
        manifest
            .entries
            .iter()
            .map(|e| self.get_or_compile_with_dfa(e))
            .collect()
    }

    /// Cache lookups that found an existing automaton.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct compiled automata retained.
    pub fn len(&self) -> usize {
        lock(&self.map).len()
    }

    /// True when nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_spec::{call, AssertionBuilder};

    fn manifest_with(n: usize) -> Manifest {
        let mut m = Manifest::new();
        for i in 0..n {
            let a = AssertionBuilder::syscall()
                .named(&format!("a{i}"))
                .previously(call("check").arg_var("x").returns(0))
                .build()
                .unwrap();
            m.push(&format!("u{i}.c"), a);
        }
        m
    }

    #[test]
    fn second_compile_is_a_hit_and_shares_storage() {
        let cache = CompileCache::new();
        let m = manifest_with(1);
        let a1 = cache.get_or_compile(&m.entries[0]).unwrap();
        let a2 = cache.get_or_compile(&m.entries[0]).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn compile_manifest_matches_compile_all() {
        let cache = CompileCache::new();
        let m = manifest_with(3);
        let shared = cache.compile_manifest(&m).unwrap();
        let owned = m.compile_all().unwrap();
        assert_eq!(shared.len(), owned.len());
        for (s, o) in shared.iter().zip(&owned) {
            assert_eq!(s.name, o.name);
            assert_eq!(s.n_states, o.n_states);
            assert_eq!(s.transitions, o.transitions);
        }
        // Re-running the whole manifest is all hits.
        cache.compile_manifest(&m).unwrap();
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn distinct_assertions_get_distinct_slots() {
        let cache = CompileCache::new();
        let m = manifest_with(2);
        let a = cache.get_or_compile(&m.entries[0]).unwrap();
        let b = cache.get_or_compile(&m.entries[1]).unwrap();
        // Different names → different content → different automata.
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn dfa_memoisation_shares_matrices() {
        let cache = CompileCache::new();
        let m = manifest_with(1);
        let (a1, d1) = cache.get_or_compile_with_dfa(&m.entries[0]).unwrap();
        let (a2, d2) = cache.get_or_compile_with_dfa(&m.entries[0]).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        let (d1, d2) = (d1.expect("guard-free"), d2.expect("guard-free"));
        assert!(Arc::ptr_eq(&d1, &d2));
        assert!(d1.n_states() >= 2);
    }

    #[test]
    fn concurrent_compiles_converge() {
        let cache = Arc::new(CompileCache::new());
        let m = Arc::new(manifest_with(8));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..8 {
                        cache.compile_manifest(&m).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 8);
        // Racing first-compiles may duplicate work, but the table
        // keeps one automaton per fingerprint and later rounds hit.
        assert!(cache.hits() >= 8 * 4 * 8 - 8 * 4);
    }
}
