//! `.tesla` manifests (§4.1): the assertions of a compilation unit,
//! and their program-wide merge.
//!
//! The paper's analyser writes parsed assertions to disk as automaton
//! descriptions, "formatted using Google Protocol Buffers", one
//! `.tesla` file per compilation unit; these are then *combined into a
//! larger file describing all parts of the program that may need
//! instrumentation*. This module holds the in-memory manifest and the
//! merge; the on-disk text (versioned JSONL, see DESIGN.md) is written
//! and read by the `tesla` crate's `manifest` module, which owns the
//! line reader that format shares with traces and baselines. The
//! workflow is the paper's, including its awkward consequence:
//! because assertions in any file can name events defined in any
//! other file, a change to one source file changes the combined
//! manifest and forces re-instrumentation of *every* IR file (§5.1,
//! fig. 10).

use crate::automaton::{compile, Automaton};
use crate::CompileError;
use std::hash::{Hash, Hasher};
use tesla_spec::Assertion;

/// Streaming FNV-1a hasher — the content-fingerprint primitive used
/// by manifests, the automaton compile cache, and the pipeline's
/// object-cache keys.
///
/// As a [`Hasher`] it takes any value's derived [`Hash`] directly, so a
/// fingerprint walks the value's structure instead of serialising it
/// first. Fingerprints are deterministic within one process but not
/// across platforms or compiler versions (derived `Hash` feeds
/// native-endian integers and length prefixes). That is all they need:
/// no fingerprint leaves the process. Their users are the
/// compile-cache key, the pipeline's per-unit delta key and its
/// source fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    /// Fold bytes into the state.
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The accumulated fingerprint.
    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over a byte string in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// One assertion as stored in a manifest, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// The source file (compilation unit) the assertion came from.
    pub source_file: String,
    /// The assertion itself.
    pub assertion: Assertion,
}

impl ManifestEntry {
    /// Content fingerprint of the *assertion* (not the provenance
    /// file): two entries with equal fingerprints compile to identical
    /// automata. This is the key of the shared
    /// [`CompileCache`](crate::CompileCache). It hashes the
    /// assertion's structure through [`Fnv64`]; see there for what the
    /// value promises.
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        self.assertion.hash(&mut h);
        h.finish()
    }
}

/// A `.tesla` manifest: the automata descriptions extracted from one
/// compilation unit, or (after [`Manifest::merge`]) a whole program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// The assertions, in deterministic order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// An empty manifest.
    pub fn new() -> Manifest {
        Manifest::default()
    }

    /// Add an assertion extracted from `source_file`.
    pub fn push(&mut self, source_file: &str, assertion: Assertion) {
        self.entries.push(ManifestEntry {
            source_file: source_file.to_string(),
            assertion,
        });
    }

    /// Combine per-unit manifests into a program-wide manifest.
    /// Deterministic: entries are sorted by (file, assertion name,
    /// line) and duplicates dropped.
    pub fn merge(manifests: &[Manifest]) -> Manifest {
        Manifest::merge_refs(&manifests.iter().collect::<Vec<_>>())
    }

    /// [`Manifest::merge`] over borrowed manifests — the incremental
    /// pipeline merges the cached per-unit manifests whenever one of
    /// them changes, and should not have to clone each `Manifest`
    /// wholesale first.
    pub fn merge_refs(manifests: &[&Manifest]) -> Manifest {
        let mut entries: Vec<ManifestEntry> = manifests
            .iter()
            .flat_map(|m| m.entries.iter().cloned())
            .collect();
        entries.sort_by(|a, b| {
            (&a.source_file, &a.assertion.name, a.assertion.loc.line).cmp(&(
                &b.source_file,
                &b.assertion.name,
                b.assertion.loc.line,
            ))
        });
        entries.dedup();
        Manifest { entries }
    }

    /// Compile every assertion to its automaton class.
    ///
    /// # Errors
    ///
    /// Returns the first [`CompileError`], tagged with the assertion
    /// name.
    pub fn compile_all(&self) -> Result<Vec<Automaton>, (String, CompileError)> {
        self.entries
            .iter()
            .map(|e| compile(&e.assertion).map_err(|err| (e.assertion.name.clone(), err)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_spec::{
        call, ArgPattern, AssertionBuilder, CallKind, Context, EventExpr, Expr, StaticEvent, Value,
    };

    fn sample() -> Assertion {
        AssertionBuilder::syscall()
            .named("mac_poll")
            .previously(
                call("mac_socket_check_poll")
                    .any_ptr()
                    .arg_var("so")
                    .returns(0),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn merge_is_deterministic_and_dedups() {
        let mut a = Manifest::new();
        a.push("b.c", sample());
        let mut b = Manifest::new();
        b.push("a.c", sample());
        b.push("b.c", sample()); // duplicate of a's entry
        let m1 = Manifest::merge(&[a.clone(), b.clone()]);
        let m2 = Manifest::merge(&[b, a]);
        assert_eq!(m1, m2);
        assert_eq!(m1.entries.len(), 2);
        assert_eq!(m1.entries[0].source_file, "a.c");
    }

    #[test]
    fn compile_all_and_plan() {
        let mut m = Manifest::new();
        m.push("kern.c", sample());
        let autos = m.compile_all().unwrap();
        assert_eq!(autos.len(), 1);
        // The functions the weave plan hooks for this assertion.
        let targets: Vec<String> = autos[0]
            .instrumentation_targets()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert!(targets.iter().any(|n| n == "mac_socket_check_poll"));
        assert!(targets.iter().any(|n| n == "amd64_syscall"));
    }

    /// The `mac_socket_check_poll(ANY(ptr), so) == 0` event of
    /// [`sample`]: its argument patterns and return constraint.
    fn call_event(a: &mut Assertion) -> (&mut Vec<ArgPattern>, &mut CallKind) {
        match &mut a.expr {
            Expr::Sequence(es) => match &mut es[0] {
                Expr::Event(EventExpr::FunctionEvent { args, kind, .. }) => (args, kind),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn content_fingerprint_covers_the_whole_assertion() {
        let entry = |file: &str, assertion: Assertion| ManifestEntry {
            source_file: file.to_string(),
            assertion,
        };
        let base = entry("a.c", sample()).content_fingerprint();
        assert_eq!(base, entry("a.c", sample()).content_fingerprint());
        // Provenance is not content: the same assertion from another
        // unit shares its compiled automaton.
        assert_eq!(base, entry("b.c", sample()).content_fingerprint());

        type Edit = (&'static str, fn(&mut Assertion));
        let edits: [Edit; 9] = [
            ("name", |a| a.name.push('2')),
            ("context", |a| a.context = Context::Global),
            ("bound function", |a| {
                a.bounds.start = StaticEvent::Call("other_syscall".into());
            }),
            ("bound direction", |a| {
                a.bounds.end = StaticEvent::Call(a.bounds.end.function().to_string());
            }),
            ("argument pattern", |a| {
                call_event(a).0[0] = ArgPattern::Any {
                    type_name: "int".into(),
                };
            }),
            ("return constraint", |a| {
                *call_event(a).1 = CallKind::ExitWithReturn(ArgPattern::Const(Value(1)));
            }),
            ("variable name", |a| a.variables[0] = "so2".into()),
            ("loc.file", |a| a.loc.file = "other.c".into()),
            ("loc.line", |a| a.loc.line += 1),
        ];
        for (what, edit) in edits {
            let mut a = sample();
            assert_eq!(a.context, Context::PerThread);
            edit(&mut a);
            assert_ne!(a, sample(), "{what}: the edit changed nothing");
            assert_ne!(
                entry("a.c", a).content_fingerprint(),
                base,
                "{what} is not covered by the fingerprint"
            );
        }
    }
}
