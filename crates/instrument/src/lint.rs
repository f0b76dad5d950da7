//! Specification-level lints over assertion automata (`tesla lint`).
//!
//! Where [`mod@crate::static_check`] and [`mod@crate::model_check`] analyse
//! the *program* against the specification, this pass analyses the
//! specification *itself*: each assertion's compiled automaton is
//! examined with the automaton algebra of [`tesla_automata::analysis`]
//! (complement, product, bound-relative emptiness, Hopcroft
//! minimisation, language inclusion) for defects that no program run
//! could ever surface:
//!
//! * **vacuity** (`TESLA-L001`) — the complement of the assertion's
//!   pass language is empty within the bound: the assertion can never
//!   fail, so it checks nothing;
//! * **contradiction** (`TESLA-L002`) — no event sequence within the
//!   bound reaches an accepting state: the assertion can never pass;
//! * **subsumption** (`TESLA-L003`) — another assertion over the same
//!   bound and context accepts a strictly smaller language: the
//!   weaker one is implied by the stronger and is dead weight;
//! * **dead/mergeable states** (`TESLA-L004`) — the determinised
//!   automaton has unreachable states or states indistinguishable
//!   under minimisation: the spec has redundant structure (often a
//!   duplicated `||`/`^` branch);
//! * **bound never closes** (`TESLA-L005`) — the bound's start and
//!   end are the same static event, so no instance lifetime can ever
//!   complete;
//! * **incompatible matchers** (`TESLA-L006`) — two assertions
//!   observe the same callee with provably disjoint argument
//!   patterns, usually a typo'd constant or flag.
//!
//! Verdict semantics (the word model, bound-relative feasibility, and
//! why subsumption projects onto the shared alphabet) are spelled out
//! in [`tesla_automata::analysis`] and DESIGN.md §12. Assertions with
//! `incallstack` guards are excluded from the language-level lints
//! (L001–L004): a guard's truth is a run-time property of the call
//! stack, so emptiness over the symbol alphabet alone would be
//! unsound.

use std::collections::{BTreeMap, BTreeSet};
use tesla_automata::{analysis, Automaton, Dfa, Direction, LanguageRelation, Manifest, SymbolKind};
use tesla_spec::{ArgPattern, SourceLoc};

/// One specification-level defect.
#[derive(Debug, Clone, PartialEq)]
pub enum LintFinding {
    /// `TESLA-L001`: the assertion can never fail within its bound.
    Vacuous {
        /// The vacuous assertion.
        assertion: String,
        /// Its source location.
        loc: SourceLoc,
    },
    /// `TESLA-L002`: the assertion can never pass within its bound.
    Contradiction {
        /// The contradictory assertion.
        assertion: String,
        /// Its source location.
        loc: SourceLoc,
    },
    /// `TESLA-L003`: the assertion is implied by a strictly stronger
    /// one over the same bound and context.
    Subsumed {
        /// The weaker (redundant) assertion.
        assertion: String,
        /// Its source location.
        loc: SourceLoc,
        /// The strictly stronger assertion that implies it.
        by: String,
    },
    /// `TESLA-L004`: the determinised automaton has redundant
    /// structure — mergeable and/or unreachable states.
    DeadStates {
        /// The assertion with redundant structure.
        assertion: String,
        /// Its source location.
        loc: SourceLoc,
        /// Groups of DFA states (in [`Dfa::from_automaton`] order)
        /// that are pairwise indistinguishable.
        groups: Vec<Vec<u32>>,
        /// NFA states unreachable from the start state.
        unreachable: Vec<u32>,
    },
    /// `TESLA-L005`: the bound's start and end are the same event.
    BoundNeverCloses {
        /// The assertion with the degenerate bound.
        assertion: String,
        /// Its source location.
        loc: SourceLoc,
        /// The bound function.
        function: String,
    },
    /// `TESLA-L006`: two assertions match the same callee with
    /// provably disjoint argument patterns.
    IncompatibleMatchers {
        /// The function both assertions observe.
        function: String,
        /// First assertion (carries the diagnostic's location).
        first: String,
        /// Second assertion.
        second: String,
        /// Zero-based argument position where the patterns are
        /// disjoint.
        position: usize,
        /// Rendered pattern from the first assertion.
        first_pattern: String,
        /// Rendered pattern from the second assertion.
        second_pattern: String,
        /// Source location of the first assertion.
        loc: SourceLoc,
    },
}

impl LintFinding {
    /// The stable diagnostic code for this finding.
    pub fn code(&self) -> &'static str {
        match self {
            LintFinding::Vacuous { .. } => "TESLA-L001",
            LintFinding::Contradiction { .. } => "TESLA-L002",
            LintFinding::Subsumed { .. } => "TESLA-L003",
            LintFinding::DeadStates { .. } => "TESLA-L004",
            LintFinding::BoundNeverCloses { .. } => "TESLA-L005",
            LintFinding::IncompatibleMatchers { .. } => "TESLA-L006",
        }
    }

    /// The assertion the finding is attached to.
    pub fn assertion(&self) -> &str {
        match self {
            LintFinding::Vacuous { assertion, .. }
            | LintFinding::Contradiction { assertion, .. }
            | LintFinding::Subsumed { assertion, .. }
            | LintFinding::DeadStates { assertion, .. }
            | LintFinding::BoundNeverCloses { assertion, .. } => assertion,
            LintFinding::IncompatibleMatchers { first, .. } => first,
        }
    }

    /// The source location the finding is attached to.
    pub fn loc(&self) -> &SourceLoc {
        match self {
            LintFinding::Vacuous { loc, .. }
            | LintFinding::Contradiction { loc, .. }
            | LintFinding::Subsumed { loc, .. }
            | LintFinding::DeadStates { loc, .. }
            | LintFinding::BoundNeverCloses { loc, .. }
            | LintFinding::IncompatibleMatchers { loc, .. } => loc,
        }
    }
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintFinding::Vacuous { .. } => write!(
                f,
                "assertion can never fail: every event sequence within \
                 the bound satisfies it (vacuous specification)"
            ),
            LintFinding::Contradiction { .. } => write!(
                f,
                "assertion can never pass: no event sequence within the \
                 bound reaches an accepting state"
            ),
            LintFinding::Subsumed { by, .. } => write!(
                f,
                "assertion is redundant: the strictly stronger assertion \
                 `{by}` over the same bound implies it"
            ),
            LintFinding::DeadStates {
                groups,
                unreachable,
                ..
            } => {
                write!(f, "automaton has redundant structure:")?;
                if !groups.is_empty() {
                    let rendered: Vec<String> = groups
                        .iter()
                        .map(|g| {
                            let states: Vec<String> = g.iter().map(|s| format!("s{s}")).collect();
                            format!("{{{}}}", states.join(", "))
                        })
                        .collect();
                    write!(f, " mergeable state groups {}", rendered.join(", "))?;
                }
                if !unreachable.is_empty() {
                    let states: Vec<String> = unreachable.iter().map(|s| format!("n{s}")).collect();
                    write!(f, " unreachable states {{{}}}", states.join(", "))?;
                }
                Ok(())
            }
            LintFinding::BoundNeverCloses { function, .. } => write!(
                f,
                "bound can never close: start and end are the same event \
                 on `{function}`, so no instance lifetime can complete"
            ),
            LintFinding::IncompatibleMatchers {
                function,
                second,
                position,
                first_pattern,
                second_pattern,
                ..
            } => write!(
                f,
                "function `{function}` is matched with provably disjoint \
                 argument patterns here and in `{second}` \
                 (argument {position}: {first_pattern} vs {second_pattern})"
            ),
        }
    }
}

/// Lint every assertion in the merged manifest.
///
/// Compiles the manifest and runs [`lint_compiled`]; use the latter
/// when automata are already available (the build pipeline compiles
/// once and shares).
///
/// # Errors
///
/// Returns a description of the first assertion that fails to
/// compile.
pub fn lint_manifest(manifest: &Manifest) -> Result<Vec<LintFinding>, String> {
    let automata = manifest
        .compile_all()
        .map_err(|(name, e)| format!("{name}: {e}"))?;
    Ok(lint_compiled(manifest, &automata))
}

/// Lint pre-compiled automata. `automata` must be positionally
/// aligned with `manifest.entries` (the [`Manifest::compile_all`]
/// order).
pub fn lint_compiled(manifest: &Manifest, automata: &[Automaton]) -> Vec<LintFinding> {
    let n = automata.len();
    let mut findings = Vec::new();
    // Assertions already diagnosed as broken (L001/L002/L005) are
    // excluded from the pairwise subsumption check: comparing against
    // an empty or universal language is noise, not signal.
    let mut broken = vec![false; n];

    for (i, a) in automata.iter().enumerate() {
        let loc = manifest.entries[i].assertion.loc.clone();
        let name = a.name.clone();
        if a.bound.start_fn == a.bound.end_fn && a.bound.start_dir == a.bound.end_dir {
            findings.push(LintFinding::BoundNeverCloses {
                assertion: name,
                loc,
                function: a.bound.start_fn.clone(),
            });
            broken[i] = true;
            continue;
        }
        if analysis::has_guards(a) {
            // Guard truth is a run-time call-stack property; the
            // language-level lints would be unsound.
            continue;
        }
        let alphabet = analysis::body_alphabet(a);
        let closure = analysis::Closure::build(a, &alphabet);
        if closure.contradictory() {
            findings.push(LintFinding::Contradiction {
                assertion: name,
                loc,
            });
            broken[i] = true;
            continue;
        }
        if closure.vacuous() {
            findings.push(LintFinding::Vacuous {
                assertion: name,
                loc,
            });
            broken[i] = true;
            continue;
        }
        let dfa = Dfa::from_automaton(a);
        let groups = analysis::merge_groups(a, &dfa);
        let unreachable = analysis::unreachable_states(a, &dfa);
        if !groups.is_empty() || !unreachable.is_empty() {
            findings.push(LintFinding::DeadStates {
                assertion: name,
                loc,
                groups,
                unreachable,
            });
        }
    }

    // Pairwise subsumption over assertions sharing a bound and
    // context. `compare_languages` itself refuses pairs without a
    // shared concrete alphabet or with guards; equal languages are
    // deliberately not flagged (N identical assertions in N units is
    // the kernel corpus's normal shape).
    let mut subsumed = vec![false; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if broken[i] || broken[j] {
                continue;
            }
            if automata[i].bound != automata[j].bound || automata[i].context != automata[j].context
            {
                continue;
            }
            let (weaker, stronger) = match analysis::compare_languages(&automata[i], &automata[j]) {
                Some(LanguageRelation::FirstWeaker) => (i, j),
                Some(LanguageRelation::SecondWeaker) => (j, i),
                _ => continue,
            };
            if subsumed[weaker] {
                continue;
            }
            subsumed[weaker] = true;
            findings.push(LintFinding::Subsumed {
                assertion: automata[weaker].name.clone(),
                loc: manifest.entries[weaker].assertion.loc.clone(),
                by: automata[stronger].name.clone(),
            });
        }
    }

    // Incompatible argument matchers: group every Function symbol by
    // (callee, direction) across assertions and compare argument
    // patterns positionwise. Arity differences are fine (patterns may
    // be shorter than the callee's arity); only provably disjoint
    // patterns at the same position are flagged, once per assertion
    // pair per function.
    /// Per (callee, direction): each assertion's argument patterns.
    type ByCallee = BTreeMap<(String, Direction), Vec<(usize, Vec<ArgPattern>)>>;
    let mut by_callee = ByCallee::new();
    for (i, a) in automata.iter().enumerate() {
        for s in &a.symbols {
            if let SymbolKind::Function {
                name,
                args,
                direction,
                ..
            } = &s.kind
            {
                by_callee
                    .entry((name.clone(), *direction))
                    .or_default()
                    .push((i, args.clone()));
            }
        }
    }
    let mut reported: BTreeSet<(String, String, String)> = BTreeSet::new();
    for ((func, _dir), uses) in &by_callee {
        for (ai, (i, args_i)) in uses.iter().enumerate() {
            for (j, args_j) in uses.iter().skip(ai + 1) {
                if i == j {
                    // `a(1) || a(2)` inside one assertion is a normal
                    // disjunction, not a conflict.
                    continue;
                }
                let Some(position) = args_i
                    .iter()
                    .zip(args_j.iter())
                    .position(|(p, q)| p.disjoint_with(q))
                else {
                    continue;
                };
                let (first, second) = (&automata[*i].name, &automata[*j].name);
                let key = (
                    func.clone(),
                    first.clone().min(second.clone()),
                    first.clone().max(second.clone()),
                );
                if !reported.insert(key) {
                    continue;
                }
                findings.push(LintFinding::IncompatibleMatchers {
                    function: func.clone(),
                    first: first.clone(),
                    second: second.clone(),
                    position,
                    first_pattern: args_i[position].to_string(),
                    second_pattern: args_j[position].to_string(),
                    loc: manifest.entries[*i].assertion.loc.clone(),
                });
            }
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_spec::{call, Assertion, AssertionBuilder, ExprBuilder, StaticEvent};

    fn manifest_of(assertions: Vec<Assertion>) -> Manifest {
        let mut m = Manifest::new();
        for a in assertions {
            m.push("lint.c", a);
        }
        m
    }

    fn chain(name: &str, bound: &str, callee: &str) -> Assertion {
        AssertionBuilder::within(bound)
            .named(name)
            .at("lint.c", 1)
            .previously(call(callee).any("int").returns(0))
            .build()
            .unwrap()
    }

    #[test]
    fn healthy_chain_is_clean() {
        let m = manifest_of(vec![chain("ok", "f", "check")]);
        assert_eq!(lint_manifest(&m).unwrap(), Vec::new());
    }

    #[test]
    fn vacuous_optional_is_l001() {
        let a = AssertionBuilder::within("f")
            .named("vac")
            .at("lint.c", 2)
            .previously(ExprBuilder::from(call("log").any("int").returns(0)).optional())
            .build()
            .unwrap();
        let fs = lint_manifest(&manifest_of(vec![a])).unwrap();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].code(), "TESLA-L001");
        assert_eq!(fs[0].assertion(), "vac");
    }

    #[test]
    fn bound_aliased_body_is_l002() {
        // The body event is the bound function's own exit: within one
        // activation (no recursion) it can never be observed before
        // the site.
        let a = AssertionBuilder::within("f")
            .named("contra")
            .at("lint.c", 3)
            .previously(call("f").any("int").returns(0))
            .build()
            .unwrap();
        let fs = lint_manifest(&manifest_of(vec![a])).unwrap();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].code(), "TESLA-L002");
    }

    #[test]
    fn weaker_disjunct_is_l003_and_oriented() {
        let strong = chain("strong", "f", "verify");
        let weak = AssertionBuilder::within("f")
            .named("weak")
            .at("lint.c", 4)
            .previously(
                ExprBuilder::from(call("verify").any("int").returns(0))
                    .or(call("audit").any("int").returns(0)),
            )
            .build()
            .unwrap();
        let fs = lint_manifest(&manifest_of(vec![strong, weak])).unwrap();
        assert_eq!(fs.len(), 1);
        match &fs[0] {
            LintFinding::Subsumed { assertion, by, .. } => {
                assert_eq!(assertion, "weak");
                assert_eq!(by, "strong");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn identical_assertions_are_not_subsumed() {
        // N copies of one assertion across N units is the kernel
        // corpus's normal shape; equal languages must stay clean.
        let fs = lint_manifest(&manifest_of(vec![
            chain("a1", "f", "verify"),
            chain("a2", "f", "verify"),
        ]))
        .unwrap();
        assert_eq!(fs, Vec::new());
    }

    #[test]
    fn different_bounds_are_never_compared() {
        let strong = chain("strong", "f", "verify");
        let weak = AssertionBuilder::within("g")
            .named("weak")
            .at("lint.c", 5)
            .previously(
                ExprBuilder::from(call("verify").any("int").returns(0))
                    .or(call("audit").any("int").returns(0)),
            )
            .build()
            .unwrap();
        assert_eq!(
            lint_manifest(&manifest_of(vec![strong, weak])).unwrap(),
            Vec::new()
        );
    }

    #[test]
    fn xor_duplicate_branches_are_l004_with_groups() {
        let a = AssertionBuilder::within("f")
            .named("xor")
            .at("lint.c", 6)
            .previously(
                ExprBuilder::from(call("push").any("int").returns(1))
                    .xor(call("pop").any("int").returns(1)),
            )
            .build()
            .unwrap();
        let fs = lint_manifest(&manifest_of(vec![a])).unwrap();
        assert_eq!(fs.len(), 1);
        match &fs[0] {
            LintFinding::DeadStates {
                groups,
                unreachable,
                ..
            } => {
                assert!(!groups.is_empty());
                assert!(groups.iter().all(|g| g.len() >= 2));
                assert_eq!(unreachable, &Vec::<u32>::new());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degenerate_bound_is_l005() {
        let a =
            AssertionBuilder::bounded(StaticEvent::Call("f".into()), StaticEvent::Call("f".into()))
                .named("never_closes")
                .at("lint.c", 7)
                .previously(call("check").any("int").returns(0))
                .build()
                .unwrap();
        let fs = lint_manifest(&manifest_of(vec![a])).unwrap();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].code(), "TESLA-L005");
        // L005 suppresses the language lints for the same assertion.
        assert!(fs.iter().all(|f| f.code() == "TESLA-L005"));
    }

    #[test]
    fn disjoint_constants_across_assertions_are_l006() {
        let a = AssertionBuilder::within("f")
            .named("one")
            .at("lint.c", 8)
            .previously(call("ioctl").arg_const(1u64).returns(0))
            .build()
            .unwrap();
        let b = AssertionBuilder::within("g")
            .named("two")
            .at("lint.c", 9)
            .previously(call("ioctl").arg_const(2u64).returns(0))
            .build()
            .unwrap();
        let fs = lint_manifest(&manifest_of(vec![a, b])).unwrap();
        assert_eq!(fs.len(), 1);
        match &fs[0] {
            LintFinding::IncompatibleMatchers {
                function, position, ..
            } => {
                assert_eq!(function, "ioctl");
                assert_eq!(*position, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The same pair is reported once, not once per direction or
        // position.
        assert_eq!(fs.iter().filter(|f| f.code() == "TESLA-L006").count(), 1);
    }

    #[test]
    fn disjunction_within_one_assertion_is_not_l006() {
        let a = AssertionBuilder::within("f")
            .named("either")
            .at("lint.c", 10)
            .previously(
                ExprBuilder::from(call("ioctl").arg_const(1u64).returns(0))
                    .or(call("ioctl").arg_const(2u64).returns(0)),
            )
            .build()
            .unwrap();
        let fs = lint_manifest(&manifest_of(vec![a])).unwrap();
        assert!(fs.iter().all(|f| f.code() != "TESLA-L006"), "{fs:?}");
    }

    #[test]
    fn guarded_assertions_skip_language_lints() {
        // incallstack makes acceptance data-dependent; the optional
        // body would otherwise be L001.
        let a = AssertionBuilder::within("f")
            .named("guarded")
            .at("lint.c", 11)
            .previously(
                ExprBuilder::from(call("log").any("int").returns(0))
                    .optional()
                    .then(ExprBuilder::in_callstack("helper")),
            )
            .build()
            .unwrap();
        let m = manifest_of(vec![a]);
        let automata = m
            .compile_all()
            .map_err(|(n, e)| format!("{n}: {e}"))
            .unwrap();
        assert!(analysis::has_guards(&automata[0]));
        assert_eq!(lint_compiled(&m, &automata), Vec::new());
    }

    #[test]
    fn findings_expose_code_assertion_and_loc() {
        let a = AssertionBuilder::within("f")
            .named("vac")
            .at("lint.c", 12)
            .previously(ExprBuilder::from(call("log").any("int").returns(0)).optional())
            .build()
            .unwrap();
        let fs = lint_manifest(&manifest_of(vec![a])).unwrap();
        assert_eq!(fs[0].loc().file, "lint.c");
        assert_eq!(fs[0].loc().line, 12);
        assert!(fs[0].to_string().contains("never fail"));
    }
}
