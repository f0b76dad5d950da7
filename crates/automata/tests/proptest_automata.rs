//! Property tests over the automaton construction: algebraic laws of
//! the combinators (`||` commutes, `TSEQUENCE` associates), agreement
//! between NFA simulation and the DFA produced by subset
//! construction, and structural invariants of compiled assertions.

use tesla_automata::{compile, Automaton, Dfa, SymbolId};
use tesla_prop::{check, prop_assert, prop_assert_eq, Gen};
use tesla_spec::{call, AssertionBuilder, ExprBuilder};

const SEED: u64 = 0xa7a;

const FNS: [&str; 4] = ["a", "b", "c", "d"];

/// A tiny expression language whose leaves are distinct function
/// events, so symbol identity is easy to reason about.
#[derive(Debug, Clone)]
enum E {
    Leaf(usize),
    Or(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Seq(Box<E>, Box<E>),
    Opt(Box<E>),
    AtLeast(usize, Box<E>),
}

/// An expression at most `depth` combinators deep.
fn e_gen(g: &mut Gen, depth: u32) -> E {
    if depth == 0 || !g.bool() {
        return E::Leaf(g.range(0..FNS.len()));
    }
    let inner = |g: &mut Gen| Box::new(e_gen(g, depth - 1));
    match g.below(5) {
        0 => E::Or(inner(g), inner(g)),
        1 => E::Xor(inner(g), inner(g)),
        2 => E::Seq(inner(g), inner(g)),
        3 => E::Opt(inner(g)),
        _ => E::AtLeast(g.range(0usize..2), inner(g)),
    }
}

fn e_strategy(g: &mut Gen) -> E {
    e_gen(g, 3)
}

fn build(e: &E) -> ExprBuilder {
    match e {
        E::Leaf(i) => call(FNS[*i]).returns(0).into(),
        E::Or(a, b) => build(a).or(build(b)),
        E::Xor(a, b) => build(a).xor(build(b)),
        E::Seq(a, b) => build(a).then(build(b)),
        E::Opt(a) => build(a).optional(),
        E::AtLeast(n, a) => tesla_spec::atleast(*n, vec![build(a)]),
    }
}

fn automaton(e: &E) -> Option<Automaton> {
    let a = AssertionBuilder::within("f")
        .previously(build(e))
        .build()
        .unwrap();
    compile(&a).ok() // None when the state cap is exceeded
}

/// Pure regular-language acceptance by NFA simulation (dies on
/// missing transition).
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

/// The symbol id for leaf function `i` in `a`, if the automaton
/// references it.
fn sym_for(a: &Automaton, i: usize) -> Option<SymbolId> {
    a.symbols
        .iter()
        .find(|s| matches!(s.function_name(), Some((n, ..)) if n == FNS[i]))
        .map(|s| s.id)
}

/// Translate a word over leaf indices (plus usize::MAX = site) into
/// `a`'s symbol ids; `None` when `a` does not reference some leaf.
fn word_for(a: &Automaton, word: &[usize]) -> Option<Vec<SymbolId>> {
    word.iter()
        .map(|&i| {
            if i == usize::MAX {
                Some(a.site_sym)
            } else {
                sym_for(a, i)
            }
        })
        .collect()
}

/// `a || b` and `b || a` accept the same words.
#[test]
fn or_is_commutative() {
    check(
        128,
        SEED,
        |g| {
            let (a, b) = (e_strategy(g), e_strategy(g));
            (a, b, g.vec(0..8, |g| g.range(0usize..FNS.len())))
        },
        |(a, b, word)| {
            let (Some(ab), Some(ba)) = (
                automaton(&E::Or(Box::new(a.clone()), Box::new(b.clone()))),
                automaton(&E::Or(Box::new(b), Box::new(a))),
            ) else {
                return Ok(()); // state cap: skip
            };
            let mut w1 = word.clone();
            w1.push(usize::MAX); // the site terminates the behaviour
            if let (Some(w_ab), Some(w_ba)) = (word_for(&ab, &w1), word_for(&ba, &w1)) {
                prop_assert_eq!(nfa_accepts(&ab, &w_ab), nfa_accepts(&ba, &w_ba));
            }
            Ok(())
        },
    );
}

/// `(a ; b) ; c` and `a ; (b ; c)` accept the same words.
#[test]
fn seq_is_associative() {
    check(
        128,
        SEED,
        |g| {
            let (a, b, c) = (e_strategy(g), e_strategy(g), e_strategy(g));
            (a, b, c, g.vec(0..10, |g| g.range(0usize..FNS.len())))
        },
        |(a, b, c, word)| {
            let left = E::Seq(
                Box::new(E::Seq(Box::new(a.clone()), Box::new(b.clone()))),
                Box::new(c.clone()),
            );
            let right = E::Seq(Box::new(a), Box::new(E::Seq(Box::new(b), Box::new(c))));
            let (Some(l), Some(r)) = (automaton(&left), automaton(&right)) else {
                return Ok(());
            };
            let mut w = word.clone();
            w.push(usize::MAX);
            if let (Some(wl), Some(wr)) = (word_for(&l, &w), word_for(&r, &w)) {
                prop_assert_eq!(nfa_accepts(&l, &wl), nfa_accepts(&r, &wr));
            }
            Ok(())
        },
    );
}

/// Subset construction preserves the language.
#[test]
fn dfa_equals_nfa() {
    check(
        128,
        SEED,
        |g| (e_strategy(g), g.vec(0..10, |g| g.range(0..FNS.len() + 1))),
        |(e, word)| {
            let Some(a) = automaton(&e) else {
                return Ok(());
            };
            let dfa = Dfa::from_automaton(&a);
            let word: Vec<usize> = word
                .into_iter()
                .map(|i| if i == FNS.len() { usize::MAX } else { i })
                .collect();
            if let Some(w) = word_for(&a, &word) {
                let dfa_accepts = dfa
                    .run(&w)
                    .is_some_and(|s| a.accepting.intersects(&dfa.states[s as usize]));
                prop_assert_eq!(dfa_accepts, nfa_accepts(&a, &w));
            }
            Ok(())
        },
    );
}

/// Structural invariants of every compiled assertion:
/// * all transition endpoints are valid states;
/// * accepting states are cleanup-safe;
/// * the start state is cleanup-safe (the empty path never reached
///   the site — the §4.1 bypass);
/// * exactly one site / init / cleanup symbol each.
#[test]
fn compiled_invariants() {
    check(128, SEED, e_strategy, |e| {
        let Some(a) = automaton(&e) else {
            return Ok(());
        };
        for t in &a.transitions {
            prop_assert!(t.from < a.n_states);
            prop_assert!(t.to < a.n_states);
            prop_assert!((t.sym.0 as usize) < a.symbols.len());
        }
        for s in a.accepting.iter() {
            prop_assert!(
                a.cleanup_safe.contains(s),
                "accepting {s} must be cleanup-safe"
            );
        }
        prop_assert!(a.cleanup_safe.contains(a.start));
        let sites = a
            .symbols
            .iter()
            .filter(|s| matches!(s.kind, tesla_automata::SymbolKind::Site))
            .count();
        prop_assert_eq!(sites, 1);
        // Site violations are detectable: some state has an outgoing
        // site transition.
        prop_assert!(a.transitions.iter().any(|t| t.sym == a.site_sym));
        Ok(())
    });
}

/// `optional(e)` accepts everything `e` accepts, plus the empty
/// behaviour.
#[test]
fn optional_is_superset() {
    check(
        128,
        SEED,
        |g| (e_strategy(g), g.vec(0..8, |g| g.range(0usize..FNS.len()))),
        |(e, word)| {
            let plain = automaton(&e);
            let opt = automaton(&E::Opt(Box::new(e)));
            let (Some(p), Some(o)) = (plain, opt) else {
                return Ok(());
            };
            let mut w = word.clone();
            w.push(usize::MAX);
            if let (Some(wp), Some(wo)) = (word_for(&p, &w), word_for(&o, &w)) {
                if nfa_accepts(&p, &wp) {
                    prop_assert!(nfa_accepts(&o, &wo), "optional lost a word");
                }
            }
            // Empty behaviour: just the site.
            let site_only = vec![o.site_sym];
            prop_assert!(nfa_accepts(&o, &site_only));
            Ok(())
        },
    );
}
