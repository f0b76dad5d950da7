//! Property-based integration tests of libtesla semantics: random
//! event traces driven through independently-configured engines must
//! agree (naive vs lazy initialisation), and runtime verdicts must
//! match the offline symbolic simulation of the same automaton.

use std::sync::Arc;
use tesla::prelude::*;
use tesla_automata::automaton::Verdict;
use tesla_prop::{check, prop_assert, prop_assert_eq, Gen};

const SEED: u64 = 0x1e57;

/// A small trace alphabet over the fig. 9 scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    EnterSyscall,
    ExitSyscall,
    Check { so: u8, ret: i8 },
    Site { so: u8 },
    Unrelated,
}

fn op_strategy(g: &mut Gen) -> Op {
    match g.below(5) {
        0 => Op::EnterSyscall,
        1 => Op::ExitSyscall,
        2 => Op::Check {
            so: g.range(0u8..3),
            ret: if g.bool() { -1 } else { 0 },
        },
        3 => Op::Site {
            so: g.range(0u8..3),
        },
        _ => Op::Unrelated,
    }
}

fn engine(init_mode: InitMode) -> (Arc<Tesla>, ClassId) {
    let t = Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        init_mode,
        instance_capacity: 64,
        ..Config::default()
    }));
    let a = AssertionBuilder::syscall()
        .named("prop")
        .previously(call("check").any_ptr().arg_var("so").returns(0))
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    (t, id)
}

fn drive(t: &Tesla, id: ClassId, trace: &[Op]) -> usize {
    let syscall = t.intern_fn("amd64_syscall");
    let check = t.intern_fn("check");
    let other = t.intern_fn("unrelated_fn");
    for op in trace {
        match op {
            Op::EnterSyscall => t.fn_entry(syscall, &[]).unwrap(),
            Op::ExitSyscall => t.fn_exit(syscall, &[], Value(0)).unwrap(),
            Op::Check { so, ret } => {
                let args = [Value(1), Value(u64::from(*so))];
                t.fn_entry(check, &args).unwrap();
                t.fn_exit(check, &args, Value::from_i64(i64::from(*ret)))
                    .unwrap();
            }
            Op::Site { so } => {
                t.assertion_site(id, &[Value(u64::from(*so))]).unwrap();
            }
            Op::Unrelated => {
                t.fn_entry(other, &[Value(9)]).unwrap();
                t.fn_exit(other, &[Value(9)], Value(0)).unwrap();
            }
        }
    }
    // Balance any open bound so cleanup verdicts land.
    t.fn_exit(syscall, &[], Value(0)).unwrap();
    let n = t.violations().len();
    tesla::runtime::engine::reset_thread_state();
    n
}

/// Naive (eager per-bound init) and lazy (first-event init) modes
/// are observationally equivalent on arbitrary traces.
#[test]
fn naive_and_lazy_are_equivalent() {
    check(
        64,
        SEED,
        |g| g.vec(0..40, op_strategy),
        |trace| {
            let (tn, idn) = engine(InitMode::Naive);
            let (tl, idl) = engine(InitMode::Lazy);
            let vn = drive(&tn, idn, &trace);
            let vl = drive(&tl, idl, &trace);
            prop_assert_eq!(vn, vl, "trace: {:?}", trace);
            Ok(())
        },
    );
}

/// The runtime agrees with an instance-semantics oracle for
/// single-binding traces: the `(∗)` instance persists at the
/// start state (it can re-arm after a site passes), in-place
/// updates replace the clone's state set, and clone-dedup merges.
fn runtime_matches_instance_oracle_on(body: Vec<u8>) -> Result<(), String> {
    // body entries: 0 = successful check, 1 = site, 2 = unrelated.
    let (t, id) = engine(InitMode::Lazy);
    let a = AssertionBuilder::syscall()
        .named("prop")
        .previously(call("check").any_ptr().arg_var("so").returns(0))
        .build()
        .unwrap();
    let auto = compile(&a).unwrap();
    let check_sym = auto
        .symbols
        .iter()
        .find(|s| s.kind.to_string().contains("check"))
        .unwrap()
        .id;

    // Oracle: (∗) fixed at the start set; one merged clone set.
    let star = auto.initial_states();
    let mut clone: Option<tesla::automata::StateSet> = None;
    let mut oracle_violations = 0usize;
    let mut ops = vec![Op::EnterSyscall];
    for b in &body {
        let sym = match b {
            0 => {
                ops.push(Op::Check { so: 1, ret: 0 });
                check_sym
            }
            1 => {
                ops.push(Op::Site { so: 1 });
                auto.site_sym
            }
            _ => {
                ops.push(Op::Unrelated);
                continue;
            }
        };
        // The clone (if any) matches exactly: in-place update.
        let mut matched = false;
        if let Some(s) = clone {
            let next = auto.step(&s, sym, |_| true);
            if !next.is_empty() {
                clone = Some(next);
                matched = true;
            }
        }
        // The (∗) instance specialises: clone-with-dedup-merge.
        let spawned = auto.step(&star, sym, |_| true);
        if !spawned.is_empty() {
            matched = true;
            clone = Some(match clone {
                None => spawned,
                Some(mut s) => {
                    s.union_with(&spawned);
                    s
                }
            });
        }
        if sym == auto.site_sym && !matched {
            oracle_violations += 1;
        }
    }
    // Cleanup: any live instance not cleanup-safe is a violation.
    if let Some(s) = clone {
        if !auto.finalise_ok(&s) {
            oracle_violations += 1;
        }
    }
    ops.push(Op::ExitSyscall);

    let violations = drive(&t, id, &ops);
    prop_assert_eq!(violations, oracle_violations, "body {:?}", body);
    Ok(())
}

#[test]
fn runtime_matches_instance_oracle() {
    check(
        64,
        SEED,
        |g| g.vec(0..12, |g| g.range(0u8..3)),
        runtime_matches_instance_oracle_on,
    );
}

/// A failure `runtime_matches_instance_oracle` once found and shrank:
/// check, site, check, site.
#[test]
fn runtime_matches_instance_oracle_check_site_twice() {
    runtime_matches_instance_oracle_on(vec![0, 1, 0, 1]).unwrap();
}

/// For at-most-one-site traces the simpler whole-word symbolic
/// simulation is also a valid oracle.
#[test]
fn runtime_matches_symbolic_simulation_single_site() {
    check(
        64,
        SEED,
        |g| {
            let pre = g.vec(0..6, |g| g.range(0u8..2));
            let site = g.bool();
            (pre, site, g.vec(0..6, |g| g.range(0u8..2)))
        },
        |(pre, site, post)| {
            // 0 = successful check, 1 = unrelated; at most one site.
            let (t, id) = engine(InitMode::Lazy);
            let a = AssertionBuilder::syscall()
                .named("prop")
                .previously(call("check").any_ptr().arg_var("so").returns(0))
                .build()
                .unwrap();
            let auto = compile(&a).unwrap();
            let check_sym = auto
                .symbols
                .iter()
                .find(|s| s.kind.to_string().contains("check"))
                .unwrap()
                .id;
            let mut word = Vec::new();
            let mut ops = vec![Op::EnterSyscall];
            let push = |b: &u8, word: &mut Vec<_>, ops: &mut Vec<_>| {
                if *b == 0 {
                    word.push(check_sym);
                    ops.push(Op::Check { so: 1, ret: 0 });
                } else {
                    ops.push(Op::Unrelated);
                }
            };
            for b in &pre {
                push(b, &mut word, &mut ops);
            }
            if site {
                word.push(auto.site_sym);
                ops.push(Op::Site { so: 1 });
            }
            for b in &post {
                push(b, &mut word, &mut ops);
            }
            word.push(auto.cleanup_sym);
            ops.push(Op::ExitSyscall);

            let verdict = auto.simulate(&word);
            let violations = drive(&t, id, &ops);
            match verdict {
                Verdict::Accepted => prop_assert_eq!(violations, 0, "word {:?}", word),
                _ => prop_assert!(violations > 0, "word {:?} verdict {:?}", word, verdict),
            }
            Ok(())
        },
    );
}
#[test]
fn capacity_sweep_reports_overflows_proportionally() {
    for capacity in [2usize, 4, 8, 32] {
        let t = Tesla::new(Config {
            fail_mode: FailMode::Log,
            init_mode: InitMode::Lazy,
            instance_capacity: capacity,
            ..Config::default()
        });
        let registry = Arc::new(MetricsRegistry::new());
        t.add_handler(registry.clone());
        let a = AssertionBuilder::syscall()
            .named("cap")
            .previously(call("check").arg_var("x").returns(0))
            .build()
            .unwrap();
        t.register(compile(&a).unwrap()).unwrap();
        let syscall = t.intern_fn("amd64_syscall");
        let check = t.intern_fn("check");
        t.fn_entry(syscall, &[]).unwrap();
        let distinct = 20u64;
        for x in 0..distinct {
            let args = [Value(x)];
            t.fn_entry(check, &args).unwrap();
            t.fn_exit(check, &args, Value(0)).unwrap();
        }
        t.fn_exit(syscall, &[], Value(0)).unwrap();
        // (∗) occupies one slot; the rest hold clones; the remainder
        // of the 20 distinct bindings overflow — and are *reported*.
        let expected_overflow = distinct.saturating_sub(capacity as u64 - 1);
        assert_eq!(
            registry.class(0).map_or(0, |c| c.overflows()),
            expected_overflow,
            "capacity {capacity}"
        );
        tesla::runtime::engine::reset_thread_state();
    }
}

#[test]
fn global_context_under_contention_stays_consistent() {
    // 8 threads × 50 items need a clone slot each within one bound.
    let t = Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        instance_capacity: 1024,
        ..Config::default()
    }));
    let a = AssertionBuilder::bounded(
        tesla::spec::StaticEvent::Call("begin".into()),
        tesla::spec::StaticEvent::ReturnFrom("end".into()),
    )
    .global()
    .named("contended")
    .previously(call("produce").arg_var("item").returns(0))
    .build()
    .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let begin = t.intern_fn("begin");
    let end = t.intern_fn("end");
    let produce = t.intern_fn("produce");
    t.fn_entry(begin, &[]).unwrap();
    // 8 threads produce disjoint items then assert on them.
    let mut handles = Vec::new();
    for thread in 0..8u64 {
        let t = t.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..50u64 {
                let item = thread * 1000 + i;
                let args = [Value(item)];
                t.fn_entry(produce, &args).unwrap();
                t.fn_exit(produce, &args, Value(0)).unwrap();
                t.assertion_site(id, &[Value(item)]).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    t.fn_exit(end, &[], Value(0)).unwrap();
    // Every site found its (cloned) instance; no violations.
    assert!(t.violations().is_empty(), "{:?}", t.violations());
}
