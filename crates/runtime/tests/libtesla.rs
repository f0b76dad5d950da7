//! Behavioural tests for libtesla: the full §4.4 lifecycle driven
//! through the instrumentation hook API, including the paper's
//! figure-9 scenario, clone-on-specialise, bounds, contexts,
//! fail-stop vs log, guards, preallocation overflow and the
//! naive-vs-lazy initialisation equivalence.

use std::sync::Arc;
use tesla_automata::{compile, Dfa};
use tesla_runtime::{
    engine::reset_thread_state, Config, EvictionPolicy, FailMode, InitMode, LifecycleEvent,
    MetricsRegistry, RecordingHandler, Tesla, Violation, ViolationKind,
};
use tesla_spec::{call, field_assign, msg_send, AssertionBuilder, ExprBuilder, FieldOp, Value};

fn syscall_poll_engine(init: InitMode, fail: FailMode) -> (Tesla, tesla_runtime::ClassId) {
    let t = Tesla::new(Config {
        fail_mode: fail,
        init_mode: init,
        ..Config::default()
    });
    let a = AssertionBuilder::syscall()
        .named("mac_poll")
        .previously(
            call("mac_socket_check_poll")
                .any_ptr()
                .arg_var("so")
                .returns(0),
        )
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    (t, id)
}

/// Run the fig. 9 scenario: enter syscall, optionally run the MAC
/// check (with `checked_so`), reach the assertion site with `site_so`,
/// exit the syscall.
fn poll_scenario(
    t: &Tesla,
    id: tesla_runtime::ClassId,
    checked_so: Option<u64>,
    site_so: Option<u64>,
) -> Result<(), Violation> {
    let syscall = t.intern_fn("amd64_syscall");
    let check = t.intern_fn("mac_socket_check_poll");
    t.fn_entry(syscall, &[Value(1), Value(2)])?;
    if let Some(so) = checked_so {
        let args = [Value(77), Value(so)];
        t.fn_entry(check, &args)?;
        t.fn_exit(check, &args, Value(0))?;
    }
    if let Some(so) = site_so {
        t.assertion_site(id, &[Value(so)])?;
    }
    t.fn_exit(syscall, &[Value(1), Value(2)], Value(0))
}

#[test]
fn previously_satisfied_accepts() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    assert!(poll_scenario(&t, id, Some(42), Some(42)).is_ok());
    assert!(t.violations().is_empty());
}

#[test]
fn previously_missing_is_site_violation() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    let err = poll_scenario(&t, id, None, Some(42)).unwrap_err();
    assert_eq!(err.kind, ViolationKind::Site);
    assert_eq!(err.assertion, "mac_poll");
}

#[test]
fn wrong_variable_value_is_a_violation() {
    // The §3.5.2 wrong-credential bug shape: a check ran, but for a
    // different object than the one at the assertion site.
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    let err = poll_scenario(&t, id, Some(42), Some(43)).unwrap_err();
    assert_eq!(err.kind, ViolationKind::Site);
    assert!(err.detail.contains("so=43"), "detail: {}", err.detail);
}

#[test]
fn check_after_site_does_not_satisfy_previously() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    let syscall = t.intern_fn("amd64_syscall");
    let check = t.intern_fn("mac_socket_check_poll");
    t.fn_entry(syscall, &[]).unwrap();
    let err = t.assertion_site(id, &[Value(9)]).unwrap_err();
    assert_eq!(err.kind, ViolationKind::Site);
    // Doing the check afterwards must not retroactively fix anything.
    let args = [Value(1), Value(9)];
    t.fn_entry(check, &args).unwrap();
    t.fn_exit(check, &args, Value(0)).unwrap();
}

#[test]
fn site_never_reached_is_bypass_acceptance() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    assert!(poll_scenario(&t, id, Some(42), None).is_ok());
    assert!(poll_scenario(&t, id, None, None).is_ok());
    assert!(t.violations().is_empty());
}

#[test]
fn events_outside_bound_are_ignored() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    let check = t.intern_fn("mac_socket_check_poll");
    // No syscall entered: the check and even the site are outside the
    // temporal bound — no instances exist, nothing to violate.
    let args = [Value(1), Value(5)];
    t.fn_entry(check, &args).unwrap();
    t.fn_exit(check, &args, Value(0)).unwrap();
    t.assertion_site(id, &[Value(5)]).unwrap();
    assert!(t.violations().is_empty());
}

#[test]
fn clones_specialise_per_socket() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    let syscall = t.intern_fn("amd64_syscall");
    let check = t.intern_fn("mac_socket_check_poll");
    t.fn_entry(syscall, &[]).unwrap();
    for so in [10u64, 20, 30] {
        let args = [Value(1), Value(so)];
        t.fn_entry(check, &args).unwrap();
        t.fn_exit(check, &args, Value(0)).unwrap();
    }
    // (∗) plus three specialised instances.
    assert_eq!(t.live_instances_here(id), 4);
    // Each specialised socket passes its own site.
    t.assertion_site(id, &[Value(20)]).unwrap();
    t.assertion_site(id, &[Value(10)]).unwrap();
    t.assertion_site(id, &[Value(30)]).unwrap();
    // An unchecked socket still fails.
    assert!(t.assertion_site(id, &[Value(40)]).is_err());
}

#[test]
fn duplicate_checks_do_not_duplicate_instances() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    let syscall = t.intern_fn("amd64_syscall");
    let check = t.intern_fn("mac_socket_check_poll");
    t.fn_entry(syscall, &[]).unwrap();
    for _ in 0..5 {
        let args = [Value(1), Value(7)];
        t.fn_entry(check, &args).unwrap();
        t.fn_exit(check, &args, Value(0)).unwrap();
    }
    assert_eq!(t.live_instances_here(id), 2); // (∗) and (so=7)
}

#[test]
fn failed_check_return_value_does_not_arm_the_automaton() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    let syscall = t.intern_fn("amd64_syscall");
    let check = t.intern_fn("mac_socket_check_poll");
    t.fn_entry(syscall, &[]).unwrap();
    let args = [Value(1), Value(7)];
    t.fn_entry(check, &args).unwrap();
    // Check ran but *failed* (EPERM): static return check == 0 fails.
    t.fn_exit(check, &args, Value::from_i64(13)).unwrap();
    let err = t.assertion_site(id, &[Value(7)]).unwrap_err();
    assert_eq!(err.kind, ViolationKind::Site);
}

fn eventually_engine(fail: FailMode) -> (Tesla, tesla_runtime::ClassId) {
    let t = Tesla::new(Config {
        fail_mode: fail,
        ..Config::default()
    });
    let a = AssertionBuilder::syscall()
        .named("sugid_flag")
        .eventually(
            field_assign("proc", "p_flag")
                .object_var("p")
                .op(FieldOp::OrAssign)
                .value_const(0x100u64),
        )
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    (t, id)
}

#[test]
fn eventually_met_accepts() {
    let (t, id) = eventually_engine(FailMode::FailStop);
    let syscall = t.intern_fn("amd64_syscall");
    let (proc_s, p_flag) = (t.intern_struct("proc"), t.intern_field("p_flag"));
    t.fn_entry(syscall, &[]).unwrap();
    t.assertion_site(id, &[Value(55)]).unwrap();
    t.field_store(proc_s, p_flag, Value(55), FieldOp::OrAssign, Value(0x100))
        .unwrap();
    t.fn_exit(syscall, &[], Value(0)).unwrap();
    assert!(t.violations().is_empty());
}

#[test]
fn eventually_unmet_fails_at_cleanup() {
    let (t, id) = eventually_engine(FailMode::FailStop);
    let syscall = t.intern_fn("amd64_syscall");
    t.fn_entry(syscall, &[]).unwrap();
    t.assertion_site(id, &[Value(55)]).unwrap();
    let err = t.fn_exit(syscall, &[], Value(0)).unwrap_err();
    assert_eq!(err.kind, ViolationKind::Cleanup);
    assert_eq!(err.assertion, "sugid_flag");
}

#[test]
fn eventually_wrong_object_fails_at_cleanup() {
    let (t, id) = eventually_engine(FailMode::FailStop);
    let syscall = t.intern_fn("amd64_syscall");
    let (proc_s, p_flag) = (t.intern_struct("proc"), t.intern_field("p_flag"));
    t.fn_entry(syscall, &[]).unwrap();
    t.assertion_site(id, &[Value(55)]).unwrap();
    // Flag set on a *different* process.
    t.field_store(proc_s, p_flag, Value(56), FieldOp::OrAssign, Value(0x100))
        .unwrap();
    let err = t.fn_exit(syscall, &[], Value(0)).unwrap_err();
    assert_eq!(err.kind, ViolationKind::Cleanup);
}

#[test]
fn field_op_must_match() {
    let (t, id) = eventually_engine(FailMode::FailStop);
    let syscall = t.intern_fn("amd64_syscall");
    let (proc_s, p_flag) = (t.intern_struct("proc"), t.intern_field("p_flag"));
    t.fn_entry(syscall, &[]).unwrap();
    t.assertion_site(id, &[Value(55)]).unwrap();
    // Plain assignment is not the asserted |= event.
    t.field_store(proc_s, p_flag, Value(55), FieldOp::Assign, Value(0x100))
        .unwrap();
    assert!(t.fn_exit(syscall, &[], Value(0)).is_err());
}

#[test]
fn log_mode_collects_and_continues() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::Log);
    assert!(poll_scenario(&t, id, None, Some(42)).is_ok());
    assert!(poll_scenario(&t, id, None, Some(43)).is_ok());
    let vs = t.violations();
    assert_eq!(vs.len(), 2);
    assert!(vs.iter().all(|v| v.kind == ViolationKind::Site));
    t.clear_violations();
    assert!(t.violations().is_empty());
}

#[test]
fn naive_and_lazy_agree_on_verdicts() {
    // Drive both engines through the same mixed trace and compare.
    for (checked, site, expect_err) in [
        (Some(1u64), Some(1u64), false),
        (Some(1), Some(2), true),
        (None, Some(1), true),
        (Some(1), None, false),
        (None, None, false),
    ] {
        let (tn, idn) = syscall_poll_engine(InitMode::Naive, FailMode::FailStop);
        let (tl, idl) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
        let rn = poll_scenario(&tn, idn, checked, site);
        let rl = poll_scenario(&tl, idl, checked, site);
        assert_eq!(rn.is_err(), expect_err, "naive {checked:?} {site:?}");
        assert_eq!(rl.is_err(), expect_err, "lazy {checked:?} {site:?}");
        assert_eq!(rn.err().map(|v| v.kind), rl.err().map(|v| v.kind));
    }
}

#[test]
fn naive_mode_creates_instances_eagerly() {
    let (t, id) = syscall_poll_engine(InitMode::Naive, FailMode::FailStop);
    let syscall = t.intern_fn("amd64_syscall");
    t.fn_entry(syscall, &[]).unwrap();
    assert_eq!(t.live_instances_here(id), 1); // (∗) exists already
    t.fn_exit(syscall, &[], Value(0)).unwrap();
    assert_eq!(t.live_instances_here(id), 0);

    let (t2, id2) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    let syscall2 = t2.intern_fn("amd64_syscall");
    t2.fn_entry(syscall2, &[]).unwrap();
    assert_eq!(t2.live_instances_here(id2), 0); // lazy: nothing yet
    t2.fn_exit(syscall2, &[], Value(0)).unwrap();
}

#[test]
fn recursive_bound_entries_nest() {
    let t = Tesla::with_defaults();
    let a = AssertionBuilder::within("walker")
        .named("rec")
        .previously(call("prep").returns(0))
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let walker = t.intern_fn("walker");
    let prep = t.intern_fn("prep");
    // Outer enter, prep, inner enter+exit (must not expunge), site ok.
    t.fn_entry(walker, &[]).unwrap();
    t.fn_entry(prep, &[]).unwrap();
    t.fn_exit(prep, &[], Value(0)).unwrap();
    t.fn_entry(walker, &[]).unwrap();
    t.fn_exit(walker, &[], Value(0)).unwrap();
    t.assertion_site(id, &[]).unwrap();
    t.fn_exit(walker, &[], Value(0)).unwrap();
    assert!(t.violations().is_empty());
}

#[test]
fn incallstack_guard_consults_shadow_stack() {
    let t = Tesla::with_defaults();
    let a = AssertionBuilder::syscall()
        .named("ufs_read_paths")
        .body(
            ExprBuilder::in_callstack("ufs_readdir").or(ExprBuilder::from(
                call("mac_vnode_check_read")
                    .any_ptr()
                    .arg_var("vp")
                    .returns(0),
            )
            .then(ExprBuilder::site())),
        )
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let syscall = t.intern_fn("amd64_syscall");
    let readdir = t.intern_fn("ufs_readdir");

    // Inside ufs_readdir: guard passes without any MAC check.
    t.fn_entry(syscall, &[]).unwrap();
    t.fn_entry(readdir, &[]).unwrap();
    t.assertion_site(id, &[Value(3)]).unwrap();
    t.fn_exit(readdir, &[], Value(0)).unwrap();
    t.fn_exit(syscall, &[], Value(0)).unwrap();

    // Outside it, with no check: violation.
    t.fn_entry(syscall, &[]).unwrap();
    let err = t.assertion_site(id, &[Value(3)]).unwrap_err();
    assert_eq!(err.kind, ViolationKind::Site);
    let _ = t.fn_exit(syscall, &[], Value(0));
}

#[test]
fn message_events_flow_like_functions() {
    let t = Tesla::with_defaults();
    let a = AssertionBuilder::within("run_loop_iteration")
        .named("push_before_draw")
        .previously(msg_send("push").receiver_var("cur"))
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let rl = t.intern_fn("run_loop_iteration");
    let push = t.intern_selector("push");
    t.fn_entry(rl, &[]).unwrap();
    t.msg_entry(push, Value(5), &[]).unwrap();
    t.assertion_site(id, &[Value(5)]).unwrap();
    assert!(t.assertion_site(id, &[Value(6)]).is_err());
    let _ = t.fn_exit(rl, &[], Value(0));
}

#[test]
fn overflow_is_reported_not_silent() {
    let t = Tesla::new(Config {
        instance_capacity: 3,
        ..Config::default()
    });
    let registry = Arc::new(MetricsRegistry::new());
    t.add_handler(registry.clone());
    let a = AssertionBuilder::syscall()
        .named("tiny")
        .previously(call("check").arg_var("x").returns(0))
        .build()
        .unwrap();
    t.register(compile(&a).unwrap()).unwrap();
    let syscall = t.intern_fn("amd64_syscall");
    let check = t.intern_fn("check");
    t.fn_entry(syscall, &[]).unwrap();
    // (∗) + 2 clones fill the table; the rest overflow.
    for x in 0..10u64 {
        let args = [Value(x)];
        t.fn_entry(check, &args).unwrap();
        t.fn_exit(check, &args, Value(0)).unwrap();
    }
    t.fn_exit(syscall, &[], Value(0)).unwrap();
    let c = registry.class(0).expect("class counters");
    assert_eq!(c.overflows(), 8);
    assert_eq!(c.clones(), 2);
}

#[test]
fn counting_handler_weights_transitions() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    let registry = Arc::new(MetricsRegistry::new());
    t.add_handler(registry.clone());
    for _ in 0..5 {
        poll_scenario(&t, id, Some(42), Some(42)).unwrap();
    }
    let weights = registry.weights();
    let defs = t.class_defs();
    let auto = &defs[0].automaton;
    let check_sym = auto
        .symbols
        .iter()
        .find(|s| s.kind.to_string().contains("mac_socket_check_poll"))
        .unwrap()
        .id;
    assert_eq!(weights.symbol_count(0, check_sym), 5);
    assert_eq!(weights.symbol_count(0, auto.site_sym), 5);
    assert!(weights.covered_symbols(0).contains(&auto.site_sym));
}

#[test]
fn strict_automata_reject_unexpected_events() {
    let t = Tesla::with_defaults();
    let a = AssertionBuilder::within("f")
        .named("strict_seq")
        .previously(
            ExprBuilder::from(call("a").returns(0))
                .then(call("b").returns(0))
                .strict(),
        )
        .build()
        .unwrap();
    t.register(compile(&a).unwrap()).unwrap();
    let f = t.intern_fn("f");
    let (fa, fb) = (t.intern_fn("a"), t.intern_fn("b"));
    t.fn_entry(f, &[]).unwrap();
    t.fn_entry(fa, &[]).unwrap();
    t.fn_exit(fa, &[], Value(0)).unwrap();
    t.fn_entry(fb, &[]).unwrap();
    t.fn_exit(fb, &[], Value(0)).unwrap();
    // b again, out of order: strict violation.
    t.fn_entry(fb, &[]).unwrap();
    let err = t.fn_exit(fb, &[], Value(0)).unwrap_err();
    assert_eq!(err.kind, ViolationKind::Strict);
}

#[test]
fn flags_and_bitmask_static_checks_gate_dispatch() {
    let t = Tesla::with_defaults();
    let a = AssertionBuilder::within("f")
        .named("flagged")
        .previously(call("io").arg_var("vp").arg_flags(0x80).returns(0))
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let f = t.intern_fn("f");
    let io = t.intern_fn("io");
    t.fn_entry(f, &[]).unwrap();
    // Flag missing: event does not arm the automaton.
    t.fn_entry(io, &[Value(9), Value(0x01)]).unwrap();
    t.fn_exit(io, &[Value(9), Value(0x01)], Value(0)).unwrap();
    assert!(t.assertion_site(id, &[Value(9)]).is_err());
    let _ = t.fn_exit(f, &[], Value(0));

    // Flag present (among others): arms.
    t.fn_entry(f, &[]).unwrap();
    t.fn_entry(io, &[Value(9), Value(0x81)]).unwrap();
    t.fn_exit(io, &[Value(9), Value(0x81)], Value(0)).unwrap();
    t.assertion_site(id, &[Value(9)]).unwrap();
    t.fn_exit(f, &[], Value(0)).unwrap();
}

#[test]
fn global_context_spans_threads() {
    let t = Arc::new(Tesla::with_defaults());
    let a = AssertionBuilder::bounded(
        tesla_spec::StaticEvent::Call("job_start".into()),
        tesla_spec::StaticEvent::ReturnFrom("job_end".into()),
    )
    .global()
    .named("cross_thread")
    .previously(call("produce").arg_var("item").returns(0))
    .build()
    .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let start = t.intern_fn("job_start");
    let end = t.intern_fn("job_end");
    let produce = t.intern_fn("produce");

    t.fn_entry(start, &[]).unwrap();
    // Producer thread emits the event; consumer thread asserts.
    let tp = t.clone();
    std::thread::spawn(move || {
        let args = [Value(7)];
        tp.fn_entry(produce, &args).unwrap();
        tp.fn_exit(produce, &args, Value(0)).unwrap();
    })
    .join()
    .unwrap();
    let tc = t.clone();
    std::thread::spawn(move || {
        tc.assertion_site(id, &[Value(7)]).unwrap();
    })
    .join()
    .unwrap();
    t.fn_exit(end, &[], Value(0)).unwrap();
    assert!(t.violations().is_empty());
}

#[test]
fn per_thread_context_isolates_threads() {
    let t = Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        ..Config::default()
    }));
    let a = AssertionBuilder::syscall()
        .named("thread_local_check")
        .previously(call("check").arg_var("x").returns(0))
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let syscall = t.intern_fn("amd64_syscall");
    let check = t.intern_fn("check");

    // Thread A performs the check inside its own syscall...
    let ta = t.clone();
    std::thread::spawn(move || {
        ta.fn_entry(syscall, &[]).unwrap();
        let args = [Value(7)];
        ta.fn_entry(check, &args).unwrap();
        ta.fn_exit(check, &args, Value(0)).unwrap();
        // Not exiting the syscall: the thread dies with state local.
    })
    .join()
    .unwrap();
    // ...thread B (this one) must not see it.
    t.fn_entry(syscall, &[]).unwrap();
    t.assertion_site(id, &[Value(7)]).unwrap(); // Log mode: no Err
    let _ = t.fn_exit(syscall, &[], Value(0));
    assert_eq!(t.violations().len(), 1);
    reset_thread_state();
}

#[test]
fn coverage_reports_unexercised_assertions() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    // A second assertion that is never exercised.
    let a2 = AssertionBuilder::syscall()
        .named("never_run")
        .previously(call("some_other_check").returns(0))
        .build()
        .unwrap();
    t.register(compile(&a2).unwrap()).unwrap();
    poll_scenario(&t, id, Some(1), Some(1)).unwrap();
    let cov = t.coverage();
    assert_eq!(cov.len(), 2);
    let by_name: std::collections::HashMap<_, _> = cov
        .into_iter()
        .map(|(n, hits, viols)| (n, (hits, viols)))
        .collect();
    assert_eq!(by_name["mac_poll"].0, 1);
    assert_eq!(by_name["never_run"].0, 0);
}

#[test]
fn recording_handler_sees_full_lifecycle() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    let rec = Arc::new(RecordingHandler::new());
    t.add_handler(rec.clone());
    poll_scenario(&t, id, Some(42), Some(42)).unwrap();
    let evs = rec.events();
    use tesla_runtime::LifecycleEvent as E;
    assert!(evs.iter().any(|e| matches!(e, E::New { .. })));
    assert!(evs.iter().any(|e| matches!(e, E::Clone { .. })));
    assert!(evs.iter().any(|e| matches!(e, E::Update { .. })));
    assert!(evs
        .iter()
        .any(|e| matches!(e, E::Finalise { accepted: true, .. })));
}

#[test]
fn or_assertion_accepts_either_check_at_runtime() {
    // The fig. 7 ufs_open disjunction, end to end.
    let t = Tesla::with_defaults();
    let a = AssertionBuilder::syscall()
        .named("ufs_open")
        .previously(
            ExprBuilder::from(
                call("mac_kld_check_load")
                    .any_ptr()
                    .arg_var("vp")
                    .returns(0),
            )
            .or(call("mac_vnode_check_exec")
                .any_ptr()
                .arg_var("vp")
                .returns(0))
            .or(call("mac_vnode_check_open")
                .any_ptr()
                .arg_var("vp")
                .any("int")
                .returns(0)),
        )
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let syscall = t.intern_fn("amd64_syscall");
    for check in [
        "mac_kld_check_load",
        "mac_vnode_check_exec",
        "mac_vnode_check_open",
    ] {
        let c = t.intern_fn(check);
        t.fn_entry(syscall, &[]).unwrap();
        let args = [Value(1), Value(5), Value(0)];
        t.fn_entry(c, &args).unwrap();
        t.fn_exit(c, &args, Value(0)).unwrap();
        t.assertion_site(id, &[Value(5)]).unwrap();
        t.fn_exit(syscall, &[], Value(0)).unwrap();
    }
    // None of them: violation.
    t.fn_entry(syscall, &[]).unwrap();
    assert!(t.assertion_site(id, &[Value(5)]).is_err());
}

#[test]
fn multiple_classes_share_a_bound_group() {
    let (t, id1) = syscall_poll_engine(InitMode::Naive, FailMode::FailStop);
    let a2 = AssertionBuilder::syscall()
        .named("second")
        .previously(call("other_check").arg_var("y").returns(0))
        .build()
        .unwrap();
    let id2 = t.register(compile(&a2).unwrap()).unwrap();
    let syscall = t.intern_fn("amd64_syscall");
    t.fn_entry(syscall, &[]).unwrap();
    // Naive mode materialises both eagerly.
    assert_eq!(t.live_instances_here(id1), 1);
    assert_eq!(t.live_instances_here(id2), 1);
    t.fn_exit(syscall, &[], Value(0)).unwrap();
    assert_eq!(t.live_instances_here(id1), 0);
    assert_eq!(t.live_instances_here(id2), 0);
}

// ---------------------------------------------------------------------
// §7 "free variables": variables bound only by events, never by the
// assertion site. The site passes values for its scope prefix only;
// event-bound variables constrain later events through the instance's
// binding, exactly like the function-pointer use case the paper
// sketches.
// ---------------------------------------------------------------------

#[test]
fn free_variables_bind_through_events_only() {
    let t = Tesla::with_defaults();
    // Within a request: a handle is allocated (binding `h` from the
    // *return value*), the site is passed with no scope values, and
    // the same handle must eventually be released.
    let a = AssertionBuilder::within("request")
        .named("handle_lifecycle")
        .body(
            ExprBuilder::from(call("alloc_handle").returns_var("h"))
                .then(ExprBuilder::site())
                .then(call("release_handle").arg_var("h").returns(0)),
        )
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let request = t.intern_fn("request");
    let alloc = t.intern_fn("alloc_handle");
    let release = t.intern_fn("release_handle");

    // Correct: release the handle alloc returned.
    t.fn_entry(request, &[]).unwrap();
    t.fn_entry(alloc, &[]).unwrap();
    t.fn_exit(alloc, &[], Value(77)).unwrap();
    t.assertion_site(id, &[]).unwrap(); // no site-scope values: h is free
    t.fn_entry(release, &[Value(77)]).unwrap();
    t.fn_exit(release, &[Value(77)], Value(0)).unwrap();
    t.fn_exit(request, &[], Value(0)).unwrap();
    assert!(t.violations().is_empty());

    // Wrong: release a *different* handle — the free variable's
    // binding (h=77) rejects 78, and cleanup reports the pending
    // obligation.
    t.fn_entry(request, &[]).unwrap();
    t.fn_entry(alloc, &[]).unwrap();
    t.fn_exit(alloc, &[], Value(77)).unwrap();
    t.assertion_site(id, &[]).unwrap();
    t.fn_entry(release, &[Value(78)]).unwrap();
    t.fn_exit(release, &[Value(78)], Value(0)).unwrap();
    let err = t.fn_exit(request, &[], Value(0)).unwrap_err();
    assert_eq!(err.kind, ViolationKind::Cleanup);
}

#[test]
fn free_variables_track_function_pointer_identity() {
    // The §7 motivating case: assert that the function pointer that
    // was *registered* is the one that gets *invoked*, where the
    // pointer value is never in the assertion site's scope.
    let t = Tesla::with_defaults();
    let a = AssertionBuilder::within("dispatch_loop")
        .named("fp_registered_before_use")
        .previously(
            ExprBuilder::from(call("register_cb").arg_var("fp").returns(0))
                .then(call("invoke_cb").arg_var("fp").returns(0)),
        )
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let (loop_fn, reg, inv) = (
        t.intern_fn("dispatch_loop"),
        t.intern_fn("register_cb"),
        t.intern_fn("invoke_cb"),
    );

    let run = |registered: u64, invoked: u64| -> Result<(), tesla_runtime::Violation> {
        t.fn_entry(loop_fn, &[])?;
        t.fn_entry(reg, &[Value(registered)])?;
        t.fn_exit(reg, &[Value(registered)], Value(0))?;
        t.fn_entry(inv, &[Value(invoked)])?;
        t.fn_exit(inv, &[Value(invoked)], Value(0))?;
        t.assertion_site(id, &[])?;
        t.fn_exit(loop_fn, &[], Value(0))?;
        Ok(())
    };
    run(0x1000, 0x1000).unwrap();
    // Invoking a pointer that was never registered: the sequence
    // [register(fp), invoke(fp)] never completed for any binding.
    let err = run(0x1000, 0x2000).unwrap_err();
    assert_eq!(err.kind, ViolationKind::Site);
    tesla_runtime::engine::reset_thread_state();
}

#[test]
fn late_registration_extends_dispatch_tables() {
    // Classes may be registered while the engine is already
    // processing events (the paper's "developers would only run with
    // a subset of assertions enabled" workflow implies dynamic sets).
    let (t, id1) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    poll_scenario(&t, id1, Some(1), Some(1)).unwrap();
    // Register a second class now.
    let a2 = AssertionBuilder::syscall()
        .named("late")
        .previously(call("late_check").arg_var("y").returns(0))
        .build()
        .unwrap();
    let id2 = t.register(compile(&a2).unwrap()).unwrap();
    let syscall = t.intern_fn("amd64_syscall");
    let late = t.intern_fn("late_check");
    t.fn_entry(syscall, &[]).unwrap();
    let args = [Value(9)];
    t.fn_entry(late, &args).unwrap();
    t.fn_exit(late, &args, Value(0)).unwrap();
    t.assertion_site(id2, &[Value(9)]).unwrap();
    t.fn_exit(syscall, &[], Value(0)).unwrap();
    // The first class still works too.
    poll_scenario(&t, id1, Some(2), Some(2)).unwrap();
    assert!(t.violations().is_empty());
}

// ---------------------------------------------------------------------
// Regression tests for hot-path ordering and lifecycle bugs.
// ---------------------------------------------------------------------

#[test]
fn incallstack_guard_sees_guarded_fns_own_exit() {
    // Regression: `fn_exit` used to pop the shadow call stack *before*
    // running exit translators, so an `incallstack(f)` guard on a
    // transition consumed during `f`'s own exit event evaluated to
    // false — asymmetric with the entry event, which pushes before
    // translators run. The spec surface only attaches guards to site
    // transitions, so compile a normal assertion and patch the guard
    // onto the helper's exit-event transition, exactly what a future
    // guarded-event lowering would emit.
    use tesla_automata::{Direction, Guard, SymbolKind};
    let t = Tesla::with_defaults();
    let a = AssertionBuilder::within("g")
        .named("exit_guard")
        .previously(call("helper").returns(0))
        .build()
        .unwrap();
    let mut auto = compile(&a).unwrap();
    let exit_sym = auto
        .symbols
        .iter()
        .find(|s| {
            matches!(
                &s.kind,
                SymbolKind::Function { name, direction: Direction::Exit, .. } if name == "helper"
            )
        })
        .unwrap()
        .id;
    for tr in &mut auto.transitions {
        if tr.sym == exit_sym {
            tr.guard = Some(Guard::InCallStack("helper".into()));
        }
    }
    let id = t.register(auto).unwrap();
    let g = t.intern_fn("g");
    let helper = t.intern_fn("helper");
    t.fn_entry(g, &[]).unwrap();
    t.fn_entry(helper, &[]).unwrap();
    // The guard must see `helper` on the stack while its own exit
    // translators run.
    t.fn_exit(helper, &[], Value(0)).unwrap();
    t.assertion_site(id, &[]).unwrap();
    t.fn_exit(g, &[], Value(0)).unwrap();
    assert!(t.violations().is_empty());
}

#[test]
fn strict_violation_keeps_clones_queued_by_earlier_instances() {
    // Regression: a strict-mode violation used to return from
    // `Store::apply_event` before committing clones queued by earlier
    // instances in the same event, so Log-mode callers lost
    // specialisations that later events should still observe.
    let t = Tesla::new(Config {
        fail_mode: FailMode::Log,
        ..Config::default()
    });
    // `xor` makes the branches exclusive: once an instance has taken
    // the `b` branch, `a` has no transition from its state.
    let a = AssertionBuilder::within("g")
        .named("strict_clones")
        .previously(
            ExprBuilder::from(call("a").arg_var("x").entry())
                .xor(call("b").arg_var("y").entry())
                .strict(),
        )
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let g = t.intern_fn("g");
    let (fa, fb) = (t.intern_fn("a"), t.intern_fn("b"));
    t.fn_entry(g, &[]).unwrap();
    // b(9): (∗) specialises to (y=9) down the `b` branch.
    t.fn_entry(fb, &[Value(9)]).unwrap();
    assert_eq!(t.live_instances_here(id), 2);
    // a(1): slot 0, (∗), queues the clone (x=1); then slot 1, (y=9),
    // is binding-compatible (x is unknown to it) but its branch has
    // no transition on `a` — a strict violation. The clone queued
    // before the violation must still be committed.
    t.fn_entry(fa, &[Value(1)]).unwrap();
    let vs = t.violations();
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].kind, ViolationKind::Strict);
    assert_eq!(
        t.live_instances_here(id),
        3,
        "the clone queued before the strict violation must survive"
    );
}

#[test]
fn stale_instances_cleared_on_epoch_change() {
    // Regression: `Store::materialize` used to push a fresh (∗)
    // without clearing instances left from a prior epoch that was
    // never finalised (a scope abandoned by an unbalanced bound exit
    // or a fail-stop), and hardcoded the lifecycle slot index to 0.
    // Modelled directly on the store: the engine's own bookkeeping
    // keeps entries/exits balanced, but an abandoned store must not
    // leak old-epoch instances into the new scope.
    use std::sync::atomic::AtomicU64;
    use tesla_runtime::engine::ClassDef;
    use tesla_runtime::store::Store;
    let a = AssertionBuilder::within("g")
        .named("stale")
        .previously(call("c").arg_var("x").returns(0))
        .build()
        .unwrap();
    let auto = compile(&a).unwrap();
    let check_sym = auto
        .symbols
        .iter()
        .find(
            |s| matches!(&s.kind, tesla_automata::SymbolKind::Function { name, .. } if name == "c"),
        )
        .unwrap()
        .id;
    let def = ClassDef {
        automaton: Arc::new(auto),
        compiled: None,
        group: 0,
        capacity: 8,
        site_hits: AtomicU64::new(0),
        violation_count: AtomicU64::new(0),
        guard_fns: Vec::new(),
        quota: None,
        eviction: tesla_runtime::EvictionPolicy::default(),
    };
    let mut store = Store::default();
    store.ensure(1, 1);
    let metrics = tesla_runtime::MetricsRegistry::new();
    let no_handlers: Vec<Arc<dyn tesla_runtime::EventHandler>> = vec![];
    let silent = tesla_runtime::Dispatch::new(&no_handlers, &metrics, None);
    // Epoch 1: the bound is entered, the class materialises and
    // specialises on c(x=5).
    store.groups[0].depth = 1;
    store.groups[0].epoch = 1;
    store.materialize(0, &def, &silent);
    store.apply_event(
        0,
        &def,
        check_sym,
        &[(0, Value(5))],
        false,
        &mut |_| true,
        &silent,
    );
    assert_eq!(store.live_instances(0), 2);
    // The scope is abandoned without finalisation; the next outermost
    // bound entry starts epoch 2.
    store.groups[0].epoch = 2;
    store.groups[0].materialized.clear();
    let rec = Arc::new(RecordingHandler::new());
    let handlers: Vec<Arc<dyn tesla_runtime::EventHandler>> = vec![rec.clone()];
    let recording = tesla_runtime::Dispatch::new(&handlers, &metrics, None);
    store.materialize(0, &def, &recording);
    assert_eq!(
        store.live_instances(0),
        1,
        "epoch-1 instances must not leak into epoch 2"
    );
    // The abandoned epoch-1 instances are *reclaimed* (each reported
    // as `Evicted`, keeping the live gauge exact), then the lifecycle
    // event reports the slot the new (∗) actually landed in.
    let evs = rec.events();
    assert_eq!(evs.len(), 3, "got {evs:?}");
    assert!(
        matches!(
            evs[0],
            tesla_runtime::LifecycleEvent::Evicted {
                class: 0,
                instance: 0
            }
        ),
        "got {:?}",
        evs[0]
    );
    assert!(
        matches!(
            evs[1],
            tesla_runtime::LifecycleEvent::Evicted {
                class: 0,
                instance: 1
            }
        ),
        "got {:?}",
        evs[1]
    );
    assert!(
        matches!(
            evs[2],
            tesla_runtime::LifecycleEvent::New {
                class: 0,
                instance: 0
            }
        ),
        "got {:?}",
        evs[2]
    );
}

#[test]
fn violation_messages_carry_actionable_context() {
    let (t, id) = syscall_poll_engine(InitMode::Lazy, FailMode::FailStop);
    let err = poll_scenario(&t, id, Some(41), Some(42)).unwrap_err();
    let msg = err.to_string();
    // Assertion name, source form and the offending binding are all
    // in the fail-stop message a developer sees.
    assert!(msg.contains("mac_poll"), "{msg}");
    assert!(msg.contains("mac_socket_check_poll"), "{msg}");
    assert!(msg.contains("so=42"), "{msg}");
}

/// The registry counts every class, also those past its dense table
/// of `MAX_DENSE_CLASSES` (1 024) slots: 1 100 classes are
/// registered, and one scope specialises class 5 and class 1 050 alike
/// and reaches both sites. The registry must tally every lifecycle
/// event the stream carried, and report class 1 050 as it reports
/// class 5: its counters, its transitions, its DOT weights and its
/// coverage cells.
#[test]
fn registry_counts_classes_past_its_dense_table() {
    const CLASSES: usize = 1_100;
    let t = Tesla::new(Config {
        telemetry: true,
        ..Config::default()
    });
    let recorded = Arc::new(RecordingHandler::new());
    t.add_handler(recorded.clone());
    let automata = (0..CLASSES)
        .map(|i| {
            let a = AssertionBuilder::within("scope")
                .named(&format!("c{i}"))
                .previously(call(&format!("check_{i}")).arg_var("x").returns(0))
                .build()
                .unwrap();
            compile(&a).unwrap()
        })
        .collect();
    let ids = t.register_batch(automata).unwrap();
    let scope = t.intern_fn("scope");
    t.fn_entry(scope, &[]).unwrap();
    for class in [5, 1_050] {
        let check = t.intern_fn(&format!("check_{class}"));
        let args = [Value(7)];
        t.fn_entry(check, &args).unwrap();
        t.fn_exit(check, &args, Value(0)).unwrap();
        t.assertion_site(ids[class], &args).unwrap();
    }
    t.fn_exit(scope, &[], Value(0)).unwrap();

    let events = recorded.events().len() as u64;
    assert_eq!(events, 12, "New, Clone, 2 Updates and 2 Finalises each");
    let m = t.metrics();
    assert_eq!(m.events_total(), events);
    let snap = m.snapshot();
    let class = |id: u32| {
        snap.classes
            .iter()
            .find(|c| c.class == id)
            .unwrap_or_else(|| panic!("class {id} in the snapshot"))
    };
    let (low, high) = (class(5), class(1_050));
    assert_eq!((low.name.as_str(), high.name.as_str()), ("c5", "c1050"));
    assert_eq!(
        (
            high.news,
            high.clones,
            high.updates,
            high.accepted + high.rejected
        ),
        (
            low.news,
            low.clones,
            low.updates,
            low.accepted + low.rejected
        )
    );
    assert_eq!((high.news, high.clones, high.updates), (1, 1, 2));
    assert_eq!(m.class(1_050).expect("counters").news(), 1);
    let cells = |c: &tesla_runtime::telemetry::ClassSnapshot| {
        c.transitions
            .iter()
            .map(|t| (t.from_state, t.symbol, t.count))
            .collect::<Vec<_>>()
    };
    assert_eq!(cells(low), [(0, 0, 1), (1, 1, 1)]);
    assert_eq!(cells(high), cells(low));
    let defs = t.class_defs();
    let dot = |id: usize| {
        let w = m.weight_source(id as u32).expect("a weight table");
        let dot = tesla_automata::dot::render(&defs[id].automaton, &*w);
        dot.replace(&format!("check_{id}("), "check(")
            .replace(&format!("\"c{id}\""), "\"c\"")
    };
    assert_eq!(dot(1_050), dot(5));
    let coverage = m.coverage_map();
    let covered = |name: &str| coverage.class(name).map(|c| c.covered());
    assert_eq!(covered("c1050"), covered("c5"));
    assert_eq!(covered("c5"), Some(2));
}

/// Under LRU eviction, an earlier clone of one event can take the slot
/// of a later clone's source. The later clone must still report the
/// state its source was in before the event: the weights, coverage
/// cells and flight recorder all read it as the edge the clone took.
#[test]
fn lru_eviction_keeps_a_later_clones_source_state() {
    for compiled in [false, true] {
        reset_thread_state();
        let t = Tesla::new(Config {
            fail_mode: FailMode::Log,
            max_instances: Some(2),
            eviction: EvictionPolicy::Lru,
            ..Config::default()
        });
        let recorded = Arc::new(RecordingHandler::new());
        t.add_handler(recorded.clone());
        let h = || call("h").arg_var("y").returns(0);
        let a = AssertionBuilder::within("req")
            .named("lru_sources")
            .previously(
                ExprBuilder::from(call("k").returns(0))
                    .then(h())
                    .xor(ExprBuilder::from(call("g").arg_var("x").returns(0)).then(h())),
            )
            .build()
            .unwrap();
        let a = Arc::new(compile(&a).unwrap());
        let dfa = compiled.then(|| Arc::new(Dfa::build(&a).expect("guard-free")));
        t.register_batch_compiled(vec![(a, dfa)]).unwrap();
        let [req, g, k, h] = ["req", "g", "k", "h"].map(|f| t.intern_fn(f));
        t.fn_entry(req, &[]).unwrap();
        // (∗) clones (x=1) into slot 1, then moves on k itself.
        t.fn_exit(g, &[Value(1)], Value(0)).unwrap();
        t.fn_exit(k, &[], Value(0)).unwrap();
        // Both instances clone on h(2). The clone from (∗) evicts the
        // least recently touched instance, (x=1), before the clone
        // from (x=1) is placed.
        t.fn_exit(h, &[Value(2)], Value(0)).unwrap();

        let events = recorded.events();
        let x1_state = events
            .iter()
            .find_map(|e| match e {
                LifecycleEvent::Clone {
                    from_instance: 0,
                    to_instance: 1,
                    states,
                    ..
                } => Some(*states),
                _ => None,
            })
            .expect("(x=1) cloned into slot 1");
        let at = events
            .iter()
            .rposition(|e| {
                matches!(
                    e,
                    LifecycleEvent::Clone {
                        from_instance: 1,
                        ..
                    }
                )
            })
            .expect("a clone from slot 1");
        let LifecycleEvent::Update {
            from_states,
            to_states,
            ..
        } = &events[at + 1]
        else {
            panic!("an Update follows the Clone: {:?}", events[at + 1]);
        };
        assert_ne!(*to_states, x1_state);
        assert_eq!(*from_states, x1_state, "compiled: {compiled}");
    }
}

/// Debug builds step the NFA beside every DFA step. A class registered
/// with the DFA of another automaton panics on the first step it
/// takes: here the site, which the DFA moves on and the NFA does not.
#[cfg(debug_assertions)]
#[test]
#[should_panic(
    expected = "DFA step disagrees with the NFA: class 0 (a), row 0, symbol 1 («assertion»)"
)]
fn debug_builds_check_every_dfa_step_against_the_nfa() {
    reset_thread_state();
    let t = Tesla::with_defaults();
    let a = AssertionBuilder::within("req")
        .named("a")
        .previously(call("check").returns(0))
        .build()
        .unwrap();
    let b = AssertionBuilder::within("req")
        .named("b")
        .previously(ExprBuilder::from(call("x").returns(0)).xor(call("y").returns(0)))
        .build()
        .unwrap();
    let dfa = Dfa::build(&compile(&b).unwrap()).map(Arc::new);
    let ids = t
        .register_batch_compiled(vec![(Arc::new(compile(&a).unwrap()), dfa)])
        .unwrap();
    let req = t.intern_fn("req");
    t.fn_entry(req, &[]).unwrap();
    let _ = t.assertion_site(ids[0], &[]);
}

/// `within(main, previously(check(x) == 0))` over a `check` call with
/// `n` arguments, the first 5, and a site with `x = 5`: the check
/// satisfies the site at every argument count. A count that a
/// translator truncated to eight bits read 256 and 512 as 0, skipped
/// the check and raised a false site violation.
#[test]
fn argument_counts_past_255_reach_translators() {
    use tesla_runtime::{IngressEventRef, JsonlSource, TraceWriter};
    let spec = AssertionBuilder::within("main")
        .named("wide_check")
        .previously(call("check").arg_var("x").returns(0))
        .build()
        .unwrap();
    let engine = || {
        reset_thread_state();
        let t = Tesla::new(Config {
            fail_mode: FailMode::Log,
            ..Config::default()
        });
        let id = t.register(compile(&spec).unwrap()).unwrap();
        (t, id)
    };
    for n in [1, 2, 255, 256, 257, 512] {
        let mut args = vec![Value(0); n];
        args[0] = Value(5);

        let (t, id) = engine();
        let (main, check) = (t.intern_fn("main"), t.intern_fn("check"));
        t.fn_entry(main, &[]).unwrap();
        t.fn_entry(check, &args).unwrap();
        t.fn_exit(check, &args, Value(0)).unwrap();
        t.assertion_site(id, &[Value(5)]).unwrap();
        t.fn_exit(main, &[], Value(0)).unwrap();
        assert_eq!(t.violations(), [], "direct hooks, {n} arguments");

        let mut w = TraceWriter::new(Vec::new());
        for ev in [
            IngressEventRef::FnEntry {
                name: "main",
                args: &[],
            },
            IngressEventRef::FnEntry {
                name: "check",
                args: &args,
            },
            IngressEventRef::FnExit {
                name: "check",
                args: &args,
                ret: Value(0),
            },
            IngressEventRef::AssertionSite {
                class: id.0,
                values: &[Value(5)],
            },
            IngressEventRef::FnExit {
                name: "main",
                args: &[],
                ret: Value(0),
            },
        ] {
            w.record(&ev).unwrap();
        }
        let trace = w.finish().unwrap();
        let (t, _) = engine();
        t.drive(&mut JsonlSource::new(trace.as_slice())).unwrap();
        assert_eq!(t.violations(), [], "JSONL trace, {n} arguments");
    }

    // A pattern's argument index is eight bits wide: registration
    // refuses a pattern past it rather than truncate the index.
    let wide = |n: usize| {
        let c = (0..n).fold(call("check"), |c, _| c.any("int"));
        let a = AssertionBuilder::within("main")
            .named("wide_pattern")
            .previously(c.returns(0))
            .build()
            .unwrap();
        Tesla::with_defaults().register(compile(&a).unwrap())
    };
    assert!(wide(255).is_ok());
    assert_eq!(
        wide(256).unwrap_err(),
        tesla_runtime::RegisterError::TooManyArguments(256)
    );
}

/// Each name-keyed hook refuses an id this engine never interned, as a
/// direct hook and as the first event of a batch, which stops there.
/// A field store checks its struct id before its field id.
#[test]
fn name_keyed_hooks_reject_ids_never_interned() {
    use tesla_runtime::{BatchBuf, NameId};
    let t = Tesla::with_defaults();
    let a = AssertionBuilder::within("main")
        .named("known")
        .previously(call("check").returns(0))
        .build()
        .unwrap();
    t.register(compile(&a).unwrap()).unwrap();
    // A watched field: its store has a row, so the struct id must be
    // checked on the row path too.
    let w = AssertionBuilder::within("main")
        .named("watched")
        .previously(field_assign("s", "fld").object_var("o").value_const(2u64))
        .build()
        .unwrap();
    t.register(compile(&w).unwrap()).unwrap();
    let (main, strct) = (t.intern_fn("main"), t.intern_struct("s"));
    let fld = t.intern_field("fld");
    let ghost = NameId(1_000_000);
    let args = [Value(1)];
    type Push = Box<dyn Fn(&mut BatchBuf)>;
    let cases: [(&str, Result<(), Violation>, Push); 7] = [
        (
            "function",
            t.fn_entry(ghost, &args),
            Box::new(move |b| b.push_fn_entry(ghost, &args)),
        ),
        (
            "function",
            t.fn_exit(ghost, &args, Value(0)),
            Box::new(move |b| b.push_fn_exit(ghost, &args, Value(0))),
        ),
        (
            "struct",
            t.field_store(ghost, ghost, Value(1), FieldOp::Assign, Value(2)),
            Box::new(move |b| {
                b.push_field_store(ghost, ghost, Value(1), FieldOp::Assign, Value(2))
            }),
        ),
        (
            "struct",
            t.field_store(ghost, fld, Value(1), FieldOp::Assign, Value(2)),
            Box::new(move |b| b.push_field_store(ghost, fld, Value(1), FieldOp::Assign, Value(2))),
        ),
        (
            "field",
            t.field_store(strct, ghost, Value(1), FieldOp::Assign, Value(2)),
            Box::new(move |b| {
                b.push_field_store(strct, ghost, Value(1), FieldOp::Assign, Value(2))
            }),
        ),
        (
            "selector",
            t.msg_entry(ghost, Value(3), &args),
            Box::new(move |b| b.push_msg_entry(ghost, Value(3), &args)),
        ),
        (
            "selector",
            t.msg_exit(ghost, Value(3), &args, Value(0)),
            Box::new(move |b| b.push_msg_exit(ghost, Value(3), &args, Value(0))),
        ),
    ];
    for (what, direct, push) in cases {
        let want = format!("{what} `#1000000` was never interned by this engine");
        let err = direct.unwrap_err();
        assert_eq!(
            (err.kind, err.detail.as_str()),
            (ViolationKind::UnknownName, &*want)
        );
        let mut batch = BatchBuf::new();
        push(&mut batch);
        batch.push_fn_entry(main, &[]);
        let (idx, err) = t.dispatch_batch(&batch).unwrap_err();
        assert_eq!(idx, 0, "{want}");
        assert_eq!(
            (err.kind, err.detail.as_str()),
            (ViolationKind::UnknownName, &*want)
        );
    }
    assert!(t.violations().is_empty(), "unknown names are not logged");
}
