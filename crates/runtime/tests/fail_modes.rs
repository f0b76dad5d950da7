//! Every [`FailMode`] variant: a violation must be *delivered*
//! (logged, surfaced per the mode's contract, and visible to event
//! handlers) and the engine must stay *live* afterwards — also while
//! a fault plan is injecting handler panics into the dispatch path.

use std::panic::catch_unwind;
use std::sync::Arc;
use tesla_automata::compile;
use tesla_runtime::{
    Config, FailMode, FaultKind, FaultPlan, FaultSpec, LifecycleEvent, RecordingHandler, Tesla,
};
use tesla_spec::{call, AssertionBuilder, Value};

fn engine(mode: FailMode, faults: Option<Arc<FaultPlan>>) -> (Arc<Tesla>, tesla_runtime::ClassId) {
    tesla_runtime::engine::reset_thread_state();
    let t = Arc::new(Tesla::new(Config {
        fail_mode: mode,
        telemetry: true,
        faults,
        ..Config::default()
    }));
    let a = AssertionBuilder::within("req")
        .named("req_check")
        .previously(call("check").arg_var("x").returns(0))
        .build()
        .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    (t, id)
}

/// Drive one scope: `check(ok)` passes its site; if `bad` is given,
/// a site for a value `check` never returned follows — a violation.
/// Returns the site results (pass, violation-or-Ok).
fn scope(
    t: &Tesla,
    id: tesla_runtime::ClassId,
    ok: u64,
    bad: Option<u64>,
) -> (
    Result<(), tesla_runtime::Violation>,
    Result<(), tesla_runtime::Violation>,
) {
    let req = t.intern_fn("req");
    let check = t.intern_fn("check");
    t.fn_entry(req, &[]).unwrap();
    let args = [Value(ok)];
    t.fn_entry(check, &args).unwrap();
    t.fn_exit(check, &args, Value(0)).unwrap();
    let pass = t.assertion_site(id, &[Value(ok)]);
    let fail = match bad {
        Some(b) => t.assertion_site(id, &[Value(b)]),
        None => Ok(()),
    };
    let _ = t.fn_exit(req, &[], Value(0));
    (pass, fail)
}

#[test]
fn fail_stop_returns_the_violation_and_stays_live() {
    let (t, id) = engine(FailMode::FailStop, None);
    let rec = Arc::new(RecordingHandler::new());
    t.add_handler(rec.clone());
    let (pass, fail) = scope(&t, id, 1, Some(2));
    assert!(pass.is_ok());
    let v = fail.unwrap_err();
    assert_eq!(v.assertion, "req_check");
    assert_eq!(t.violations().len(), 1);
    // Handlers saw the Error lifecycle event (delivery, not just the
    // returned value).
    assert!(rec
        .events()
        .iter()
        .any(|e| matches!(e, LifecycleEvent::Error { .. })));
    // Liveness: a fresh scope still checks correctly.
    let (pass, fail) = scope(&t, id, 3, Some(4));
    assert!(pass.is_ok());
    assert!(fail.is_err());
    assert_eq!(t.violations().len(), 2);
}

#[test]
fn log_mode_logs_and_continues() {
    let (t, id) = engine(FailMode::Log, None);
    let (pass, fail) = scope(&t, id, 1, Some(2));
    assert!(pass.is_ok());
    assert!(fail.is_ok(), "Log mode must not surface an Err");
    assert_eq!(t.violations().len(), 1);
    let (_, fail) = scope(&t, id, 3, Some(4));
    assert!(fail.is_ok());
    assert_eq!(t.violations().len(), 2);
}

#[test]
fn zero_limits_are_rejected_with_typed_errors() {
    use tesla_runtime::ConfigError;
    let cases: [(Config, ConfigError); 2] = [
        (
            Config {
                instance_capacity: 0,
                ..Config::default()
            },
            ConfigError::ZeroInstanceCapacity,
        ),
        (
            Config {
                max_instances: Some(0),
                ..Config::default()
            },
            ConfigError::ZeroMaxInstances,
        ),
    ];
    for (cfg, want) in cases {
        assert_eq!(Tesla::try_new(cfg).err(), Some(want));
    }
    // And the panicking constructor reports the same diagnosis instead
    // of a store that can never hold an instance.
    let err = catch_unwind(|| {
        Tesla::new(Config {
            instance_capacity: 0,
            ..Config::default()
        })
    })
    .err()
    .expect("zero capacity must panic in Tesla::new");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("instance_capacity"), "panic payload: {msg}");
}

#[test]
fn all_modes_deliver_under_injected_handler_panics() {
    tesla_runtime::faults::silence_injected_panics();
    for mode in [FailMode::FailStop, FailMode::Log] {
        let plan = Arc::new(FaultPlan::new(
            42,
            FaultSpec::none().with(FaultKind::HandlerPanic, 2),
        ));
        let (t, id) = engine(mode, Some(plan.clone()));
        let rec = Arc::new(RecordingHandler::new());
        t.add_handler(rec.clone());
        // Injected handler panics are absorbed, never unwound into the
        // host.
        let (pass, fail) = scope(&t, id, 1, Some(2));
        assert!(pass.is_ok(), "mode {mode:?}");
        assert_eq!(fail.is_err(), mode == FailMode::FailStop, "mode {mode:?}");
        // Delivery survived the panicking dispatch path: the violation
        // is in the log and handlers behind the injected panic still
        // saw the Error event.
        assert_eq!(t.violations().len(), 1, "mode {mode:?}");
        assert!(
            rec.events()
                .iter()
                .any(|e| matches!(e, LifecycleEvent::Error { .. })),
            "mode {mode:?}"
        );
        // Every injected panic was absorbed and accounted.
        let l = plan.ledger();
        assert!(l.balanced(), "mode {mode:?}: {l}");
        assert!(l.total_injected() > 0, "mode {mode:?}");
        assert_eq!(
            t.metrics().handler_panics(),
            l.total_injected(),
            "mode {mode:?}"
        );
        // Liveness after the chaos: one more scope with no violation,
        // which must pass cleanly.
        let (pass, _) = scope(&t, id, 7, None);
        assert!(pass.is_ok(), "mode {mode:?}");
    }
}
