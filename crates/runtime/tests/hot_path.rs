//! The steady-state hook path allocates nothing. A counting global
//! allocator (its counter is thread-local, so tests running on other
//! threads do not add to it) watches 1 000 rounds of one per-thread
//! class, through the per-event hooks and through `dispatch_batch`
//! (each with telemetry off and on), through ring staging and through
//! the JSONL line decoder. A second test pins the re-entrancy contract
//! of the per-thread snapshot cache.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tesla_automata::compile;
use tesla_runtime::handlers::CallbackHandler;
use tesla_runtime::ingress::jsonl::format_event;
use tesla_runtime::ingress::{LineDecoder, TRACE_HEADER};
use tesla_runtime::{
    BatchBuf, BatchIngress, ClassId, Config, EventProducer, FailMode, IngressEventRef, InitMode,
    LifecycleEvent, NameId, Tesla, Violation,
};
use tesla_spec::{call, AssertionBuilder, StaticEvent, Value};

const ROUNDS: u64 = 1_000;

struct Names {
    scope: NameId,
    check: NameId,
}

/// One per-thread class, lazy init: `previously(check(x) == 0)`
/// within each `txn`. Telemetry feeds the engine's registry, which
/// counts a clone, two updates and two finalises per round.
fn engine_with(fail_mode: FailMode, telemetry: bool) -> (Tesla, ClassId, Names) {
    let t = Tesla::new(Config {
        fail_mode,
        init_mode: InitMode::Lazy,
        telemetry,
        ..Config::default()
    });
    let a = AssertionBuilder::bounded(
        StaticEvent::Call("txn".to_string()),
        StaticEvent::ReturnFrom("txn".to_string()),
    )
    .named("hot")
    .previously(call("check").arg_var("x").returns(0))
    .build()
    .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let names = Names {
        scope: t.intern_fn("txn"),
        check: t.intern_fn("check"),
    };
    (t, id, names)
}

/// [`engine_with`], telemetry off.
fn engine(fail_mode: FailMode) -> (Tesla, ClassId, Names) {
    engine_with(fail_mode, false)
}

/// Scope entry, `check(x)` entry and exit, the site, scope exit; every
/// event passes.
fn round(t: &Tesla, id: ClassId, n: &Names, x: u64) {
    let args = [Value(x)];
    t.fn_entry(n.scope, &[]).unwrap();
    t.fn_entry(n.check, &args).unwrap();
    t.fn_exit(n.check, &args, Value(0)).unwrap();
    t.assertion_site(id, &args).unwrap();
    t.fn_exit(n.scope, &[], Value(0)).unwrap();
}

fn fill(batch: &mut BatchBuf, id: ClassId, n: &Names, x: u64) {
    let args = [Value(x)];
    batch.clear();
    batch.push_fn_entry(n.scope, &[]);
    batch.push_fn_entry(n.check, &args);
    batch.push_fn_exit(n.check, &args, Value(0));
    batch.push_site(id, &args);
    batch.push_fn_exit(n.scope, &[], Value(0));
}

fn stage(p: &mut EventProducer, id: ClassId, n: &Names, x: u64) -> bool {
    let args = [Value(x)];
    p.fn_entry(n.scope, &[])
        && p.fn_entry(n.check, &args)
        && p.fn_exit(n.check, &args, Value(0))
        && p.site(id, &args)
        && p.fn_exit(n.scope, &[], Value(0))
}

/// Every round of a telemetered engine reached the registry.
fn assert_tallied(t: &Tesla, id: ClassId) {
    if t.telemetry_enabled() {
        let c = t.metrics().class(id.0).expect("class counters");
        assert_eq!((c.news(), c.clones()), (ROUNDS + 1, ROUNDS + 1));
    }
}

fn hooks_allocate_nothing(telemetry: bool) {
    let (t, id, n) = engine_with(FailMode::FailStop, telemetry);
    // Warm-up epoch: thread caches, store tables and scratch buffers
    // reach their steady size.
    round(&t, id, &n, 0);
    let allocs = allocations_during(|| {
        for x in 1..=ROUNDS {
            round(&t, id, &n, x);
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations over {ROUNDS} rounds");
    assert!(t.violations().is_empty());
    assert_eq!(t.coverage()[0].1, ROUNDS + 1);
    assert_eq!(t.live_instances_here(id), 0);
    assert_tallied(&t, id);
}

#[test]
fn steady_state_hooks_allocate_nothing() {
    hooks_allocate_nothing(false);
}

/// With telemetry on, the store step counts each round's clone into
/// the registry, which must not copy the clone's bindings.
#[test]
fn telemetered_hooks_allocate_nothing() {
    hooks_allocate_nothing(true);
}

fn dispatch_batch_allocates_nothing(telemetry: bool) {
    let (t, id, n) = engine_with(FailMode::FailStop, telemetry);
    let mut batch = BatchBuf::with_capacity(8);
    fill(&mut batch, id, &n, 0);
    t.dispatch_batch(&batch).unwrap();
    let allocs = allocations_during(|| {
        for x in 1..=ROUNDS {
            fill(&mut batch, id, &n, x);
            t.dispatch_batch(&batch).unwrap();
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations over {ROUNDS} batches");
    assert!(t.violations().is_empty());
    assert_eq!(t.coverage()[0].1, ROUNDS + 1);
    assert_eq!(t.live_instances_here(id), 0);
    assert_tallied(&t, id);
}

#[test]
fn steady_state_dispatch_batch_allocates_nothing() {
    dispatch_batch_allocates_nothing(false);
}

#[test]
fn telemetered_dispatch_batch_allocates_nothing() {
    dispatch_batch_allocates_nothing(true);
}

#[test]
fn event_producer_staging_allocates_nothing() {
    let (t, id, n) = engine(FailMode::FailStop);
    // Room for every round: 10 words each.
    let ingress = BatchIngress::new(1 << 15);
    let mut p = ingress.producer();
    assert!(stage(&mut p, id, &n, 0));
    let allocs = allocations_during(|| {
        for x in 1..=ROUNDS {
            assert!(stage(&mut p, id, &n, x));
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations staging {ROUNDS} rounds");
    // The staged rounds drain to clean verdicts.
    assert_eq!(t.drain_ingress(&ingress).unwrap(), 5 * (ROUNDS + 1));
    assert!(t.violations().is_empty());
    assert_eq!(t.coverage()[0].1, ROUNDS + 1);
}

/// A recorded trace of `round`'s five events, `rounds` times, with
/// plain names. Every value has the same width, so the first round
/// sizes every buffer the decoder reuses.
fn trace(rounds: u64) -> String {
    let mut text = format!("{TRACE_HEADER}\n");
    for x in 0..rounds {
        let args = [Value(10_000 + x)];
        for ev in [
            IngressEventRef::FnEntry {
                name: "txn",
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
                class: 0,
                values: &args,
            },
            IngressEventRef::FnExit {
                name: "txn",
                args: &[],
                ret: Value(0),
            },
        ] {
            text.push_str(&format_event(&ev));
            text.push('\n');
        }
    }
    text
}

#[test]
fn steady_state_line_decode_allocates_nothing() {
    let text = trace(ROUNDS + 1);
    let mut decoder = LineDecoder::new(text.as_bytes());
    // Warm-up round: the line buffer and the scratch buffers reach
    // their steady size.
    for _ in 0..5 {
        assert!(decoder.next_event_ref().unwrap().is_some());
    }
    let mut events = 0;
    let allocs = allocations_during(|| {
        while decoder.next_event_ref().unwrap().is_some() {
            events += 1;
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations decoding {ROUNDS} rounds");
    assert_eq!(events, 5 * ROUNDS);
}

/// A handler that, on the first `New`, registers a class and fires a
/// nested hook on the same thread and engine. The nested hook must see
/// the newly published snapshot (the late class resolves), and the
/// outer hook must finish on the snapshot it started with. A design
/// that holds a borrow of the thread's snapshot cache across the hook
/// panics in the nested call instead.
#[test]
fn hook_reentered_from_a_handler_sees_the_new_snapshot() {
    let (t, id, n) = engine(FailMode::Log);
    let t = Arc::new(t);
    let nested: Arc<Mutex<Option<Result<ClassId, Violation>>>> = Arc::new(Mutex::new(None));
    let fired = AtomicBool::new(false);
    let handler = {
        // Weak: the engine owns its handlers.
        let engine = Arc::downgrade(&t);
        let nested = nested.clone();
        CallbackHandler::new(move |ev| {
            if !matches!(ev, LifecycleEvent::New { .. }) || fired.swap(true, Ordering::Relaxed) {
                return;
            }
            let t = engine.upgrade().expect("engine outlives its hooks");
            let late = AssertionBuilder::bounded(
                StaticEvent::Call("late_start".to_string()),
                StaticEvent::ReturnFrom("late_end".to_string()),
            )
            .global()
            .named("late")
            .previously(call("late_check").arg_var("v").returns(0))
            .build()
            .unwrap();
            let late = t.register(compile(&late).unwrap()).unwrap();
            // Outside its bound the late site is unchecked: `Ok` only
            // if this hook resolved the class in the new snapshot.
            let r = t.assertion_site(late, &[Value(1)]).map(|()| late);
            *nested.lock().unwrap() = Some(r);
        })
    };
    t.add_handler(Arc::new(handler));

    round(&t, id, &n, 7);

    let late = nested
        .lock()
        .unwrap()
        .take()
        .expect("the nested hook ran to completion")
        .expect("the nested hook resolved the late class");
    assert_eq!(late, ClassId(1));
    assert_eq!(t.n_classes(), 2);
    assert_eq!(t.metrics().handler_panics(), 0);
    assert!(t.violations().is_empty());
    // The outer event completed: its site counted and its bound was
    // finalised.
    let cov = t.coverage();
    assert_eq!((cov[0].1, cov[0].2), (1, 0));
    assert_eq!(t.live_instances_here(id), 0);
    // Later hooks run on the new snapshot.
    round(&t, id, &n, 8);
    assert!(t.violations().is_empty());
    assert_eq!(t.coverage()[0].1, 2);
}
