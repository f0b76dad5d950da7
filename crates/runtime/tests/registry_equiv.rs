//! Both ways into the metrics registry count alike.
//!
//! The engine's own registry ([`Config::telemetry`]) is fed by the
//! store step directly; a registry attached with
//! [`Tesla::add_handler`] decodes the lifecycle events it is sent.
//! One stream drives an engine with both, and the two must agree on
//! every reading: the snapshot, the Prometheus and JSON-counter
//! exports, the coverage map and the DOT weights of each class. The
//! stream covers row steps, an interpreted class with an `incallstack`
//! guard, dedup unions that leave the DFA and that resolve to a row,
//! LRU evictions with degraded-mode shed or overflows (one engine
//! each), site, strict and cleanup violations, and a stale scope
//! reclaimed at the next bound entry. The live gauge and its peak
//! must also equal a count kept by hand from the recorded events.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use tesla_automata::{compile, dot, Automaton, Dfa};
use tesla_runtime::engine::ClassDef;
use tesla_runtime::store::Store;
use tesla_runtime::telemetry::export;
use tesla_runtime::{
    Config, Dispatch, EventHandler, EvictionPolicy, FailMode, LifecycleEvent, MetricsRegistry,
    MetricsSnapshot, RecordingHandler, Tesla, ViolationKind,
};
use tesla_spec::{call, AssertionBuilder, ExprBuilder, Value};

/// The automata of the stream, in registration order.
fn automata() -> Vec<Automaton> {
    let within = |name: &str| AssertionBuilder::within("txn").named(name);
    let checked = within("checked")
        .previously(call("check").arg_var("x").returns(0))
        .build();
    let guarded = within("guarded")
        .body(ExprBuilder::in_callstack("readdir").or(
            ExprBuilder::from(call("vcheck").arg_var("vp").returns(0)).then(ExprBuilder::site()),
        ))
        .build();
    // a(x) and b(x) in either order: the DFA's states are all
    // singletons, so merging an instance that took both with a fresh
    // clone that took one leaves the DFA.
    let merged = within("merged")
        .previously(
            ExprBuilder::from(call("a").arg_var("x").returns(0))
                .or(call("b").arg_var("x").returns(0)),
        )
        .build();
    let strict = within("strict")
        .previously(
            ExprBuilder::from(call("sa").returns(0))
                .then(call("sb").returns(0))
                .strict(),
        )
        .build();
    let audited = within("audited")
        .eventually(call("audit").arg_var("x").returns(0))
        .build();
    [checked, guarded, merged, strict, audited]
        .into_iter()
        .map(|a| compile(&a.unwrap()).unwrap())
        .collect()
}

/// Call `f` with `args` returning 0: entry, then exit.
fn call_ok(t: &Tesla, f: &str, args: &[Value]) {
    let f = t.intern_fn(f);
    t.fn_entry(f, args).unwrap();
    t.fn_exit(f, args, Value(0)).unwrap();
}

/// The stream: three scopes of `txn` over the five classes.
fn drive(t: &Tesla, ids: &[tesla_runtime::ClassId]) {
    let [checked, guarded, merged, _strict, audited] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
    let txn = t.intern_fn("txn");
    let readdir = t.intern_fn("readdir");
    let x = |v: u64| [Value(v)];

    // Scope 1: row steps, the guard, unions and every violation kind.
    t.fn_entry(txn, &[]).unwrap();
    call_ok(t, "check", &x(1));
    t.assertion_site(checked, &x(1)).unwrap();
    t.assertion_site(checked, &x(2)).unwrap(); // site violation
                                               // Guarded: inside readdir the guard passes; outside, a checked vp
                                               // passes and an unchecked one is a site violation.
    t.fn_entry(readdir, &[]).unwrap();
    t.assertion_site(guarded, &x(3)).unwrap();
    t.fn_exit(readdir, &[], Value(0)).unwrap();
    call_ok(t, "vcheck", &x(4));
    t.assertion_site(guarded, &x(4)).unwrap();
    t.assertion_site(guarded, &x(5)).unwrap(); // site violation
                                               // Merged: (x=1) takes a then b; b(1) also clones (∗) into the
                                               // b-state, and the union of the two leaves the DFA. A second a(1)
                                               // steps that set. a(2) twice merges a clone into its own row.
    call_ok(t, "a", &x(1));
    call_ok(t, "b", &x(1));
    call_ok(t, "a", &x(1));
    call_ok(t, "a", &x(2));
    call_ok(t, "a", &x(2));
    t.assertion_site(merged, &x(1)).unwrap();
    t.assertion_site(merged, &x(2)).unwrap();
    // Strict: sa, sb, then sb again out of order.
    call_ok(t, "sa", &[]);
    call_ok(t, "sb", &[]);
    call_ok(t, "sb", &[]); // strict violation
                           // Audited: 6 is audited, 7 is not (cleanup violation).
    t.assertion_site(audited, &x(6)).unwrap();
    call_ok(t, "audit", &x(6));
    t.assertion_site(audited, &x(7)).unwrap();
    t.fn_exit(txn, &[], Value(0)).unwrap();

    // Scope 2: more specialisations of `checked` than its quota holds
    // (evictions and degraded-mode shed, or overflows).
    t.fn_entry(txn, &[]).unwrap();
    for v in 10..20 {
        call_ok(t, "check", &x(v));
    }
    t.assertion_site(checked, &x(19)).unwrap();
    t.fn_exit(txn, &[], Value(0)).unwrap();

    // Scope 3: a quiet one, so every class ends at zero live.
    t.fn_entry(txn, &[]).unwrap();
    call_ok(t, "check", &x(30));
    t.assertion_site(checked, &x(30)).unwrap();
    t.fn_exit(txn, &[], Value(0)).unwrap();
}

/// A stale scope, driven on a store directly: the engine keeps its
/// bound entries and exits balanced, so only an unwound event can
/// abandon one. The dispatch carries `direct` as its tally and
/// `handlers` as the fan-out, as the engine's does.
fn stale_scope(
    class: u32,
    direct: &MetricsRegistry,
    handlers: &[Arc<dyn EventHandler>],
) -> Automaton {
    let a = AssertionBuilder::within("g")
        .named("stale")
        .previously(call("c").arg_var("x").returns(0))
        .build()
        .unwrap();
    let auto = compile(&a).unwrap();
    let check_sym = auto.symbols[0].id;
    let def = ClassDef {
        automaton: Arc::new(auto.clone()),
        compiled: Dfa::build(&auto).map(Arc::new),
        group: 0,
        capacity: 8,
        site_hits: AtomicU64::new(0),
        violation_count: AtomicU64::new(0),
        guard_fns: Vec::new(),
        quota: None,
        eviction: EvictionPolicy::default(),
    };
    direct.on_register(class, &auto);
    for h in handlers {
        h.on_register(class, &auto);
    }
    let faults = MetricsRegistry::new();
    let d = Dispatch::new(handlers, &faults, None).with_tally(Some(direct));
    let mut store = Store::default();
    store.ensure(class as usize + 1, 1);
    store.groups[0].depth = 1;
    store.groups[0].epoch = 1;
    store.materialize(class, &def, &d);
    store.apply_event(
        class,
        &def,
        check_sym,
        &[(0, Value(5))],
        false,
        &mut |_| true,
        &d,
    );
    // The scope is abandoned; the next outermost entry reclaims both
    // instances and starts afresh.
    store.groups[0].epoch = 2;
    store.groups[0].materialized.clear();
    store.materialize(class, &def, &d);
    store.apply_event(
        class,
        &def,
        check_sym,
        &[(0, Value(6))],
        false,
        &mut |_| true,
        &d,
    );
    assert!(store.finalise_class(class, &def, &d).is_none());
    auto
}

/// The snapshot without its hook section: hook calls and latencies
/// come from the dispatch loop's meter, not from lifecycle events, so
/// only the engine's registry has them.
fn lifecycle(m: &MetricsRegistry) -> MetricsSnapshot {
    let mut s = m.snapshot();
    s.hooks.clear();
    s
}

fn without_latency(prom: &str) -> String {
    prom.lines()
        .filter(|l| !l.contains("latency"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Live and peak per class, counted from the recorded events.
fn hand_count(events: &[LifecycleEvent]) -> BTreeMap<u32, (i64, i64)> {
    let mut out: BTreeMap<u32, (i64, i64)> = BTreeMap::new();
    for ev in events {
        let (class, delta) = match *ev {
            LifecycleEvent::New { class, .. } | LifecycleEvent::Clone { class, .. } => (class, 1),
            LifecycleEvent::Finalise { class, .. } | LifecycleEvent::Evicted { class, .. } => {
                (class, -1)
            }
            _ => continue,
        };
        let e = out.entry(class).or_default();
        e.0 += delta;
        e.1 = e.1.max(e.0);
    }
    out
}

fn both_ways_agree(eviction: EvictionPolicy) {
    let t = Tesla::new(Config {
        telemetry: true,
        fail_mode: FailMode::Log,
        max_instances: Some(3),
        eviction,
        ..Config::default()
    });
    let attached = Arc::new(MetricsRegistry::new());
    let recorded = Arc::new(RecordingHandler::new());
    t.add_handler(attached.clone());
    t.add_handler(recorded.clone());
    let mut autos = automata();
    let ids = t.register_batch(autos.clone()).unwrap();
    drive(&t, &ids);
    let handlers: Vec<Arc<dyn EventHandler>> = vec![attached.clone(), recorded.clone()];
    autos.push(stale_scope(ids.len() as u32, t.metrics(), &handlers));

    let direct = t.metrics();
    // The stream reached what it is meant to cover.
    let events = recorded.events();
    let kinds: Vec<ViolationKind> = t.violations().iter().map(|v| v.kind).collect();
    for kind in [
        ViolationKind::Site,
        ViolationKind::Strict,
        ViolationKind::Cleanup,
    ] {
        assert!(kinds.contains(&kind), "no {kind:?} violation in {kinds:?}");
    }
    let count = |f: fn(&LifecycleEvent) -> bool| events.iter().filter(|e| f(e)).count();
    assert!(count(|e| matches!(e, LifecycleEvent::Evicted { class: 5, .. })) == 2);
    match eviction {
        EvictionPolicy::Lru => {
            assert!(count(|e| matches!(e, LifecycleEvent::Evicted { class: 0, .. })) > 0);
            assert!(count(|e| matches!(e, LifecycleEvent::Shed { class: 0 })) > 0);
        }
        EvictionPolicy::Error => {
            assert!(count(|e| matches!(e, LifecycleEvent::Overflow { class: 0 })) > 0);
        }
    }
    // One update of `merged` leaves its DFA, and one starts outside it.
    let dfa = Dfa::build(&autos[2]).expect("guard-free");
    let merged_updates = || {
        events.iter().filter_map(|e| match e {
            LifecycleEvent::Update {
                class: 2,
                from_states,
                to_states,
                ..
            } => Some((dfa.resolve(from_states), dfa.resolve(to_states))),
            _ => None,
        })
    };
    assert!(merged_updates().any(|(from, to)| from.is_some() && to.is_none()));
    assert!(merged_updates().any(|(from, _)| from.is_none()));
    assert!(Dfa::build(&autos[1]).is_none(), "`guarded` is interpreted");

    // The two registries agree on every reading.
    let (a, b) = (lifecycle(direct), lifecycle(&attached));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    let mut with_hooks = attached.snapshot();
    with_hooks.hooks = direct.snapshot().hooks;
    assert_eq!(
        without_latency(&export::prometheus(&direct.snapshot())),
        without_latency(&export::prometheus(&with_hooks))
    );
    assert_eq!(export::json_counters(&a), export::json_counters(&b));
    assert_eq!(direct.coverage_map(), attached.coverage_map());
    assert_eq!(direct.events_total(), events.len() as u64);
    for (class, auto) in autos.iter().enumerate() {
        let (c1, c2) = (direct.class(class as u32), attached.class(class as u32));
        let (w1, w2) = (
            c1.as_deref()
                .and_then(|c| c.weights())
                .expect("direct table"),
            c2.as_deref()
                .and_then(|c| c.weights())
                .expect("attached table"),
        );
        assert_eq!(
            dot::render(auto, w1),
            dot::render(auto, w2),
            "{}",
            auto.name
        );
    }

    // Live and peak, by hand.
    let hand = hand_count(&events);
    for c in &a.classes {
        let (live, peak) = hand[&c.class];
        assert_eq!(
            (c.live, c.high_watermark),
            (live.max(0) as u64, peak as u64),
            "{}",
            c.name
        );
    }
    let checked = a.classes.iter().find(|c| c.name == "checked").unwrap();
    assert_eq!((checked.live, checked.high_watermark), (0, 3));
}

#[test]
fn both_ways_into_the_registry_agree_under_lru_eviction() {
    both_ways_agree(EvictionPolicy::Lru);
}

#[test]
fn both_ways_into_the_registry_agree_under_overflow() {
    both_ways_agree(EvictionPolicy::Error);
}
