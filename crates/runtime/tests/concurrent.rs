//! Concurrent Global-context dispatch: N threads hammer the hooks at
//! once, against shared and disjoint bound groups, while snapshots
//! are swapped under traffic. Violations must never be lost, instance
//! counts must be exact, and a late `register` must be safe.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use tesla_automata::compile;
use tesla_runtime::{
    Config, FailMode, FlightRecorder, HookKind, MetricsRegistry, Tesla, ViolationKind,
};
use tesla_spec::{call, AssertionBuilder, StaticEvent, Value};

fn global_assertion(name: &str, start: &str, end: &str, check: &str) -> tesla_spec::Assertion {
    AssertionBuilder::bounded(
        StaticEvent::Call(start.to_string()),
        StaticEvent::ReturnFrom(end.to_string()),
    )
    .global()
    .named(name)
    .previously(call(check).arg_var("v").returns(0))
    .build()
    .unwrap()
}

fn log_engine() -> Arc<Tesla> {
    // Capacity sized for the cross-thread specialisation counts below.
    Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        instance_capacity: 4096,
        ..Config::default()
    }))
}

/// One Global bound group shared by every thread: producers emit
/// disjoint value ranges, sites for produced values pass, sites for
/// unproduced values are violations — and none may be lost.
#[test]
fn shared_group_loses_no_violations_or_instances() {
    const THREADS: u64 = 4;
    const PRODUCED: u64 = 50;
    const VIOLATIONS: u64 = 7;
    let t = log_engine();
    let a = global_assertion("shared", "job_start", "job_end", "produce");
    let id = t.register(compile(&a).unwrap()).unwrap();
    let start = t.intern_fn("job_start");
    let end = t.intern_fn("job_end");
    let produce = t.intern_fn("produce");

    // The bound is held open by the main thread for the whole run.
    t.fn_entry(start, &[]).unwrap();
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let t = t.clone();
            std::thread::spawn(move || {
                for i in 0..PRODUCED {
                    let v = w * 1_000 + i;
                    let args = [Value(v)];
                    t.fn_entry(produce, &args).unwrap();
                    t.fn_exit(produce, &args, Value(0)).unwrap();
                    // A produced value always passes its site.
                    t.assertion_site(id, &[Value(v)]).unwrap();
                }
                for _ in 0..VIOLATIONS {
                    // Never produced by anyone: a real violation.
                    t.assertion_site(id, &[Value(900_000 + w)]).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    // Exact instance count in the shared store: (∗) plus one
    // specialisation per produced value.
    assert_eq!(t.live_instances_here(id), 1 + (THREADS * PRODUCED) as usize);
    // Every violating site was recorded, none lost to racing threads.
    assert_eq!(t.violations().len(), (THREADS * VIOLATIONS) as usize);
    // The shared class's coverage counters lost no increment either.
    let cov = t.coverage();
    assert_eq!(cov[0].1, THREADS * (PRODUCED + VIOLATIONS));
    assert_eq!(cov[0].2, THREADS * VIOLATIONS);
    t.fn_exit(end, &[], Value(0)).unwrap();
    assert_eq!(t.live_instances_here(id), 0);
}

/// The `kernel-oltp` shape: one *per-thread* class shared by two
/// threads, each running its own bounds in its own store. The class's
/// coverage counters are the only state both threads write; their
/// totals must be exact, and each thread's store must end empty.
#[test]
fn shared_per_thread_class_counts_exactly() {
    const THREADS: u64 = 2;
    const TXNS: u64 = 500;
    let t = log_engine();
    let a = AssertionBuilder::bounded(
        StaticEvent::Call("txn".to_string()),
        StaticEvent::ReturnFrom("txn".to_string()),
    )
    .named("per_thread")
    .previously(call("check").arg_var("v").returns(0))
    .build()
    .unwrap();
    let id = t.register(compile(&a).unwrap()).unwrap();
    let txn = t.intern_fn("txn");
    let check = t.intern_fn("check");
    let start = Arc::new(Barrier::new(THREADS as usize));
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let (t, start) = (t.clone(), start.clone());
            std::thread::spawn(move || {
                // Both threads run their bounds at the same time.
                start.wait();
                for i in 0..TXNS {
                    let args = [Value(w * 1_000_000 + i)];
                    t.fn_entry(txn, &[]).unwrap();
                    t.fn_entry(check, &args).unwrap();
                    t.fn_exit(check, &args, Value(0)).unwrap();
                    t.assertion_site(id, &args).unwrap();
                    if i % 10 == 0 {
                        // Checked by nobody in this bound: a violation.
                        t.assertion_site(id, &[Value(u64::MAX - w)]).unwrap();
                    }
                    t.fn_exit(txn, &[], Value(0)).unwrap();
                }
                t.live_instances_here(id)
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().unwrap(), 0, "a thread's store kept instances");
    }
    let violations = THREADS * TXNS.div_ceil(10);
    let cov = t.coverage();
    assert_eq!(cov[0].1, THREADS * TXNS + violations);
    assert_eq!(cov[0].2, violations);
    assert_eq!(t.violations().len(), violations as usize);
}

/// Disjoint Global bound groups: each thread drives its own group
/// (its own shard); verdicts and counts stay per-group exact.
#[test]
fn disjoint_groups_do_not_interfere() {
    const THREADS: usize = 4;
    const ITERS: u64 = 200;
    let t = log_engine();
    let ids: Vec<_> = (0..THREADS)
        .map(|w| {
            let a = global_assertion(
                &format!("disjoint_{w}"),
                &format!("start_{w}"),
                &format!("end_{w}"),
                &format!("check_{w}"),
            );
            t.register(compile(&a).unwrap()).unwrap()
        })
        .collect();
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let t = t.clone();
            let id = ids[w];
            std::thread::spawn(move || {
                let start = t.intern_fn(&format!("start_{w}"));
                let end = t.intern_fn(&format!("end_{w}"));
                let check = t.intern_fn(&format!("check_{w}"));
                for i in 0..ITERS {
                    t.fn_entry(start, &[]).unwrap();
                    let args = [Value(i)];
                    t.fn_entry(check, &args).unwrap();
                    t.fn_exit(check, &args, Value(0)).unwrap();
                    t.assertion_site(id, &[Value(i)]).unwrap();
                    if i % 10 == 0 {
                        // One deliberate violation per ten iterations.
                        t.assertion_site(id, &[Value(i + 1)]).unwrap();
                    }
                    t.fn_exit(end, &[], Value(0)).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let per_thread_violations = ITERS.div_ceil(10);
    assert_eq!(
        t.violations().len(),
        THREADS * per_thread_violations as usize
    );
    // Per-class coverage is exact: every site hit and every violation
    // is attributed to the class whose thread produced it.
    for (name, hits, viols) in t.coverage() {
        assert_eq!(hits, ITERS + per_thread_violations, "{name}");
        assert_eq!(viols, per_thread_violations, "{name}");
    }
    // All groups were finalised; no instances linger in any shard.
    for &id in &ids {
        assert_eq!(t.live_instances_here(id), 0);
    }
}

/// A snapshot swap during traffic: worker threads hammer an existing
/// class while the main thread registers new classes. No events may
/// be dropped or misrouted, and the late classes must work.
#[test]
fn snapshot_swap_under_traffic_is_safe() {
    const THREADS: u64 = 4;
    const ITERS: u64 = 500;
    const LATE_CLASSES: usize = 16;
    let t = log_engine();
    let a = global_assertion("base", "job_start", "job_end", "produce");
    let id = t.register(compile(&a).unwrap()).unwrap();
    let start = t.intern_fn("job_start");
    let end = t.intern_fn("job_end");
    let produce = t.intern_fn("produce");

    t.fn_entry(start, &[]).unwrap();
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let t = t.clone();
            std::thread::spawn(move || {
                for i in 0..ITERS {
                    let v = w * 100_000 + i;
                    let args = [Value(v)];
                    t.fn_entry(produce, &args).unwrap();
                    t.fn_exit(produce, &args, Value(0)).unwrap();
                    t.assertion_site(id, &[Value(v)]).unwrap();
                }
            })
        })
        .collect();
    // Swap snapshots while the workers run.
    let late: Vec<_> = (0..LATE_CLASSES)
        .map(|k| {
            let a = global_assertion(
                &format!("late_{k}"),
                &format!("late_start_{k}"),
                &format!("late_end_{k}"),
                &format!("late_check_{k}"),
            );
            t.register(compile(&a).unwrap()).unwrap()
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    // No worker event was lost across the swaps.
    assert!(t.violations().is_empty());
    assert_eq!(t.live_instances_here(id), 1 + (THREADS * ITERS) as usize);
    t.fn_exit(end, &[], Value(0)).unwrap();
    // Every late class is live and enforces end to end.
    assert_eq!(t.n_classes(), 1 + LATE_CLASSES);
    for (k, &lid) in late.iter().enumerate() {
        let s = t.intern_fn(&format!("late_start_{k}"));
        let e = t.intern_fn(&format!("late_end_{k}"));
        let c = t.intern_fn(&format!("late_check_{k}"));
        t.fn_entry(s, &[]).unwrap();
        let args = [Value(k as u64)];
        t.fn_entry(c, &args).unwrap();
        t.fn_exit(c, &args, Value(0)).unwrap();
        t.assertion_site(lid, &[Value(k as u64)]).unwrap();
        t.fn_exit(e, &[], Value(0)).unwrap();
    }
    assert!(t.violations().is_empty());
}

/// Full telemetry under 8-thread dispatch: the metrics registry, a
/// flight recorder and the counting handler all ride along, a reader
/// thread takes snapshots throughout, and at the end every counter
/// must be *exact* — no event lost, none double-counted — while
/// concurrent snapshots only ever observe monotone totals.
#[test]
fn telemetry_counters_are_exact_under_parallel_dispatch() {
    const THREADS: u64 = 8;
    const PRODUCED: u64 = 40;
    const VIOLATIONS: u64 = 5;
    let t = Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        instance_capacity: 4096,
        telemetry: true,
        ..Config::default()
    }));
    let recorder = Arc::new(FlightRecorder::new(1 << 14));
    // A second registry, attached as a plain handler beside the
    // engine's own: both must tally the same stream.
    let second = Arc::new(MetricsRegistry::new());
    t.add_handler(recorder.clone());
    t.add_handler(second.clone());
    let a = global_assertion("telemetry", "job_start", "job_end", "produce");
    let id = t.register(compile(&a).unwrap()).unwrap();
    let start = t.intern_fn("job_start");
    let end = t.intern_fn("job_end");
    let produce = t.intern_fn("produce");

    // A reader thread snapshots while the hammering runs: totals must
    // only grow, and snapshotting must never panic or deadlock.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (t, recorder, stop) = (t.clone(), recorder.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut last_events = 0u64;
            let mut iters = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let s = t.metrics().snapshot();
                assert!(s.events_total >= last_events, "events_total went backwards");
                last_events = s.events_total;
                let _ = recorder.snapshot();
                iters += 1;
            }
            iters
        })
    };

    t.fn_entry(start, &[]).unwrap();
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let t = t.clone();
            std::thread::spawn(move || {
                for i in 0..PRODUCED {
                    let v = w * 1_000 + i;
                    let args = [Value(v)];
                    t.fn_entry(produce, &args).unwrap();
                    t.fn_exit(produce, &args, Value(0)).unwrap();
                    t.assertion_site(id, &[Value(v)]).unwrap();
                }
                for _ in 0..VIOLATIONS {
                    t.assertion_site(id, &[Value(900_000 + w)]).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    t.fn_exit(end, &[], Value(0)).unwrap();
    stop.store(true, Ordering::Relaxed);
    assert!(reader.join().unwrap() > 0);

    // Expected lifecycle arithmetic for the shared-group pattern:
    // one (∗) New; one Clone per produced value; each Clone pairs
    // with an Update and each passing site adds another; each
    // unproduced site is an Error; «cleanup» finalises (∗) and every
    // specialisation.
    let news = 1;
    let clones = THREADS * PRODUCED;
    let updates = 2 * THREADS * PRODUCED;
    let errors = THREADS * VIOLATIONS;
    let finalises = 1 + THREADS * PRODUCED;
    let m = t.metrics();

    assert_eq!(m.violations(), errors);
    assert_eq!(
        m.events_total(),
        news + clones + updates + errors + finalises
    );

    let snap = m.snapshot();
    let c = snap
        .classes
        .iter()
        .find(|c| c.class == id.0)
        .expect("class metrics");
    assert_eq!(c.news, news);
    assert_eq!(c.clones, clones);
    assert_eq!(c.updates, updates);
    assert_eq!(c.accepted + c.rejected, finalises);
    assert_eq!(c.live, 0);
    assert_eq!(c.high_watermark, 1 + THREADS * PRODUCED);

    // No-lost-counter: the second registry saw the exact same stream
    // as the engine's.
    let s2 = second.snapshot();
    let c2 = s2
        .classes
        .iter()
        .find(|c| c.class == id.0)
        .expect("second registry's class metrics");
    assert_eq!(c2.news, c.news);
    assert_eq!(c2.clones, c.clones);
    assert_eq!(c2.updates, c.updates);
    assert_eq!(second.violations(), errors);
    assert_eq!(c2.accepted + c2.rejected, finalises);

    // Transition weights agree between both tables, and their total
    // equals the Update count (one edge firing per Update).
    let rw = m.weight_source(id.0).expect("registry weights");
    let cw = second.weight_source(id.0).expect("second registry weights");
    let rt: u64 = rw.nonzero().iter().map(|&(_, _, n)| n).sum();
    let ct: u64 = cw.nonzero().iter().map(|&(_, _, n)| n).sum();
    assert_eq!(rt, updates);
    assert_eq!(ct, updates);
    assert_eq!(rw.nonzero(), cw.nonzero());

    // Hook instrumentation totals are exact too.
    assert_eq!(m.hook_calls(HookKind::FnEntry), 1 + THREADS * PRODUCED);
    assert_eq!(m.hook_calls(HookKind::FnExit), 1 + THREADS * PRODUCED);
    assert_eq!(
        m.hook_calls(HookKind::AssertionSite),
        THREADS * (PRODUCED + VIOLATIONS)
    );
    // Latency histograms are sampled (one-in-N per thread): bounded
    // by the exact call count, and non-empty because each thread's
    // first hook is always sampled.
    let lat = m.hook_latency(HookKind::AssertionSite);
    assert!(lat.count > 0 && lat.count <= THREADS * (PRODUCED + VIOLATIONS));

    // The flight recorder captured the whole stream: every ring was
    // big enough, so nothing was overwritten and the merged snapshot
    // is the complete, timestamp-ordered event log.
    assert_eq!(recorder.overwritten(), 0);
    assert_eq!(recorder.total_recorded(), m.events_total());
    let log = recorder.snapshot();
    assert_eq!(log.len() as u64, m.events_total());
    assert!(log.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    assert!(
        recorder.thread_count() >= 2,
        "worker threads got their own rings"
    );
}

/// Regression: the per-thread snapshot cache (one-slot active engine
/// plus the per-engine map) must never serve a *dropped* engine's
/// snapshot to a successor engine on the same thread — neither with
/// nor without an explicit `reset_thread_state` in between.
#[test]
fn dropped_engine_snapshot_cache_does_not_leak_into_successor() {
    fn drive_passing_cycle(t: &Tesla, id: tesla_runtime::ClassId, prefix: &str, v: u64) {
        let start = t.intern_fn(&format!("{prefix}_start"));
        let end = t.intern_fn(&format!("{prefix}_end"));
        let check = t.intern_fn(&format!("{prefix}_check"));
        t.fn_entry(start, &[]).unwrap();
        let args = [Value(v)];
        t.fn_entry(check, &args).unwrap();
        t.fn_exit(check, &args, Value(0)).unwrap();
        t.assertion_site(id, &[Value(v)]).unwrap();
        t.fn_exit(end, &[], Value(0)).unwrap();
    }

    // Engine A populates this thread's cache (hooks on this very
    // thread) and is then dropped mid-bound, with live instances and
    // a recorded violation in its snapshot.
    let a = log_engine();
    let a_class = {
        let spec = global_assertion("cache_a", "a_start", "a_end", "a_check");
        a.register(compile(&spec).unwrap()).unwrap()
    };
    drive_passing_cycle(&a, a_class, "a", 7);
    let start = a.intern_fn("a_start");
    a.fn_entry(start, &[]).unwrap();
    a.assertion_site(a_class, &[Value(999)]).unwrap(); // logged violation
    assert_eq!(a.violations().len(), 1);
    drop(a);

    // Engine B on the same thread, no reset: A's cached snapshot
    // (which *has* a class at a_class's index) must not answer for B,
    // whose snapshot has no classes yet.
    let b = log_engine();
    let err = b.assertion_site(a_class, &[Value(7)]).unwrap_err();
    assert_eq!(err.kind, ViolationKind::UnknownName);
    let b_class = {
        let spec = global_assertion("cache_b", "b_start", "b_end", "b_check");
        b.register(compile(&spec).unwrap()).unwrap()
    };
    drive_passing_cycle(&b, b_class, "b", 11);
    // B's verdicts are its own: A's logged violation did not carry
    // over, and B's bound was finalised cleanly.
    assert!(b.violations().is_empty());
    assert_eq!(b.live_instances_here(b_class), 0);
    drop(b);

    // Same again after an explicit thread-state reset: a fresh engine
    // must behave identically from a cold cache.
    tesla_runtime::engine::reset_thread_state();
    let c = log_engine();
    let err = c.assertion_site(a_class, &[Value(7)]).unwrap_err();
    assert_eq!(err.kind, ViolationKind::UnknownName);
    let c_class = {
        let spec = global_assertion("cache_c", "c_start", "c_end", "c_check");
        c.register(compile(&spec).unwrap()).unwrap()
    };
    drive_passing_cycle(&c, c_class, "c", 13);
    assert!(c.violations().is_empty());

    // And resetting *while an engine is live* only costs the cache:
    // the engine's own state (snapshot, stores, verdicts) survives.
    tesla_runtime::engine::reset_thread_state();
    drive_passing_cycle(&c, c_class, "c", 14);
    assert!(c.violations().is_empty());
}

/// The flight recorder, the bounded recorder, under the same parallel
/// load: each thread's ring must stay at its cap, count what it
/// overwrote, and never lose the *newest* events.
#[test]
fn bounded_recorder_caps_memory_under_parallel_load() {
    const THREADS: u64 = 4;
    const PRODUCED: u64 = 100;
    const CAP: usize = 64;
    let t = log_engine();
    let rec = Arc::new(FlightRecorder::new(CAP));
    t.add_handler(rec.clone());
    let a = global_assertion("bounded", "job_start", "job_end", "produce");
    let id = t.register(compile(&a).unwrap()).unwrap();
    let start = t.intern_fn("job_start");
    let end = t.intern_fn("job_end");
    let produce = t.intern_fn("produce");

    t.fn_entry(start, &[]).unwrap();
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let t = t.clone();
            std::thread::spawn(move || {
                for i in 0..PRODUCED {
                    let v = w * 1_000 + i;
                    let args = [Value(v)];
                    t.fn_entry(produce, &args).unwrap();
                    t.fn_exit(produce, &args, Value(0)).unwrap();
                    t.assertion_site(id, &[Value(v)]).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    t.fn_exit(end, &[], Value(0)).unwrap();

    // New + per-value (Clone + 2 Updates) + finalises.
    let total = 1 + 3 * THREADS * PRODUCED + (1 + THREADS * PRODUCED);
    assert_eq!(rec.capacity(), CAP);
    assert_eq!(rec.total_recorded(), total);
    // The main thread and every worker each wrote more than a ring's
    // worth.
    assert_eq!(rec.thread_count(), THREADS as usize + 1);
    let events = rec.snapshot();
    assert_eq!(events.len(), rec.thread_count() * CAP);
    assert_eq!(rec.overwritten(), total - events.len() as u64);
    // Each ring keeps its newest events: the very last lifecycle
    // events of the run («cleanup» finalisations, on the main thread)
    // are there.
    assert!(events.iter().any(|e| e.kind == "finalise"));
}
