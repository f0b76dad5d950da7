//! Seeded fault-injection properties (the chaos harness).
//!
//! For *any* seeded [`FaultPlan`] the engine must degrade, never
//! fail: no panic unwinds into the caller, the live-instance gauge
//! never exceeds the configured quota, and every absorbed fault is
//! reported — the plan's injected/absorbed ledger balances and the
//! `tesla_faults_absorbed_total` metric equals the injected count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use tesla_automata::compile;
use tesla_prop::{check, prop_assert, prop_assert_eq};
use tesla_runtime::{
    Config, EvictionPolicy, FailMode, FaultPlan, FaultSpec, MetricsSnapshot, Tesla,
};
use tesla_spec::{call, AssertionBuilder, StaticEvent, Value};

const QUOTA: usize = 8;

const SEED: u64 = 0xc4a0;

fn chaos_assertion() -> tesla_spec::Assertion {
    AssertionBuilder::bounded(
        StaticEvent::Call("job_start".to_string()),
        StaticEvent::ReturnFrom("job_end".to_string()),
    )
    .global()
    .named("chaos")
    .previously(call("produce").arg_var("v").returns(0))
    .build()
    .unwrap()
}

fn chaos_engine(seed: u64, spec: FaultSpec) -> Arc<Tesla> {
    Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        instance_capacity: 64,
        max_instances: Some(QUOTA),
        eviction: EvictionPolicy::Lru,
        telemetry: true,
        faults: Some(Arc::new(FaultPlan::new(seed, spec))),
        ..Config::default()
    }))
}

/// A deterministic single-threaded workload: four bound scopes, each
/// specialising well past the quota (24 values against a quota of 8)
/// so eviction and degraded mode are exercised, plus violating sites.
fn workload(t: &Tesla, id: tesla_runtime::ClassId) {
    let start = t.intern_fn("job_start");
    let end = t.intern_fn("job_end");
    let produce = t.intern_fn("produce");
    for scope in 0..4u64 {
        let _ = t.fn_entry(start, &[]);
        for i in 0..24u64 {
            let v = scope * 100 + i;
            let args = [Value(v)];
            let _ = t.fn_entry(produce, &args);
            let _ = t.fn_exit(produce, &args, Value(0));
            let _ = t.assertion_site(id, &[Value(v)]);
            if i == 3 {
                // Never produced: a real violation, fired while the
                // class is still under quota (degraded mode soundly
                // suppresses site misses after evictions begin, so a
                // detectable violation must land before the burst).
                let _ = t.assertion_site(id, &[Value(9_999)]);
            }
        }
        let _ = t.fn_exit(end, &[], Value(0));
    }
}

/// Run the workload under a fresh engine with the given plan; return
/// the metrics snapshot and the plan's ledger.
fn run_chaos(seed: u64, spec: FaultSpec) -> (MetricsSnapshot, tesla_runtime::FaultLedger) {
    tesla_runtime::engine::reset_thread_state();
    let t = chaos_engine(seed, spec);
    let id = t.register(compile(&chaos_assertion()).unwrap()).unwrap();
    let res = catch_unwind(AssertUnwindSafe(|| workload(&t, id)));
    assert!(res.is_ok(), "engine unwound into the caller (seed {seed})");
    let snap = t.metrics().snapshot();
    let ledger = t.fault_plan().expect("plan configured").ledger();
    (snap, ledger)
}

/// The headline acceptance property: 100 randomized seeds, full
/// fault menu, and the engine (a) never unwinds, (b) never lets
/// the live gauge past the quota, (c) reports every absorbed
/// fault.
#[test]
fn any_seeded_plan_degrades_gracefully() {
    check(
        100,
        SEED,
        |g| g.u64(),
        |seed| {
            tesla_runtime::faults::silence_injected_panics();
            let (snap, ledger) = run_chaos(seed, FaultSpec::default_chaos());
            for c in &snap.classes {
                prop_assert!(
                    c.high_watermark <= QUOTA as u64,
                    "live gauge peaked at {} > quota {QUOTA} (seed {seed})",
                    c.high_watermark
                );
            }
            prop_assert!(
                ledger.balanced(),
                "unbalanced ledger (seed {seed}): {ledger}"
            );
            prop_assert_eq!(
                snap.faults_absorbed,
                ledger.total_injected(),
                "absorbed-fault metric disagrees with the plan (seed {seed})"
            );
            Ok(())
        },
    );
}

/// Identical seed ⇒ identical ledger: the schedule depends only on
/// the seed and the event sequence, not on wall-clock or layout.
#[test]
fn same_seed_same_ledger() {
    tesla_runtime::faults::silence_injected_panics();
    let (_, a) = run_chaos(0xDEAD_BEEF, FaultSpec::default_chaos());
    let (_, b) = run_chaos(0xDEAD_BEEF, FaultSpec::default_chaos());
    assert_eq!(a, b, "same seed must reproduce the same ledger");
    assert!(
        a.total_injected() > 0,
        "the default menu must actually fire"
    );
    // And a different seed shifts the phases. Totals of a single other
    // seed can coincide by chance (they differ by at most one fire per
    // kind), so ask only that *some* nearby seed lands elsewhere.
    let shifted = (1..=8u64).any(|k| run_chaos(0xDEAD_BEEF + k, FaultSpec::default_chaos()).1 != a);
    assert!(shifted, "eight different seeds all reproduced {a}");
}

/// A plan with no periods is free: nothing injected, nothing
/// absorbed, and the workload behaves exactly as un-faulted.
#[test]
fn empty_spec_injects_nothing() {
    let (snap, ledger) = run_chaos(7, FaultSpec::none());
    assert_eq!(ledger.total_injected(), 0);
    assert_eq!(snap.faults_absorbed, 0);
    assert_eq!(snap.handler_panics, 0);
    assert_eq!(snap.lock_poison_recoveries, 0);
}

/// Single-kind plans absorb at their own site: lock poisoning is
/// recovered (and counted), allocation failure surfaces as overflow,
/// and in both cases the ledger still balances.
#[test]
fn single_kind_plans_absorb_at_their_site() {
    use tesla_runtime::FaultKind;
    tesla_runtime::faults::silence_injected_panics();

    let (snap, ledger) = run_chaos(11, FaultSpec::none().with(FaultKind::LockPoison, 5));
    assert!(ledger.balanced());
    assert!(ledger.total_injected() > 0);
    assert_eq!(snap.lock_poison_recoveries, ledger.total_injected());

    let (snap, ledger) = run_chaos(13, FaultSpec::none().with(FaultKind::AllocFailure, 2));
    assert!(ledger.balanced());
    assert!(ledger.total_injected() > 0);
    let overflows: u64 = snap.classes.iter().map(|c| c.overflows).sum();
    assert_eq!(overflows, ledger.total_injected());

    let (snap, ledger) = run_chaos(17, FaultSpec::none().with(FaultKind::HandlerPanic, 6));
    assert!(ledger.balanced());
    assert!(ledger.total_injected() > 0);
    assert_eq!(snap.handler_panics, ledger.total_injected());
}

/// Quota + LRU *without* any faults: a burst past the quota evicts
/// the least-recently-touched instance instead of erroring, degraded
/// mode sheds a sampled share of further clones, and the gauge never
/// exceeds the quota.
#[test]
fn quota_lru_sheds_and_never_exceeds() {
    tesla_runtime::engine::reset_thread_state();
    let t = Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        instance_capacity: 64,
        max_instances: Some(QUOTA),
        eviction: EvictionPolicy::Lru,
        telemetry: true,
        ..Config::default()
    }));
    let id = t.register(compile(&chaos_assertion()).unwrap()).unwrap();
    workload(&t, id);
    let snap = t.metrics().snapshot();
    let c = &snap.classes[0];
    assert!(
        c.high_watermark <= QUOTA as u64,
        "peak {}",
        c.high_watermark
    );
    assert!(c.evictions > 0, "the burst must have evicted");
    assert!(c.shed > 0, "degraded mode must have shed clones");
    // Detection stays sound for retained instances: the per-scope
    // violating site is still reported unless shed (never silently
    // wrong — a shed site emits `Shed`, not a false pass).
    assert!(!t.violations().is_empty());
}

/// Clock-skew hardening: a skew-heavy plan (a wild 1 µs–1 s phantom
/// sample every other hook event) cannot poison the telemetry
/// aggregates or runaway the governor. The histogram sum saturates
/// per observation at the top bucket's floor, and the governor's
/// overhead estimate — p50-based with a ⌈wall/16⌉ app-time floor —
/// stays at or below its 16× cap, so the controller escalates but
/// never past the exact ceiling it was configured with.
#[test]
fn clock_skew_saturates_sums_and_bounds_the_governor() {
    use tesla_runtime::telemetry::metrics::LATENCY_BUCKETS;
    use tesla_runtime::{FaultKind, GovernorConfig};
    tesla_runtime::faults::silence_injected_panics();
    tesla_runtime::engine::reset_thread_state();

    let t = Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        instance_capacity: 64,
        telemetry: true,
        governor: Some(GovernorConfig {
            slo_milli: 1200,
            tick_events: 32,
            allow_shed: false,
        }),
        faults: Some(Arc::new(FaultPlan::new(
            42,
            FaultSpec::none().with(FaultKind::ClockSkew, 2),
        ))),
        ..Config::default()
    }));
    let id = t.register(compile(&chaos_assertion()).unwrap()).unwrap();
    workload(&t, id);

    let ledger = t.fault_plan().unwrap().ledger();
    assert!(ledger.total_injected() > 0, "the skew plan must fire");
    assert!(ledger.balanced());

    // Per-observation saturation: even if *every* sample were a wild
    // 1 s phantom, the sum can absorb at most the top bucket's floor
    // per sample — never u64-wrapping territory.
    let saturate = 1u64 << (LATENCY_BUCKETS - 2);
    let snap = t.metrics().snapshot();
    for h in &snap.hooks {
        assert!(
            h.latency.sum_ns <= h.latency.count.saturating_mul(saturate),
            "{}: sum {} exceeds {} × saturation floor",
            h.hook,
            h.latency.sum_ns,
            h.latency.count
        );
    }

    // Governor robustness: the estimate is capped at 16× by the
    // ⌈wall/16⌉ app-time floor, so phantom latencies can escalate the
    // controller (that is fine — they look like real cost) but can
    // neither blow up the estimate nor breach the exact ceiling.
    let g = t.governor().expect("governor configured");
    let est = g.estimate_overhead_milli(t.metrics());
    assert!(
        (1000..=16_000).contains(&est),
        "estimate {est} out of range"
    );
    assert!(g.level() <= 7, "exact ceiling breached under skew");
    assert_eq!(g.shed_period(), 0, "skew must not unlock clone shedding");
}

/// The Error policy (default) keeps the strict §4.4.1 semantics:
/// exceeding the quota is an overflow report, never an eviction.
#[test]
fn quota_error_policy_reports_overflow() {
    tesla_runtime::engine::reset_thread_state();
    let t = Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        instance_capacity: 64,
        max_instances: Some(4),
        eviction: EvictionPolicy::Error,
        telemetry: true,
        ..Config::default()
    }));
    let id = t.register(compile(&chaos_assertion()).unwrap()).unwrap();
    workload(&t, id);
    let snap = t.metrics().snapshot();
    let c = &snap.classes[0];
    assert!(c.high_watermark <= 4);
    assert_eq!(c.evictions, 0);
    assert!(c.overflows > 0, "past-quota clones must be reported");
}
