//! The pluggable event-notification framework (§4.4.2).
//!
//! "TESLA has a pluggable event notification framework with a set of
//! default handlers and support for user-provided handler callbacks."
//! In userspace the default prints to stderr under the `TESLA_DEBUG`
//! environment variable; in the FreeBSD kernel the default aggregates
//! via DTrace. Our DTrace substitute is the [`MetricsRegistry`]: it
//! tallies the lifecycle events per class and counts the transitions
//! that feed the weighted automaton graphs of fig. 9 and the
//! logical-coverage reports. It and the flight recorder live in
//! [`crate::telemetry`] and plug in through the same trait.

use crate::event::LifecycleEvent;
use crate::faults::{FaultKind, FaultPlan, INJECTED_PANIC};
use crate::locks;
use crate::telemetry::{Governor, MetricsRegistry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use tesla_automata::Automaton;

/// A lifecycle-event observer. Handlers must be cheap and re-entrant;
/// they are called from instrumentation hooks with store locks held.
pub trait EventHandler: Send + Sync {
    /// Observe one lifecycle event.
    fn on_event(&self, ev: &LifecycleEvent);

    /// Observe a class registration (cold path). The engine calls
    /// this for every registered class — including, for handlers
    /// attached late, classes registered before the handler — so
    /// aggregating handlers can build dense per-class tables instead
    /// of locking maps on the hot path. Default: ignore.
    fn on_register(&self, class: u32, automaton: &Automaton) {
        let _ = (class, automaton);
    }
}

/// Panic-isolating lifecycle-event fan-out.
///
/// Handlers run from instrumentation hooks with store locks held, so a
/// buggy handler that unwinds would poison those locks and propagate
/// into the *host's* call stack — exactly the "instrumentation worse
/// than the bug" failure the fault model forbids. `Dispatch` wraps
/// every `on_event` in `catch_unwind`: a panicking handler degrades to
/// a counted `tesla_handler_panics_total` metric and the remaining
/// handlers still run.
///
/// When a [`FaultPlan`] is attached it may also *inject* a handler
/// panic at the top of [`Dispatch::notify`] (drawn and absorbed here,
/// which is what keeps the plan's ledger balanced).
pub struct Dispatch<'a> {
    handlers: &'a [Arc<dyn EventHandler>],
    metrics: &'a MetricsRegistry,
    faults: Option<&'a FaultPlan>,
    governor: Option<&'a Governor>,
}

impl<'a> Dispatch<'a> {
    /// Bundle a handler slice with the metrics sink (and optional
    /// fault plan) for one hook invocation.
    pub fn new(
        handlers: &'a [Arc<dyn EventHandler>],
        metrics: &'a MetricsRegistry,
        faults: Option<&'a FaultPlan>,
    ) -> Dispatch<'a> {
        Dispatch {
            handlers,
            metrics,
            faults,
            governor: None,
        }
    }

    /// Attach the overhead governor so the store can consult its
    /// actuators (update-notification sampling, clone shedding).
    pub fn with_governor(mut self, governor: Option<&'a Governor>) -> Dispatch<'a> {
        self.governor = governor;
        self
    }

    /// True when no handlers are attached (lets callers skip event
    /// construction entirely).
    pub fn is_empty(&self) -> bool {
        self.handlers.is_empty()
    }

    /// The governor's clone-shed period: 0 means "shed nothing",
    /// `n > 0` means "shed one specialising clone in `n`". Nonzero
    /// only when the governor was configured with `allow_shed` and
    /// escalated past the exact levels.
    pub fn governed_shed(&self) -> u32 {
        self.governor.map_or(0, Governor::shed_period)
    }

    /// Draw the governor's clone-shed sampler for one specialising
    /// clone. False with no governor or below the shed levels; at the
    /// shed levels, true for one clone in [`Dispatch::governed_shed`]
    /// on a phase that persists across scope generations.
    pub fn shed_clone(&self) -> bool {
        self.governor.is_some_and(Governor::shed_clone)
    }

    /// Should the hot-path in-place `Update` notification be built and
    /// delivered? False when no handlers are attached, or when the
    /// governor is sampling update notifications to hold its SLO.
    /// Only *observation* is affected — the automaton state advanced
    /// regardless.
    pub fn admits_update(&self) -> bool {
        !self.is_empty() && self.governor.is_none_or(Governor::admit_update)
    }

    /// The attached fault plan, if any, so store-side injection sites
    /// (allocation failure) can draw from the same schedule.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults
    }

    /// The metrics sink absorbed faults are accounted against.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.metrics
    }

    /// Deliver `ev` to every handler, isolating panics per handler.
    pub fn notify(&self, ev: &LifecycleEvent) {
        if let Some(fp) = self.faults {
            if fp.draw(FaultKind::HandlerPanic) {
                // Synthetic buggy handler: panics before doing work.
                let r = catch_unwind(|| std::panic::panic_any(INJECTED_PANIC));
                debug_assert!(r.is_err());
                self.metrics.note_handler_panic();
                self.metrics.note_fault_absorbed();
                fp.absorbed(FaultKind::HandlerPanic);
            }
        }
        for h in self.handlers {
            if catch_unwind(AssertUnwindSafe(|| h.on_event(ev))).is_err() {
                self.metrics.note_handler_panic();
            }
        }
    }
}

/// Prints lifecycle events to stderr when the `TESLA_DEBUG`
/// environment variable is set (the paper's userspace default).
pub struct StderrHandler {
    enabled: bool,
}

impl StderrHandler {
    /// Create, sampling `TESLA_DEBUG` once.
    pub fn from_env() -> StderrHandler {
        StderrHandler {
            enabled: std::env::var_os("TESLA_DEBUG").is_some(),
        }
    }

    /// Create with an explicit enable flag (tests).
    pub fn new(enabled: bool) -> StderrHandler {
        StderrHandler { enabled }
    }
}

impl EventHandler for StderrHandler {
    fn on_event(&self, ev: &LifecycleEvent) {
        if self.enabled {
            eprintln!("tesla: {ev:?}");
        }
    }
}

/// Records every lifecycle event; used by tests and by the
/// trace-exploration workflows of §3.5.3 (the GNUstep investigation
/// logged "detailed information about the events being delivered").
///
/// The recorder is unbounded — fine for tests and short traces,
/// unsafe for production paths. Long-running workloads use the
/// bounded, lock-free [`crate::telemetry::FlightRecorder`], which
/// keeps the most recent events of each thread.
#[derive(Default)]
pub struct RecordingHandler {
    events: Mutex<Vec<LifecycleEvent>>,
}

impl RecordingHandler {
    /// New, empty recorder.
    pub fn new() -> RecordingHandler {
        RecordingHandler::default()
    }

    /// Snapshot of the recorded events, oldest first.
    pub fn events(&self) -> Vec<LifecycleEvent> {
        locks::lock(&self.events).clone()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        locks::lock(&self.events).len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all recorded events.
    pub fn clear(&self) {
        locks::lock(&self.events).clear();
    }
}

impl EventHandler for RecordingHandler {
    fn on_event(&self, ev: &LifecycleEvent) {
        locks::lock(&self.events).push(ev.clone());
    }
}

/// A handler wrapping an arbitrary closure — the "user-provided
/// handler callbacks" of §4.4.2, used e.g. to print GNUstep traces
/// (§3.5.3).
pub struct CallbackHandler<F: Fn(&LifecycleEvent) + Send + Sync> {
    f: F,
}

impl<F: Fn(&LifecycleEvent) + Send + Sync> CallbackHandler<F> {
    /// Wrap a closure.
    pub fn new(f: F) -> CallbackHandler<F> {
        CallbackHandler { f }
    }
}

impl<F: Fn(&LifecycleEvent) + Send + Sync> EventHandler for CallbackHandler<F> {
    fn on_event(&self, ev: &LifecycleEvent) {
        (self.f)(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ViolationKind, ViolationRecord};
    use std::sync::atomic::{AtomicU64, Ordering};
    use tesla_automata::{StateSet, SymbolId};
    use tesla_spec::SourceLoc;

    fn update(class: u32, from: u32, sym: u32) -> LifecycleEvent {
        LifecycleEvent::Update {
            class,
            instance: 0,
            sym: SymbolId(sym),
            from_states: StateSet::singleton(from),
            to_states: StateSet::singleton(from + 1),
        }
    }

    // The three `counting_handler_*` tests build the registry through
    // `crate::CountingHandler`, the name the benchmark's fan-out probe
    // uses, so that alias stays covered.
    #[test]
    fn counting_handler_tallies() {
        let h = crate::CountingHandler::new();
        h.on_event(&LifecycleEvent::New {
            class: 0,
            instance: 0,
        });
        h.on_event(&update(0, 0, 1));
        h.on_event(&update(0, 0, 1));
        h.on_event(&update(0, 1, 2));
        h.on_event(&LifecycleEvent::Finalise {
            class: 0,
            instance: 0,
            accepted: true,
        });
        h.on_event(&LifecycleEvent::Overflow { class: 0 });
        let c = h.class(0).expect("class tallied");
        assert_eq!(c.news(), 1);
        assert_eq!(h.weights().class_total(0), 3);
        assert_eq!(c.accepted(), 1);
        assert_eq!(c.overflows(), 1);
        let w = h.weights();
        assert_eq!(w.count(0, &StateSet::singleton(0), SymbolId(1)), 2);
        assert_eq!(w.symbol_count(0, SymbolId(1)), 2);
        assert_eq!(w.covered_symbols(0), vec![SymbolId(1), SymbolId(2)]);
        // Other classes are unaffected.
        assert_eq!(w.symbol_count(1, SymbolId(1)), 0);
        assert_eq!(h.events_total(), 6);
    }

    #[test]
    fn counting_handler_uses_dense_tables_after_registration() {
        use tesla_spec::{call, AssertionBuilder};
        let a = tesla_automata::compile(
            &AssertionBuilder::within("req")
                .previously(call("check").arg_var("x").returns(0))
                .build()
                .unwrap(),
        )
        .unwrap();
        let h = crate::CountingHandler::new();
        h.on_register(0, &a);
        let start = a.initial_states();
        h.on_event(&LifecycleEvent::Update {
            class: 0,
            instance: 0,
            sym: a.site_sym,
            from_states: start,
            to_states: start,
        });
        assert_eq!(h.weights().count(0, &start, a.site_sym), 1);
        // The count lands in the dense table, whose rows are DOT state
        // ids.
        let cw = h.weight_source(0).expect("dense table installed");
        assert_eq!(cw.nonzero().len(), 1);
    }

    #[test]
    fn recording_handler_keeps_order() {
        let h = RecordingHandler::new();
        assert!(h.is_empty());
        h.on_event(&LifecycleEvent::New {
            class: 1,
            instance: 0,
        });
        h.on_event(&LifecycleEvent::Error {
            violation: ViolationRecord {
                assertion: "a".into(),
                kind: ViolationKind::Site,
                loc: SourceLoc::default(),
                source: String::new(),
                values: vec![],
                detail: String::new(),
            }
            .into(),
        });
        let evs = h.events();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0], LifecycleEvent::New { class: 1, .. }));
        h.clear();
        assert!(h.is_empty());
    }

    #[test]
    fn callback_handler_invokes_closure() {
        use std::sync::atomic::AtomicUsize;
        let n = AtomicUsize::new(0);
        let h = CallbackHandler::new(|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        h.on_event(&LifecycleEvent::New {
            class: 0,
            instance: 0,
        });
        h.on_event(&LifecycleEvent::New {
            class: 0,
            instance: 1,
        });
        assert_eq!(n.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn dispatch_isolates_handler_panics() {
        crate::faults::silence_injected_panics();
        let metrics = MetricsRegistry::new();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        let bad: Arc<dyn EventHandler> = Arc::new(CallbackHandler::new(|_| {
            std::panic::panic_any(INJECTED_PANIC)
        }));
        let good: Arc<dyn EventHandler> = Arc::new(CallbackHandler::new(move |_| {
            seen2.fetch_add(1, Ordering::Relaxed);
        }));
        let handlers = vec![bad, good];
        let d = Dispatch::new(&handlers, &metrics, None);
        d.notify(&LifecycleEvent::New {
            class: 0,
            instance: 0,
        });
        d.notify(&LifecycleEvent::Overflow { class: 0 });
        // The panicking handler never unwound into us, and the healthy
        // handler behind it still saw every event.
        assert_eq!(seen.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.handler_panics(), 2);
    }

    #[test]
    fn dispatch_injects_and_absorbs_handler_panics() {
        crate::faults::silence_injected_panics();
        let metrics = MetricsRegistry::new();
        let plan = FaultPlan::new(
            3,
            crate::faults::FaultSpec::none().with(FaultKind::HandlerPanic, 4),
        );
        let handlers: Vec<Arc<dyn EventHandler>> = vec![];
        let d = Dispatch::new(&handlers, &metrics, Some(&plan));
        for _ in 0..40 {
            d.notify(&LifecycleEvent::New {
                class: 0,
                instance: 0,
            });
        }
        let l = plan.ledger();
        assert_eq!(l.injected[FaultKind::HandlerPanic as usize], 10);
        assert!(l.balanced());
        assert_eq!(metrics.handler_panics(), 10);
        assert_eq!(metrics.faults_absorbed(), 10);
    }

    #[test]
    fn counting_handler_counts_evictions_and_shed() {
        let h = crate::CountingHandler::new();
        h.on_event(&LifecycleEvent::Evicted {
            class: 2,
            instance: 1,
        });
        h.on_event(&LifecycleEvent::Shed { class: 2 });
        h.on_event(&LifecycleEvent::Shed { class: 2 });
        let c = h.class(2).expect("class tallied");
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.shed(), 2);
    }

    #[test]
    fn stderr_handler_disabled_is_silent() {
        // Just exercise the code path; nothing observable.
        let h = StderrHandler::new(false);
        h.on_event(&LifecycleEvent::New {
            class: 0,
            instance: 0,
        });
    }
}
