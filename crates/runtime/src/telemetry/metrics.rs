//! The metrics registry: atomic counters and latency histograms.
//!
//! The registry is the runtime's one lifecycle tally: every reading
//! of a class's counters, its transition weights and the violation
//! count comes from here. Everything on the recording path of the
//! first [`MAX_DENSE_CLASSES`] classes is a relaxed atomic operation
//! on preallocated storage — no locks, no allocation after a class's
//! first touch — so attaching the registry preserves the engine's
//! contention-free dispatch invariant. Classes beyond them (rare: a
//! class is one registered assertion) keep exact counters in a locked
//! map. Aggregation (snapshots, export) walks the same atomics
//! read-only and can run concurrently with recording.
//!
//! # Accounting a dispatch call
//!
//! Every call of the engine's dispatch loop — a direct hook's one
//! event or a staged batch — is accounted by one rule, applied by its
//! `CallMeter` as the call returns:
//!
//! * its events are counted with one striped RMW per hook kind that
//!   occurred;
//! * it is timed as a whole when one of its events is due on this
//!   thread's per-kind sampling countdown. A one-event call reads the
//!   clock only then; a larger call is timed whenever telemetry is
//!   on, which costs two clock reads for the whole batch;
//! * each sampled event is credited with the call's mean ns per
//!   event.
//!
//! For one event this is the classic sampled timer; for a batch it
//! gives the histograms, and the overhead governor reading them,
//! batch-amortised per-event latencies. The countdowns and the
//! counter stripe live in a `ThreadMeter` inside the engine's
//! per-thread record, which every call fetches anyway.

use crate::event::LifecycleEvent;
use crate::handlers::EventHandler;
use crate::locks;
use crate::telemetry::weights::{ClassWeights, TransitionWeights, MAX_DENSE_CLASSES};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use tesla_automata::Automaton;

/// Stripes for the hottest global counters (hook calls). Each thread
/// hashes onto one stripe, so concurrent dispatch threads increment
/// disjoint cache lines; reads sum the stripes, so totals stay exact.
const COUNTER_STRIPES: usize = 16;

/// Hook latencies are *sampled*: each thread's countdown makes one in
/// every `LATENCY_SAMPLE_PERIOD` events of a kind (starting with its
/// first) a sample. Call counts remain exact; only the histogram is a
/// sample. Two `Instant::now()` reads per direct hook would otherwise
/// dominate the hook's own cost on the OLTP macrobenchmark.
///
/// This is the *default* period; the effective per-kind period lives
/// in [`MetricsRegistry::sample_period`] so the overhead governor can
/// widen it at runtime.
pub const LATENCY_SAMPLE_PERIOD: u32 = 64;

/// Cap on what one observation may add to a histogram's `sum_ns`:
/// the floor of the top bucket (2³⁸ ns ≈ 4.6 min). A wild duration —
/// an injected clock skew, a suspended thread — still lands in the
/// top bucket, but can no longer poison the sum (and through it any
/// mean-based overhead estimate) by orders of magnitude.
const SUM_SATURATE_NS: u64 = 1 << (LATENCY_BUCKETS - 2);

static NEXT_STRIPE: AtomicU64 = AtomicU64::new(0);

/// One thread's accounting state for one registry: its counter stripe
/// and its per-kind sampling countdowns.
pub(crate) struct ThreadMeter {
    /// This thread's counter stripe, assigned round-robin.
    stripe: usize,
    /// Per-kind countdowns to this thread's next sampled event.
    /// Starting at zero means the first event of each kind is always
    /// sampled, so a touched hook's histogram is never empty.
    countdown: [Cell<u32>; N_HOOKS],
}

impl ThreadMeter {
    pub(crate) fn new() -> ThreadMeter {
        ThreadMeter {
            stripe: NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) as usize % COUNTER_STRIPES,
            countdown: Default::default(),
        }
    }
}

/// The accounting of one dispatch call (see the module docs), held
/// only when telemetry is on; the call records it through
/// [`CallMeter::record`] as it returns.
pub(crate) struct CallMeter<'a> {
    registry: &'a MetricsRegistry,
    tl: &'a ThreadMeter,
    tally: [u64; N_HOOKS],
    t0: Option<Instant>,
}

impl<'a> CallMeter<'a> {
    /// Open a call's accounting. `sole` is the kind of a call's only
    /// event: that call reads the clock only when the event is due on
    /// the countdown. A call of any other size is timed.
    #[inline]
    pub(crate) fn start(
        registry: &'a MetricsRegistry,
        tl: &'a ThreadMeter,
        sole: Option<HookKind>,
    ) -> CallMeter<'a> {
        let due = match sole {
            Some(kind) => tl.countdown[kind as usize].get() == 0,
            None => true,
        };
        CallMeter {
            registry,
            tl,
            tally: [0; N_HOOKS],
            t0: due.then(Instant::now),
        }
    }

    /// Count one event of `kind` into this call.
    #[inline]
    pub(crate) fn count(&mut self, kind: HookKind) {
        self.tally[kind as usize] += 1;
    }

    /// Record the call, given the `sole` kind it was started with. It
    /// inlines into the loop, so a direct hook's accounting is one RMW
    /// and one countdown step for its constant kind.
    #[inline(always)]
    pub(crate) fn record(&self, sole: Option<HookKind>) {
        // Saturating, not wrapping: a clock that jumps (suspend,
        // injected skew) must land in the top bucket, never wrap into
        // a plausible-looking small value.
        let ns = self
            .t0
            .map(|t0| u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        match sole {
            // A one-event call, whose mean is its duration: what the
            // scan over every kind below comes to, without the scan.
            Some(kind) => self
                .registry
                .record_kind(self.tl, kind, self.tally[kind as usize], ns),
            None => self.registry.record_call(self.tl, &self.tally, ns),
        }
    }
}

/// One thread-stripe of per-hook call counters, padded to a cache
/// line so stripes never share one.
#[repr(align(64))]
struct HookCallStripe {
    calls: [AtomicU64; N_HOOKS],
}

/// The instrumentation hooks, as dense indices for counter arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookKind {
    /// [`crate::Tesla::fn_entry`].
    FnEntry = 0,
    /// [`crate::Tesla::fn_exit`].
    FnExit = 1,
    /// [`crate::Tesla::field_store`].
    FieldStore = 2,
    /// [`crate::Tesla::msg_entry`].
    MsgEntry = 3,
    /// [`crate::Tesla::msg_exit`].
    MsgExit = 4,
    /// [`crate::Tesla::assertion_site`].
    AssertionSite = 5,
}

/// Number of hook kinds (array sizes).
pub const N_HOOKS: usize = 6;

impl HookKind {
    /// All kinds, in index order.
    pub const ALL: [HookKind; N_HOOKS] = [
        HookKind::FnEntry,
        HookKind::FnExit,
        HookKind::FieldStore,
        HookKind::MsgEntry,
        HookKind::MsgExit,
        HookKind::AssertionSite,
    ];

    /// Stable label (Prometheus `hook` label value).
    pub fn label(self) -> &'static str {
        match self {
            HookKind::FnEntry => "fn_entry",
            HookKind::FnExit => "fn_exit",
            HookKind::FieldStore => "field_store",
            HookKind::MsgEntry => "msg_entry",
            HookKind::MsgExit => "msg_exit",
            HookKind::AssertionSite => "assertion_site",
        }
    }
}

/// Log₂ latency buckets: bucket `i` holds durations below `2^i` ns
/// (and at least `2^(i-1)`), the last bucket absorbing everything
/// longer. 40 buckets reach ~18 minutes — far beyond any hook.
pub const LATENCY_BUCKETS: usize = 40;

/// A log₂-bucketed nanosecond histogram in a fixed-size atomic array.
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// New, zeroed histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Record one duration (relaxed atomics only). The bucket index
    /// clamps into the top bucket and the sum contribution saturates
    /// at `SUM_SATURATE_NS`, so a wild observation cannot poison
    /// the aggregate.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let idx = (64 - ns.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(ns.min(SUM_SATURATE_NS), Ordering::Relaxed);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// Serializable histogram copy. `buckets[i]` counts durations in
/// `[2^(i-1), 2^i)` ns (bucket 0: sub-nanosecond).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts.
    pub buckets: Vec<u64>,
    /// Total recorded durations.
    pub count: u64,
    /// Sum of recorded nanoseconds (each observation's contribution
    /// saturated at the top bucket's floor).
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Lower bound of bucket `i` in ns (`0` for bucket 0).
    pub fn bucket_floor_ns(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Midpoint of bucket `i` in ns — the representative value used
    /// for derived statistics (quantiles, means) over the log₂
    /// buckets: 0, 1, then `3·2^(i-2)`.
    pub fn bucket_midpoint_ns(i: usize) -> u64 {
        match i {
            0 => 0,
            1 => 1,
            _ => 3u64 << (i - 2),
        }
    }

    /// Derived quantile estimate: the midpoint of the bucket holding
    /// the `q`-quantile observation (`q` in `0.0..=1.0`). A coarse
    /// estimate — log₂ buckets bound it within 2× — but robust: a few
    /// wild outliers move the top buckets, not the median.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return HistogramSnapshot::bucket_midpoint_ns(i);
            }
        }
        HistogramSnapshot::bucket_midpoint_ns(self.buckets.len().saturating_sub(1))
    }

    /// Median latency estimate.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile latency estimate.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile latency estimate.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

/// Per-class lifecycle counters and the live-instance gauge.
///
/// There is deliberately no `updates` counter here: every `Update`
/// event lands exactly one transition count in the weight store
/// (dense or spilled), so the update total is derived from there at
/// read time instead of paying a third atomic RMW per event on the
/// hot path.
pub struct ClassMetrics {
    name: OnceLock<String>,
    news: AtomicU64,
    clones: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    overflows: AtomicU64,
    evictions: AtomicU64,
    shed: AtomicU64,
    live: AtomicI64,
    high_watermark: AtomicU64,
}

impl ClassMetrics {
    fn new() -> ClassMetrics {
        ClassMetrics {
            name: OnceLock::new(),
            news: AtomicU64::new(0),
            clones: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            overflows: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            live: AtomicI64::new(0),
            high_watermark: AtomicU64::new(0),
        }
    }

    /// The class's assertion name (or a placeholder when events were
    /// observed without a registration).
    pub fn name(&self) -> &str {
        self.name
            .get()
            .map(String::as_str)
            .unwrap_or("unregistered")
    }

    /// Instance initialisations.
    pub fn news(&self) -> u64 {
        self.news.load(Ordering::Relaxed)
    }

    /// Instance clones (variable specialisations).
    pub fn clones(&self) -> u64 {
        self.clones.load(Ordering::Relaxed)
    }

    /// Accepted finalisations.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Rejected (violating) finalisations.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Preallocation overflows.
    pub fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }

    /// Instances evicted under the [`crate::Config::max_instances`]
    /// quota (LRU policy).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Clones shed by degraded mode after the quota tripped.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Currently live instances (approximate across threads). The
    /// internal balance is signed — stale-instance clears can emit
    /// finalises for instances whose creation predates the gauge — and
    /// clamped to zero here.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed).max(0) as u64
    }

    /// Most instances ever live at once.
    pub fn high_watermark(&self) -> u64 {
        self.high_watermark.load(Ordering::Relaxed)
    }

    #[inline]
    fn inc_live(&self) {
        let now = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        // Guarded max: in steady state the gauge oscillates below the
        // watermark and the plain load skips the second RMW. A stale
        // load can only under-read, in which case we fall through to
        // the (always correct) fetch_max.
        if now > 0 && now as u64 > self.high_watermark.load(Ordering::Relaxed) {
            self.high_watermark.fetch_max(now as u64, Ordering::Relaxed);
        }
    }

    #[inline]
    fn dec_live(&self) {
        // May transiently go negative (stale instances cleared across
        // bound epochs without matching creations); the accessor
        // clamps.
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Per-class serializable counters.
#[derive(Debug, Clone)]
pub struct ClassSnapshot {
    /// Class id.
    pub class: u32,
    /// Assertion name.
    pub name: String,
    /// Instance initialisations.
    pub news: u64,
    /// Instance clones.
    pub clones: u64,
    /// State updates.
    pub updates: u64,
    /// Accepted finalisations.
    pub accepted: u64,
    /// Rejected finalisations.
    pub rejected: u64,
    /// Preallocation overflows.
    pub overflows: u64,
    /// Quota evictions (LRU policy).
    pub evictions: u64,
    /// Clones shed by degraded mode.
    pub shed: u64,
    /// Currently live instances.
    pub live: u64,
    /// Live-instance high-watermark.
    pub high_watermark: u64,
    /// Non-zero transition weights.
    pub transitions: Vec<TransitionCount>,
}

/// One weighted transition edge: DFA state × symbol → count.
#[derive(Debug, Clone)]
pub struct TransitionCount {
    /// Source DFA state (as rendered by `automata::dot`).
    pub from_state: u32,
    /// Symbol id.
    pub symbol: u32,
    /// Times the edge fired.
    pub count: u64,
}

/// Per-hook serializable counters.
#[derive(Debug, Clone)]
pub struct HookSnapshot {
    /// Hook label (`fn_entry`, …).
    pub hook: String,
    /// Calls into the hook (exact).
    pub calls: u64,
    /// Latency sampling period in force when the snapshot was taken
    /// (one timed invocation per `sample_period` per thread; the
    /// overhead governor may have widened it from
    /// [`LATENCY_SAMPLE_PERIOD`]).
    pub sample_period: u32,
    /// Latency distribution (sampled, so `latency.count <= calls`).
    pub latency: HistogramSnapshot,
}

/// A point-in-time copy of every metric, serializable as the JSON
/// report and convertible to Prometheus text via
/// [`crate::telemetry::export::prometheus`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Lifecycle events dispatched to handlers.
    pub events_total: u64,
    /// Violations observed (lifecycle `Error` events).
    pub violations: u64,
    /// Instrumentation sites elided by the static model checker.
    pub sites_elided: u64,
    /// Handler panics contained by [`crate::Dispatch`] (injected and
    /// organic alike).
    pub handler_panics: u64,
    /// Injected faults the engine reported absorbing.
    pub faults_absorbed: u64,
    /// Global-store shard locks found poisoned and recovered.
    pub lock_poison_recoveries: u64,
    /// Per-hook call counts and latencies.
    pub hooks: Vec<HookSnapshot>,
    /// Per-class lifecycle counters and transition weights.
    pub classes: Vec<ClassSnapshot>,
}

/// The registry: one allocation-free, lock-free sink for everything
/// the engine can report. Attach it to an engine as an
/// [`EventHandler`] (done automatically under
/// [`crate::Config::telemetry`]) and it aggregates; snapshot it any
/// time, including while dispatch threads are hammering it.
pub struct MetricsRegistry {
    hook_calls: Box<[HookCallStripe]>,
    hook_latency: [LatencyHistogram; N_HOOKS],
    /// Effective per-kind latency sampling periods. Default
    /// [`LATENCY_SAMPLE_PERIOD`]; the overhead governor widens them
    /// to trade histogram resolution for timer cost.
    sample_period: [AtomicU32; N_HOOKS],
    /// Counters of classes below [`MAX_DENSE_CLASSES`], one slot per
    /// id, created on first touch.
    classes: Box<[OnceLock<Arc<ClassMetrics>>]>,
    /// Counters of the classes from [`MAX_DENSE_CLASSES`] up, by id.
    /// Empty, and unallocated, unless such a class is touched.
    spilled: Mutex<BTreeMap<u32, Arc<ClassMetrics>>>,
    weights: TransitionWeights,
    violations: AtomicU64,
    sites_elided: AtomicU64,
    handler_panics: AtomicU64,
    faults_absorbed: AtomicU64,
    lock_poison_recoveries: AtomicU64,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// New, zeroed registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            hook_calls: (0..COUNTER_STRIPES)
                .map(|_| HookCallStripe {
                    calls: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            hook_latency: std::array::from_fn(|_| LatencyHistogram::new()),
            sample_period: std::array::from_fn(|_| AtomicU32::new(LATENCY_SAMPLE_PERIOD)),
            classes: (0..MAX_DENSE_CLASSES).map(|_| OnceLock::new()).collect(),
            spilled: Mutex::new(BTreeMap::new()),
            weights: TransitionWeights::new(),
            violations: AtomicU64::new(0),
            sites_elided: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
            faults_absorbed: AtomicU64::new(0),
            lock_poison_recoveries: AtomicU64::new(0),
        }
    }

    /// Record one `kind` call that took `elapsed`, always histogrammed:
    /// the dispatch rule (module docs) for a one-event call on a fresh
    /// countdown, for tests and tools that feed the registry directly.
    pub fn record_hook(&self, kind: HookKind, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.record_kind(&ThreadMeter::new(), kind, 1, Some(ns));
    }

    /// Account a dispatch call's `tally` of events per kind on `tl`:
    /// [`MetricsRegistry::record_kind`] for every kind, each sample
    /// credited with `elapsed_ns` (present when the call was timed)
    /// over all the call's events.
    #[inline(never)]
    fn record_call(&self, tl: &ThreadMeter, tally: &[u64; N_HOOKS], elapsed_ns: Option<u64>) {
        let events = tally.iter().sum::<u64>().max(1);
        let mean_ns = elapsed_ns.map(|ns| ns / events);
        for kind in HookKind::ALL {
            self.record_kind(tl, kind, tally[kind as usize], mean_ns);
        }
    }

    /// The recording rule for the `n` events of one kind in a call:
    /// one striped RMW for the calls, and a step of this thread's
    /// countdown for `kind`, which fires once when it crosses zero and
    /// then once per period for the remaining events. Every firing
    /// records `mean_ns`, the call's mean per event, when the call was
    /// timed. The period is re-read at each reset, so governor
    /// adjustments take effect within one period.
    #[inline]
    fn record_kind(&self, tl: &ThreadMeter, kind: HookKind, n: u64, mean_ns: Option<u64>) {
        if n == 0 {
            return;
        }
        let k = kind as usize;
        self.hook_calls[tl.stripe].calls[k].fetch_add(n, Ordering::Relaxed);
        let cell = &tl.countdown[k];
        let v = u64::from(cell.get());
        if n <= v {
            cell.set((v - n) as u32);
        } else {
            self.record_samples(tl, k, n - v - 1, mean_ns);
        }
    }

    /// [`MetricsRegistry::record_kind`]'s countdown crossed zero with
    /// `after` events of kind `k` left in the call.
    #[cold]
    #[inline(never)]
    fn record_samples(&self, tl: &ThreadMeter, k: usize, after: u64, mean_ns: Option<u64>) {
        let period = u64::from(self.sample_period[k].load(Ordering::Relaxed).max(1));
        tl.countdown[k].set((period - 1 - after % period) as u32);
        if let Some(ns) = mean_ns {
            for _ in 0..=after / period {
                self.hook_latency[k].record_ns(ns);
            }
        }
    }

    /// The latency sampling period in force for `kind`.
    pub fn sample_period(&self, kind: HookKind) -> u32 {
        self.sample_period[kind as usize].load(Ordering::Relaxed)
    }

    /// Set the latency sampling period for `kind` (clamped to ≥ 1).
    /// Threads pick the new period up at their next countdown reset.
    pub fn set_sample_period(&self, kind: HookKind, period: u32) {
        self.sample_period[kind as usize].store(period.max(1), Ordering::Relaxed);
    }

    /// Calls into `kind` so far (exact: sums the thread stripes).
    pub fn hook_calls(&self, kind: HookKind) -> u64 {
        self.hook_calls
            .iter()
            .map(|s| s.calls[kind as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Latency distribution for `kind`.
    pub fn hook_latency(&self, kind: HookKind) -> HistogramSnapshot {
        self.hook_latency[kind as usize].snapshot()
    }

    /// Counters for `class`, if any event or registration touched it.
    pub fn class(&self, class: u32) -> Option<Arc<ClassMetrics>> {
        match self.classes.get(class as usize) {
            Some(slot) => slot.get().cloned(),
            None => locks::lock(&self.spilled).get(&class).cloned(),
        }
    }

    /// Run `f` on `class`'s counters, creating them on first touch. A
    /// dense id is one indexed load and never clones the `Arc` (two
    /// ref-count RMWs per event would be pure overhead on the
    /// dispatch path); a spilled id takes the map's lock.
    #[inline]
    fn with_class(&self, class: u32, f: impl FnOnce(&ClassMetrics)) {
        match self.classes.get(class as usize) {
            Some(slot) => f(slot.get_or_init(|| Arc::new(ClassMetrics::new()))),
            None => f(&self.spilled_class(class)),
        }
    }

    /// [`MetricsRegistry::with_class`] beyond the dense slots.
    #[cold]
    #[inline(never)]
    fn spilled_class(&self, class: u32) -> Arc<ClassMetrics> {
        Arc::clone(
            locks::lock(&self.spilled)
                .entry(class)
                .or_insert_with(|| Arc::new(ClassMetrics::new())),
        )
    }

    /// Call `f` on every touched class's counters, in class order.
    fn for_each_class(&self, mut f: impl FnMut(u32, &ClassMetrics)) {
        for (id, slot) in self.classes.iter().enumerate() {
            if let Some(c) = slot.get() {
                f(id as u32, c);
            }
        }
        for (&id, c) in locks::lock(&self.spilled).iter() {
            f(id, c);
        }
    }

    /// The transition-weight store (fig. 9 edge weights).
    pub fn weights(&self) -> &TransitionWeights {
        &self.weights
    }

    /// Dense weight table for `class`, usable directly as the
    /// [`tesla_automata::dot::WeightSource`] when rendering.
    pub fn weight_source(&self, class: u32) -> Option<Arc<ClassWeights>> {
        self.weights.class(class)
    }

    /// The transition-coverage map implied by the weight tables: every
    /// (state, symbol) cell with a nonzero firing count, keyed by
    /// class *name* so maps from separate engine runs merge. This is
    /// the fuzzer's guidance signal (`tesla scenario fuzz`) — coverage
    /// falls out of the fig. 9 weight counters for free.
    pub fn coverage_map(&self) -> tesla_automata::CoverageMap {
        let mut map = tesla_automata::CoverageMap::new();
        for class in 0..self.classes.len() as u32 {
            let Some(weights) = self.weights.class(class) else {
                continue;
            };
            let Some(metrics) = self.class(class) else {
                continue;
            };
            let cov = map.class_mut(
                metrics.name(),
                weights.n_states() as u32,
                weights.n_symbols() as u32,
            );
            for (row, sym, _count) in weights.nonzero() {
                cov.mark(row, sym);
            }
        }
        map
    }

    /// Lifecycle events dispatched so far. Derived, not counted: the
    /// hot path already pays one counter per event (a lifecycle
    /// counter, a transition-weight cell, or the violation counter),
    /// so the total is the sum of those — exact at quiescence and
    /// monotone while dispatch threads are running.
    pub fn events_total(&self) -> u64 {
        let mut total = self.violations();
        self.for_each_class(|_, c| {
            total += c.news()
                + c.clones()
                + c.accepted()
                + c.rejected()
                + c.overflows()
                + c.evictions()
                + c.shed();
        });
        total + self.weights.grand_total()
    }

    /// Violations observed so far.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Count a handler panic contained by [`crate::Dispatch`].
    #[inline]
    pub fn note_handler_panic(&self) {
        self.handler_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Handler panics contained so far.
    pub fn handler_panics(&self) -> u64 {
        self.handler_panics.load(Ordering::Relaxed)
    }

    /// Count an injected fault the engine absorbed. The chaos harness
    /// asserts this equals the plan's total injected-fault count.
    #[inline]
    pub fn note_fault_absorbed(&self) {
        self.faults_absorbed.fetch_add(1, Ordering::Relaxed);
    }

    /// Injected faults absorbed so far.
    pub fn faults_absorbed(&self) -> u64 {
        self.faults_absorbed.load(Ordering::Relaxed)
    }

    /// Count a poisoned shard lock that was recovered.
    #[inline]
    pub fn note_lock_poison_recovery(&self) {
        self.lock_poison_recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Poisoned shard locks recovered so far.
    pub fn lock_poison_recoveries(&self) -> u64 {
        self.lock_poison_recoveries.load(Ordering::Relaxed)
    }

    /// Record an injected clock-skew sample: a phantom latency lands
    /// in `kind`'s histogram (the call count is untouched — skew warps
    /// the clock, not the workload).
    #[inline]
    pub fn note_clock_skew(&self, kind: HookKind, ns: u64) {
        self.hook_latency[kind as usize].record_ns(ns);
    }

    /// Record the static checker's elision count (idempotent set).
    pub fn set_sites_elided(&self, n: u64) {
        self.sites_elided.store(n, Ordering::Relaxed);
    }

    /// Instrumentation sites the static model checker proved safe and
    /// removed (plumbed from `BuildStats`).
    pub fn sites_elided(&self) -> u64 {
        self.sites_elided.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let hooks = HookKind::ALL
            .iter()
            .map(|&k| HookSnapshot {
                hook: k.label().to_string(),
                calls: self.hook_calls(k),
                sample_period: self.sample_period(k),
                latency: self.hook_latency(k),
            })
            .collect();
        let mut classes = Vec::new();
        self.for_each_class(|id, c| {
            let transitions = self
                .weights
                .class(id)
                .map(|cw| {
                    cw.nonzero()
                        .into_iter()
                        .map(|(from_state, symbol, count)| TransitionCount {
                            from_state,
                            symbol,
                            count,
                        })
                        .collect()
                })
                .unwrap_or_default();
            classes.push(ClassSnapshot {
                class: id,
                name: c.name().to_string(),
                news: c.news(),
                clones: c.clones(),
                updates: self.weights.class_total(id),
                accepted: c.accepted(),
                rejected: c.rejected(),
                overflows: c.overflows(),
                evictions: c.evictions(),
                shed: c.shed(),
                live: c.live(),
                high_watermark: c.high_watermark(),
                transitions,
            });
        });
        MetricsSnapshot {
            events_total: self.events_total(),
            violations: self.violations(),
            sites_elided: self.sites_elided(),
            handler_panics: self.handler_panics(),
            faults_absorbed: self.faults_absorbed(),
            lock_poison_recoveries: self.lock_poison_recoveries(),
            hooks,
            classes,
        }
    }
}

impl EventHandler for MetricsRegistry {
    fn on_event(&self, ev: &LifecycleEvent) {
        match ev {
            LifecycleEvent::New { class, .. } => self.with_class(*class, |c| {
                c.news.fetch_add(1, Ordering::Relaxed);
                c.inc_live();
            }),
            LifecycleEvent::Clone { class, .. } => self.with_class(*class, |c| {
                c.clones.fetch_add(1, Ordering::Relaxed);
                c.inc_live();
            }),
            LifecycleEvent::Update {
                class,
                sym,
                from_states,
                ..
            } => {
                // The weight cell is the update counter (see
                // [`ClassMetrics`]); touching the class slot keeps the
                // class visible to snapshots even before registration.
                self.with_class(*class, |_| {});
                self.weights.record(*class, from_states, *sym);
            }
            LifecycleEvent::Error { .. } => {
                self.violations.fetch_add(1, Ordering::Relaxed);
            }
            LifecycleEvent::Finalise {
                class, accepted, ..
            } => self.with_class(*class, |c| {
                if *accepted {
                    c.accepted.fetch_add(1, Ordering::Relaxed);
                } else {
                    c.rejected.fetch_add(1, Ordering::Relaxed);
                }
                c.dec_live();
            }),
            LifecycleEvent::Overflow { class } => self.with_class(*class, |c| {
                c.overflows.fetch_add(1, Ordering::Relaxed);
            }),
            LifecycleEvent::Evicted { class, .. } => self.with_class(*class, |c| {
                c.evictions.fetch_add(1, Ordering::Relaxed);
                c.dec_live();
            }),
            LifecycleEvent::Shed { class } => self.with_class(*class, |c| {
                c.shed.fetch_add(1, Ordering::Relaxed);
            }),
        }
    }

    fn on_register(&self, class: u32, automaton: &Automaton) {
        self.with_class(class, |c| {
            let _ = c.name.set(automaton.name.clone());
        });
        self.weights.register(class, automaton);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_automata::{compile, StateSet, SymbolId};
    use tesla_spec::{call, AssertionBuilder};

    #[test]
    fn histogram_buckets_are_log2() {
        let h = LatencyHistogram::new();
        h.record_ns(0); // bucket 0
        h.record_ns(1); // bucket 1
        h.record_ns(2); // bucket 2
        h.record_ns(3); // bucket 2
        h.record_ns(1 << 20); // bucket 21
        h.record_ns(u64::MAX); // clamped to the last bucket
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[21], 1);
        assert_eq!(s.buckets[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn wild_durations_saturate_the_sum_and_leave_the_median_alone() {
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record_ns(512);
        }
        h.record_ns(u64::MAX); // a clock-skew phantom
        let s = h.snapshot();
        assert_eq!(s.count, 101);
        assert_eq!(s.buckets[LATENCY_BUCKETS - 1], 1);
        // The sum absorbed at most the top bucket's floor, not
        // u64::MAX (which would wrap every later observation away).
        assert!(s.sum_ns <= 100 * 512 + SUM_SATURATE_NS);
        assert_eq!(s.p50_ns(), HistogramSnapshot::bucket_midpoint_ns(10));
    }

    #[test]
    fn quantiles_walk_the_cumulative_buckets() {
        let h = LatencyHistogram::new();
        for _ in 0..50 {
            h.record_ns(2); // bucket 2
        }
        for _ in 0..45 {
            h.record_ns(1000); // bucket 10
        }
        for _ in 0..5 {
            h.record_ns(1 << 20); // bucket 21
        }
        let s = h.snapshot();
        assert_eq!(s.p50_ns(), HistogramSnapshot::bucket_midpoint_ns(2));
        assert_eq!(s.p95_ns(), HistogramSnapshot::bucket_midpoint_ns(10));
        assert_eq!(s.p99_ns(), HistogramSnapshot::bucket_midpoint_ns(21));
        let empty = HistogramSnapshot {
            buckets: vec![],
            count: 0,
            sum_ns: 0,
        };
        assert_eq!(empty.p50_ns(), 0);
    }

    #[test]
    fn sample_period_is_adjustable_per_kind() {
        let r = MetricsRegistry::new();
        assert_eq!(r.sample_period(HookKind::FnEntry), LATENCY_SAMPLE_PERIOD);
        r.set_sample_period(HookKind::FnEntry, 4096);
        assert_eq!(r.sample_period(HookKind::FnEntry), 4096);
        r.set_sample_period(HookKind::FnEntry, 0);
        assert_eq!(r.sample_period(HookKind::FnEntry), 1, "clamped to >= 1");
        assert_eq!(
            r.sample_period(HookKind::FnExit),
            LATENCY_SAMPLE_PERIOD,
            "other kinds untouched"
        );
        assert_eq!(r.snapshot().hooks[0].sample_period, 1);
    }

    #[test]
    fn registry_tracks_lifecycle_and_live_gauge() {
        let r = MetricsRegistry::new();
        let a = compile(
            &AssertionBuilder::within("req")
                .previously(call("check").arg_var("x").returns(0))
                .build()
                .unwrap(),
        )
        .unwrap();
        r.on_register(0, &a);
        r.on_event(&LifecycleEvent::New {
            class: 0,
            instance: 0,
        });
        r.on_event(&LifecycleEvent::Clone {
            class: 0,
            from_instance: 0,
            to_instance: 1,
            states: a.initial_states(),
        });
        r.on_event(&LifecycleEvent::Update {
            class: 0,
            instance: 1,
            sym: a.site_sym,
            from_states: a.initial_states(),
            to_states: StateSet::singleton(1),
        });
        r.on_event(&LifecycleEvent::Finalise {
            class: 0,
            instance: 1,
            accepted: true,
        });
        let c = r.class(0).unwrap();
        assert_eq!(c.name(), a.name);
        assert_eq!(c.news(), 1);
        assert_eq!(c.clones(), 1);
        // Updates are derived from the weight store, not counted.
        assert_eq!(r.weights().class_total(0), 1);
        assert_eq!(c.accepted(), 1);
        assert_eq!(c.live(), 1); // 2 created, 1 finalised
        assert_eq!(c.high_watermark(), 2);
        assert_eq!(r.events_total(), 4);
        assert_eq!(r.weights().symbol_count(0, a.site_sym), 1);
        // Extra finalises drive the balance negative; the gauge clamps.
        r.on_event(&LifecycleEvent::Finalise {
            class: 0,
            instance: 0,
            accepted: false,
        });
        r.on_event(&LifecycleEvent::Finalise {
            class: 0,
            instance: 0,
            accepted: false,
        });
        assert_eq!(c.live(), 0);
        assert_eq!(c.rejected(), 2);
    }

    #[test]
    fn snapshot_is_serializable_and_complete() {
        let r = MetricsRegistry::new();
        r.record_hook(HookKind::FnEntry, Duration::from_nanos(100));
        r.set_sites_elided(3);
        r.on_event(&LifecycleEvent::Update {
            class: 7,
            instance: 0,
            sym: SymbolId(1),
            from_states: StateSet::singleton(0),
            to_states: StateSet::singleton(1),
        });
        let s = r.snapshot();
        assert_eq!(s.sites_elided, 3);
        assert_eq!(s.events_total, 1);
        assert_eq!(s.hooks.len(), N_HOOKS);
        assert_eq!(s.hooks[0].calls, 1);
        assert_eq!(s.classes.len(), 1);
        assert_eq!(s.classes[0].class, 7);
        assert_eq!(s.classes[0].name, "unregistered");
    }
}
