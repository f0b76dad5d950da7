//! The libtesla engine: registration, dispatch and instrumentation
//! hooks.
//!
//! At class-registration time the engine compiles every automaton
//! symbol into *translator entries* — the runtime analogue of the
//! instrumenter's generated event translators (§4.2): per
//! (function, direction), (field), or (selector, direction) key, a
//! list of `(class, symbol, static checks, variable extractions)`.
//! Each key has one dispatch row of one type, whatever its kind: the
//! translators, the bound groups the event starts and ends, and
//! whether the event maintains the shadow call stack. The rows are
//! stored per name-keyed hook kind, then per interned name. At run
//! time a hook does one row lookup; if nothing subscribes to the
//! event it returns immediately (the cost measured by the
//! "Infrastructure" kernel configuration of fig. 11).
//!
//! # Concurrency model
//!
//! The hook hot path is contention-free:
//!
//! * **Snapshot publication** — all dispatch state (tables, class
//!   definitions, handlers) lives in an immutable `Snapshot`.
//!   Registration clones the current snapshot, mutates the copy and
//!   swaps in a fresh `Arc` under a brief write lock, bumping a
//!   version counter. Each thread keeps the `Arc<Snapshot>` behind an
//!   `Rc` of its own and revalidates it with one atomic load per
//!   event. A hook clones that `Rc`, a plain increment on memory its
//!   thread owns; the lock and the shared `Arc` refcount are only
//!   touched when the version moved. Concurrent threads never share a
//!   reader-writer lock on the dispatch tables.
//! * **No shared writes, no allocation** — with telemetry off, a
//!   steady-state hook on a per-thread class writes no memory another
//!   thread reads except its class's `site_hits` counter: site hooks
//!   borrow their [`ClassDef`] from the snapshot rather than cloning
//!   its `Arc`. The store step allocates nothing either: the clone
//!   list and each group's materialised list keep their buffers from
//!   one bound epoch to the next (`tests/hot_path.rs` counts).
//! * **Sharded Global store** — the Global-context store is striped
//!   over [`GLOBAL_SHARDS`] mutexes. A bound group (and every class in
//!   it) maps deterministically to one shard
//!   (`group % GLOBAL_SHARDS`), so threads driving disjoint bound groups
//!   never contend, and a contended group only serialises its own
//!   shard, not all Global state.
//! * **Per-thread handles** — each thread caches its store, shadow
//!   call stack and snapshot in a single `EngineTls` record with a
//!   one-slot fast path, so steady-state hooks skip the per-event
//!   HashMap lookup entirely. The one-slot hit and the snapshot
//!   version check are inline; the engine switch and the snapshot
//!   refresh are cold calls.
//! * **One dispatch loop** — every event reaches the store through
//!   one private loop over id-keyed events (`Tesla::deliver`). A
//!   direct hook is a one-event call of it, [`Tesla::dispatch_batch`]
//!   a call with a staged batch, and [`Tesla::drive`] and
//!   [`Tesla::drain_ingress`] stage their input into batches. Per
//!   event the loop ticks the governor, tallies the event, draws the
//!   chaos repetitions and runs the event's body: the assertion
//!   site's, or the one body of the five name-keyed hooks, with the
//!   hook's kind as a const parameter. Translators and sites step the
//!   store through one helper. The call is accounted once, when
//!   it ends (see
//!   [`crate::telemetry::metrics`]). Per-event and batched dispatch
//!   agree because they are the same code: only the shard locking
//!   differs, lock-per-access for a hook and guard coalescing for a
//!   batch (see `ShardCache`).
//! * **One-word results** — the hooks return `Result<(), Violation>`,
//!   one pointer wide because a [`Violation`] is a boxed record: a
//!   passing event moves a null word up the dispatch path, not the
//!   record.
//!
//! Temporal bounds are tracked per *bound group* (classes sharing the
//! same start/end events and context). Two strategies, matching
//! §5.2.2 and fig. 13:
//!
//! * [`InitMode::Naive`] — on every bound entry, eagerly create a
//!   `(∗)` instance for **every** class in the group; on exit, touch
//!   every class again. Per-syscall work scales with the number of
//!   registered assertions — the paper's first implementation, almost
//!   2× slower Clang builds and 10× slower OLTP.
//! * [`InitMode::Lazy`] — bound entry bumps a per-group epoch;
//!   classes materialise their `(∗)` instance on their first real
//!   event, and only materialised classes are finalised at exit.

use crate::event::{Violation, ViolationKind, ViolationRecord};
use crate::faults::{FaultKind, FaultPlan, INJECTED_PANIC};
use crate::handlers::{Dispatch, EventHandler};
use crate::ingress::batch::BatchBuf;
use crate::intern::{Interner, NameId};
use crate::locks;
use crate::store::Store;
use crate::telemetry::metrics::{CallMeter, HookKind, MetricsRegistry, ThreadMeter};
use crate::telemetry::{Governor, GovernorConfig};
use crate::{RegisterError, MAX_VARS};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use tesla_automata::{Automaton, Dfa, Direction, Guard, Symbol, SymbolId, SymbolKind};
use tesla_spec::{ArgPattern, Context, FieldOp, Value};

/// Identifies a registered automaton class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassId(pub u32);

/// Violation disposition (§4.4.2): fail-stop by default, or log and
/// continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailMode {
    /// Hooks return `Err(Violation)` — the program fail-stops.
    #[default]
    FailStop,
    /// Violations are recorded (see [`Tesla::violations`]) and
    /// execution continues.
    Log,
}

/// Mutex stripes over the Global-context store. Each bound group maps
/// to shard `group % GLOBAL_SHARDS`; threads touching groups on
/// different shards never contend.
pub const GLOBAL_SHARDS: usize = 8;

/// Degraded-mode shed rate: once a class has evicted under
/// [`Config::max_instances`], one in every `DEGRADED_SAMPLE` further
/// clones for it is dropped (with a [`crate::LifecycleEvent::Shed`]
/// event) until the bound epoch ends.
pub const DEGRADED_SAMPLE: u32 = 4;

/// What happens when a class's live-instance quota
/// ([`Config::max_instances`]) is full and another clone arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Refuse the clone and emit [`crate::LifecycleEvent::Overflow`]
    /// — the paper's preallocation semantics; no tracked instance is
    /// ever discarded.
    #[default]
    Error,
    /// Evict the least-recently-touched instance to admit the clone,
    /// and put the class in degraded mode (shedding a sampled share
    /// of further clones) for the rest of the bound epoch. Violation
    /// detection stays sound for the instances that remain.
    Lru,
}

/// A [`Config`] the engine refused at construction (zero-sized limit
/// that would otherwise surface as a divide/modulo panic or a
/// zero-capacity store deep inside a hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `instance_capacity` was 0 — no class could ever materialise.
    ZeroInstanceCapacity,
    /// `max_instances` was `Some(0)` — every instance would be shed.
    ZeroMaxInstances,
    /// The governor SLO was at or below 1.0× — no instrumented run
    /// can hold an overhead below "no overhead at all".
    GovernorSlo,
    /// The governor tick period was 0 — the controller divides by it.
    ZeroGovernorTick,
    /// `batch_size` was 0 — the batched drain could never make
    /// progress.
    ZeroBatchSize,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroInstanceCapacity => {
                write!(f, "instance_capacity must be at least 1")
            }
            ConfigError::ZeroMaxInstances => {
                write!(f, "max_instances, when set, must be at least 1")
            }
            ConfigError::GovernorSlo => {
                write!(
                    f,
                    "governor slo_milli must exceed 1000 (an overhead SLO above 1.0x)"
                )
            }
            ConfigError::ZeroGovernorTick => {
                write!(f, "governor tick_events must be at least 1")
            }
            ConfigError::ZeroBatchSize => {
                write!(f, "batch_size must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Automaton-instance initialisation strategy (§5.2.2, fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitMode {
    /// Eager per-bound-entry initialisation of every class.
    Naive,
    /// Lazy initialisation on the class's first event.
    #[default]
    Lazy,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Violation disposition.
    pub fail_mode: FailMode,
    /// Initialisation strategy.
    pub init_mode: InitMode,
    /// Instance-table capacity per class per store (§4.4.1
    /// preallocation).
    pub instance_capacity: usize,
    /// Enable telemetry: the store step counts every lifecycle event
    /// into the engine's [`MetricsRegistry`] directly, before any
    /// attached handler runs (it is not itself a handler), and every
    /// instrumentation hook is timed into its latency histograms. The
    /// recording path is lock-free (relaxed atomics on preallocated
    /// arrays), preserving the contention-free dispatch invariant.
    pub telemetry: bool,
    /// Per-class live-instance quota (per store). `None` leaves only
    /// the preallocation bound ([`Config::instance_capacity`]); when
    /// set, the effective bound is the minimum of the two and
    /// [`Config::eviction`] decides what happens at the quota.
    pub max_instances: Option<usize>,
    /// Disposition when the quota is full and another clone arrives.
    pub eviction: EvictionPolicy,
    /// Optional seeded fault-injection plan (chaos testing). The
    /// engine draws from it at every fault's absorption site; `None`
    /// costs one branch per site.
    pub faults: Option<Arc<FaultPlan>>,
    /// Optional adaptive overhead governor
    /// ([`crate::telemetry::Governor`]). Setting this forces
    /// [`Config::telemetry`] on — the controller's feedback signal is
    /// the hook-latency telemetry.
    pub governor: Option<GovernorConfig>,
    /// Maximum events staged per batch by [`Tesla::drive`] and
    /// [`Tesla::drain_ingress`]. A batch amortises the snapshot load,
    /// the telemetry accounting and Global-shard locking over its
    /// events; `1` stages one-event batches, each accounted as a
    /// direct hook call is.
    pub batch_size: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            fail_mode: FailMode::FailStop,
            init_mode: InitMode::Lazy,
            instance_capacity: 64,
            telemetry: false,
            max_instances: None,
            eviction: EvictionPolicy::Error,
            faults: None,
            governor: None,
            batch_size: 256,
        }
    }
}

/// A registered class: compiled automaton plus bookkeeping.
pub struct ClassDef {
    /// The compiled automaton. Shared with the compile cache (and any
    /// other engine registered from it) rather than cloned per
    /// registration.
    pub automaton: Arc<Automaton>,
    /// The DFA this class's instances step on ([`Dfa::build`]), or
    /// `None` (guards, or too many states): the instances then step
    /// the NFA. Never a semantic fork: a row stands for exactly the
    /// NFA states the interpreter would reach, and debug builds check
    /// it on every step.
    pub compiled: Option<Arc<Dfa>>,
    /// Bound-group id.
    pub group: u32,
    /// Instance-table capacity.
    pub capacity: usize,
    /// How often this class's assertion site was reached (coverage).
    pub site_hits: AtomicU64,
    /// Violations attributed to this class.
    pub violation_count: AtomicU64,
    /// `incallstack` guard targets with their interned ids, so guard
    /// evaluation needs no interner lookup on the hot path.
    pub guard_fns: Vec<(String, NameId)>,
    /// Live-instance quota ([`Config::max_instances`]).
    pub quota: Option<usize>,
    /// Quota disposition ([`Config::eviction`]).
    pub eviction: EvictionPolicy,
}

impl ClassDef {
    /// Build a violation record for this class.
    pub fn violation(&self, kind: ViolationKind, values: Vec<Value>, detail: String) -> Violation {
        self.violation_count.fetch_add(1, Ordering::Relaxed);
        ViolationRecord {
            assertion: self.automaton.name.clone(),
            kind,
            loc: self.automaton.loc.clone(),
            source: self.automaton.source.clone(),
            values,
            detail,
        }
        .into()
    }
}

/// A static check compiled from an argument pattern.
#[derive(Debug, Clone, Copy)]
enum Check {
    Const(Value),
    Flags(u64),
    Bitmask(u64),
}

impl Check {
    #[inline]
    fn ok(&self, v: Value) -> bool {
        match self {
            Check::Const(c) => *c == v,
            Check::Flags(required) => v.0 & required == *required,
            Check::Bitmask(mask) => v.0 & !mask == 0,
        }
    }
}

/// Where an event value comes from.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// An argument; registration refuses a pattern whose index does
    /// not fit (`RegisterError::TooManyArguments`).
    Arg(u8),
    Ret,
    Receiver,
    Object,
    StoredValue,
}

/// The values one name-keyed event carries, as the translators' slots
/// read them. A value the event's kind does not carry is `None` (or,
/// for arguments, absent), and a check or bind that reads it fails.
#[derive(Debug, Default, Clone, Copy)]
struct EventValues<'v> {
    args: &'v [Value],
    ret: Option<Value>,
    receiver: Option<Value>,
    /// Field stores: the struct type, the object, the operator and the
    /// stored value.
    field: Option<(NameId, Value, FieldOp, Value)>,
}

/// One compiled event translator: the static-check chain plus the
/// dynamic variable extraction of §4.2.
#[derive(Debug, Clone)]
struct Translator {
    class: u32,
    sym: SymbolId,
    /// Minimum argument count for the pattern to apply.
    min_args: u8,
    checks: Vec<(Slot, Check)>,
    binds: Vec<(u8, Slot)>,
    /// Field events: required struct type (None = wildcard) and
    /// operator.
    struct_filter: Option<NameId>,
    field_op: Option<FieldOp>,
}

/// The dispatch row of one name-keyed event: one (function,
/// direction), field, or (selector, direction) key.
#[derive(Debug, Default, Clone)]
struct Row {
    translators: Vec<Translator>,
    /// Bound groups whose scope starts at this event.
    bound_start: Vec<u32>,
    /// Bound groups whose scope ends at this event.
    bound_end: Vec<u32>,
    /// Maintain the shadow call stack for this function (it appears in
    /// an `incallstack` guard): push on entry, pop on exit.
    stack: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    start_fn: NameId,
    start_dir: Direction,
    end_fn: NameId,
    end_dir: Direction,
    context: Context,
}

/// A bound group: classes sharing the same temporal bounds + context.
#[derive(Debug, Clone)]
struct GroupDef {
    context: Context,
    classes: Vec<u32>,
}

/// Name-keyed hook kinds: the index of their row tables.
const N_NAMED: usize = HookKind::AssertionSite as usize;

#[derive(Default, Clone)]
struct Tables {
    /// Dispatch rows per name-keyed hook kind (`HookKind as usize`),
    /// then per [`NameId`].
    rows: [Vec<Row>; N_NAMED],
    groups: Vec<GroupDef>,
    group_index: HashMap<GroupKey, u32>,
}

impl Tables {
    fn row_mut(&mut self, kind: HookKind, id: NameId) -> &mut Row {
        let rows = &mut self.rows[kind as usize];
        let i = id.0 as usize;
        if rows.len() <= i {
            rows.resize_with(i + 1, Row::default);
        }
        &mut rows[i]
    }
}

/// The entry or exit kind of a directed event.
fn by_direction(d: Direction, entry: HookKind, exit: HookKind) -> HookKind {
    match d {
        Direction::Entry => entry,
        Direction::Exit => exit,
    }
}

/// An immutable, atomically-published view of all dispatch state.
/// Hooks work against one snapshot for the whole event; registration
/// never mutates a published snapshot.
#[derive(Default)]
struct Snapshot {
    tables: Tables,
    classes: Vec<Arc<ClassDef>>,
    handlers: Vec<Arc<dyn EventHandler>>,
}

/// Per-thread, per-engine cached state: the last snapshot seen, the
/// PerThread store, the shadow call stack and the telemetry
/// accounting state.
struct EngineTls {
    /// Snapshot version this thread last observed.
    version: Cell<u64>,
    /// The snapshot behind a thread-owned `Rc`: a hook clones the
    /// `Rc` (a plain increment on this thread's memory), never the
    /// engine-wide `Arc`, whose refcount every thread would write.
    #[allow(clippy::redundant_allocation)]
    snap: RefCell<Rc<Arc<Snapshot>>>,
    store: Rc<RefCell<Store>>,
    stack: Rc<RefCell<Vec<NameId>>>,
    meter: ThreadMeter,
}

impl EngineTls {
    fn new() -> Rc<EngineTls> {
        Rc::new(EngineTls {
            version: Cell::new(0),
            snap: RefCell::new(Rc::new(Arc::new(Snapshot::default()))),
            store: Rc::new(RefCell::new(Store::default())),
            stack: Rc::new(RefCell::new(Vec::new())),
            meter: ThreadMeter::new(),
        })
    }
}

/// One id-keyed event, one variant per hook, generic over how it
/// holds its value list: borrowed in a [`HookEvent`], the unit of the
/// dispatch loop (`Tesla::deliver`), or as a span of a batch's value
/// arena while it waits in a `BatchBuf`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event<V> {
    FnEntry {
        f: NameId,
        args: V,
    },
    FnExit {
        f: NameId,
        args: V,
        ret: Value,
    },
    FieldStore {
        struct_id: NameId,
        field_id: NameId,
        object: Value,
        op: FieldOp,
        value: Value,
    },
    MsgEntry {
        sel: NameId,
        receiver: Value,
        args: V,
    },
    MsgExit {
        sel: NameId,
        receiver: Value,
        args: V,
        ret: Value,
    },
    Site {
        class: ClassId,
        values: V,
    },
}

/// An [`Event`] borrowing its value list.
pub(crate) type HookEvent<'a> = Event<&'a [Value]>;

impl<V> Event<V> {
    /// The hook this event is a call of.
    #[inline]
    pub(crate) fn kind(&self) -> HookKind {
        match self {
            Event::FnEntry { .. } => HookKind::FnEntry,
            Event::FnExit { .. } => HookKind::FnExit,
            Event::FieldStore { .. } => HookKind::FieldStore,
            Event::MsgEntry { .. } => HookKind::MsgEntry,
            Event::MsgExit { .. } => HookKind::MsgExit,
            Event::Site { .. } => HookKind::AssertionSite,
        }
    }

    /// The same event with its value list passed through `map`.
    #[inline]
    pub(crate) fn map_values<W>(self, map: impl FnOnce(V) -> W) -> Event<W> {
        match self {
            Event::FnEntry { f, args } => Event::FnEntry { f, args: map(args) },
            Event::FnExit { f, args, ret } => Event::FnExit {
                f,
                args: map(args),
                ret,
            },
            Event::FieldStore {
                struct_id,
                field_id,
                object,
                op,
                value,
            } => Event::FieldStore {
                struct_id,
                field_id,
                object,
                op,
                value,
            },
            Event::MsgEntry {
                sel,
                receiver,
                args,
            } => Event::MsgEntry {
                sel,
                receiver,
                args: map(args),
            },
            Event::MsgExit {
                sel,
                receiver,
                args,
                ret,
            } => Event::MsgExit {
                sel,
                receiver,
                args: map(args),
                ret,
            },
            Event::Site { class, values } => Event::Site {
                class,
                values: map(values),
            },
        }
    }
}

/// Global-shard lock state threaded through one call of the dispatch
/// loop.
///
/// Without coalescing (a direct hook's call) every store access locks
/// and unlocks its shard, including the lock-poison fault draw. A
/// batch *coalesces* consecutive accesses to the same shard into one
/// held guard: a run of events against one bound group pays one lock
/// acquisition, not one per store access. [`Tesla::dispatch_batch`]
/// turns coalescing off under a fault plan, whose lock-poison fault
/// is drawn at every acquisition.
struct ShardCache<'a> {
    coalesce: bool,
    shard: usize,
    guard: Option<MutexGuard<'a, Store>>,
}

impl<'a> ShardCache<'a> {
    fn new(coalesce: bool) -> ShardCache<'a> {
        ShardCache {
            coalesce,
            shard: usize::MAX,
            guard: None,
        }
    }

    /// Release any held guard (the batch flush point).
    fn release(&mut self) {
        self.guard = None;
        self.shard = usize::MAX;
    }
}

/// The libtesla engine handle. Cheap to share via `Arc`; all hook
/// methods take `&self`.
pub struct Tesla {
    id: u64,
    config: Config,
    interner: Interner,
    /// Published dispatch state. The write lock doubles as the
    /// registration lock; readers only take it after a version miss.
    snapshot: RwLock<Arc<Snapshot>>,
    /// Bumped (while the write lock is held) on every publish; hooks
    /// revalidate their cached snapshot against it with one atomic
    /// load.
    snap_version: AtomicU64,
    /// Striped Global-context stores; a bound group lives entirely in
    /// shard `group % GLOBAL_SHARDS`. The only locks whose poison flag
    /// is cleared and counted (`lock_shard`): the lock-poison fault's
    /// absorption and the chaos harness read that count.
    global_shards: [Mutex<Store>; GLOBAL_SHARDS],
    violation_log: Mutex<Vec<Violation>>,
    /// The engine's metrics registry. Always present (so callers can
    /// plumb values like `sites_elided` unconditionally); only fed
    /// registrations, lifecycle events and hook timings when
    /// [`Config::telemetry`] is set.
    metrics: Arc<MetricsRegistry>,
    /// The adaptive overhead governor, present only when
    /// [`Config::governor`] was set. Ticked once per event by the
    /// dispatch loop; its actuators reach the store through
    /// [`Dispatch`].
    governor: Option<Arc<Governor>>,
}

thread_local! {
    /// One-slot fast path: the engine this thread talked to last.
    static TL_ACTIVE: RefCell<Option<(u64, Rc<EngineTls>)>> = const { RefCell::new(None) };
    /// Fallback for threads using several engines, keyed by engine id.
    static TL_ENGINES: RefCell<HashMap<u64, Rc<EngineTls>>> =
        RefCell::new(HashMap::new());
}

static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

impl Tesla {
    /// Create an engine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration — use [`Tesla::try_new`]
    /// where the configuration is not statically known to be valid.
    pub fn new(config: Config) -> Tesla {
        match Tesla::try_new(config) {
            Ok(engine) => engine,
            Err(e) => panic!("invalid TESLA configuration: {e}"),
        }
    }

    /// Create an engine, validating the configuration's sizing limits
    /// up front so a zero-sized limit is a typed error here rather
    /// than a panic or a dead store deep inside the first
    /// instrumentation hook.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the offending field.
    pub fn try_new(mut config: Config) -> Result<Tesla, ConfigError> {
        if config.instance_capacity == 0 {
            return Err(ConfigError::ZeroInstanceCapacity);
        }
        if config.max_instances == Some(0) {
            return Err(ConfigError::ZeroMaxInstances);
        }
        if config.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if let Some(g) = config.governor {
            if g.slo_milli <= 1000 {
                return Err(ConfigError::GovernorSlo);
            }
            if g.tick_events == 0 {
                return Err(ConfigError::ZeroGovernorTick);
            }
            // The governor's feedback signal *is* the hook-latency
            // telemetry: a governed engine is a telemetered engine.
            config.telemetry = true;
        }
        let governor = config.governor.map(|g| Arc::new(Governor::new(g)));
        Ok(Tesla {
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            config,
            interner: Interner::new(),
            snapshot: RwLock::new(Arc::new(Snapshot::default())),
            // Start at 1: a fresh `EngineTls` (version 0) always
            // pulls the current snapshot on first use.
            snap_version: AtomicU64::new(1),
            global_shards: std::array::from_fn(|_| Mutex::new(Store::default())),
            violation_log: Mutex::new(Vec::new()),
            metrics: Arc::new(MetricsRegistry::new()),
            governor,
        })
    }

    /// Create with the default configuration (fail-stop, lazy init).
    pub fn with_defaults() -> Tesla {
        Tesla::new(Config::default())
    }

    /// The engine's name interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Intern a function name for use with the function hooks.
    pub fn intern_fn(&self, name: &str) -> NameId {
        self.interner.intern(name)
    }

    /// Intern a structure field name.
    pub fn intern_field(&self, name: &str) -> NameId {
        self.interner.intern(name)
    }

    /// Intern a structure type name.
    pub fn intern_struct(&self, name: &str) -> NameId {
        self.interner.intern(name)
    }

    /// Intern an Objective-C-style selector.
    pub fn intern_selector(&self, name: &str) -> NameId {
        self.interner.intern(name)
    }

    /// Add a lifecycle-event handler (§4.4.2). Publishes a new
    /// snapshot; events already in flight keep the handler set they
    /// started with. Classes registered before the handler are
    /// replayed through [`EventHandler::on_register`], so aggregating
    /// handlers see every class no matter the attach order.
    pub fn add_handler(&self, h: Arc<dyn EventHandler>) {
        let mut slot = locks::write(&self.snapshot);
        let mut next = Snapshot {
            tables: slot.tables.clone(),
            classes: slot.classes.clone(),
            handlers: slot.handlers.clone(),
        };
        for (i, c) in next.classes.iter().enumerate() {
            if catch_unwind(AssertUnwindSafe(|| h.on_register(i as u32, &c.automaton))).is_err() {
                self.metrics.note_handler_panic();
            }
        }
        next.handlers.push(h);
        *slot = Arc::new(next);
        self.snap_version.fetch_add(1, Ordering::Release);
    }

    /// The engine's metrics registry (always present; populated by
    /// registration and dispatch only under [`Config::telemetry`]).
    /// External aggregates — e.g. the static checker's
    /// `sites_elided` — can be recorded here regardless of the
    /// telemetry flag.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Whether this engine was configured with telemetry enabled.
    pub fn telemetry_enabled(&self) -> bool {
        self.config.telemetry
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The adaptive overhead governor, when configured
    /// ([`Config::governor`]): inspect its decision log, current
    /// escalation level and overhead estimate.
    pub fn governor(&self) -> Option<&Governor> {
        self.governor.as_deref()
    }

    /// Violations recorded in [`FailMode::Log`] mode (fail-stop mode
    /// records them here too, before returning them).
    pub fn violations(&self) -> Vec<Violation> {
        locks::lock(&self.violation_log).clone()
    }

    /// Drop recorded violations.
    pub fn clear_violations(&self) {
        locks::lock(&self.violation_log).clear();
    }

    /// Register a compiled automaton class. Returns its id, used by
    /// the [`Tesla::assertion_site`] hook.
    ///
    /// Publishes one new snapshot; for many classes prefer
    /// [`Tesla::register_batch`], which publishes once for the whole
    /// batch.
    ///
    /// # Errors
    ///
    /// Returns [`RegisterError`] if the automaton exceeds engine
    /// limits.
    pub fn register(&self, automaton: Automaton) -> Result<ClassId, RegisterError> {
        self.register_batch(vec![automaton]).map(|ids| ids[0])
    }

    /// Register several automata, building and publishing a single
    /// snapshot. Returns the class ids in argument order. On error
    /// nothing is registered.
    ///
    /// # Errors
    ///
    /// Returns [`RegisterError`] if any automaton exceeds engine
    /// limits.
    pub fn register_batch(&self, automata: Vec<Automaton>) -> Result<Vec<ClassId>, RegisterError> {
        let pairs = automata
            .into_iter()
            .map(|a| {
                let compiled = Dfa::build(&a).map(Arc::new);
                (Arc::new(a), compiled)
            })
            .collect();
        self.register_batch_compiled(pairs)
    }

    /// [`Tesla::register_batch`] over pre-shared automata with their
    /// memoised DFAs ([`Dfa::build`]), as produced by
    /// [`tesla_automata::CompileCache::compile_manifest_with_dfas`] —
    /// the batch path that never re-runs subset construction for an
    /// automaton the cache has already determinised (or already found
    /// to have no runtime DFA).
    ///
    /// # Errors
    ///
    /// Returns [`RegisterError`] if any automaton exceeds engine
    /// limits; on error nothing is registered.
    pub fn register_batch_compiled(
        &self,
        pairs: Vec<(Arc<Automaton>, Option<Arc<Dfa>>)>,
    ) -> Result<Vec<ClassId>, RegisterError> {
        for (a, _) in &pairs {
            if a.var_names.len() > MAX_VARS {
                return Err(RegisterError::TooManyVariables(a.var_names.len()));
            }
            for sym in &a.symbols {
                if let SymbolKind::Function { args, .. } | SymbolKind::Message { args, .. } =
                    &sym.kind
                {
                    if args.len() > usize::from(u8::MAX) {
                        return Err(RegisterError::TooManyArguments(args.len()));
                    }
                }
            }
        }
        let mut slot = locks::write(&self.snapshot);
        let mut next = Snapshot {
            tables: slot.tables.clone(),
            classes: slot.classes.clone(),
            handlers: slot.handlers.clone(),
        };
        let mut ids = Vec::with_capacity(pairs.len());
        for (a, c) in pairs {
            ids.push(ClassId(self.register_into(&mut next, a, c)));
        }
        *slot = Arc::new(next);
        self.snap_version.fetch_add(1, Ordering::Release);
        Ok(ids)
    }

    /// Wire one automaton into a snapshot under construction.
    fn register_into(
        &self,
        next: &mut Snapshot,
        automaton: Arc<Automaton>,
        compiled: Option<Arc<Dfa>>,
    ) -> u32 {
        let tables = &mut next.tables;
        let class = next.classes.len() as u32;

        // Bound group.
        let gk = GroupKey {
            start_fn: self.interner.intern(&automaton.bound.start_fn),
            start_dir: automaton.bound.start_dir,
            end_fn: self.interner.intern(&automaton.bound.end_fn),
            end_dir: automaton.bound.end_dir,
            context: automaton.context,
        };
        let group = match tables.group_index.get(&gk) {
            Some(g) => {
                let g = *g;
                tables.groups[g as usize].classes.push(class);
                g
            }
            None => {
                let g = tables.groups.len() as u32;
                tables.groups.push(GroupDef {
                    context: automaton.context,
                    classes: vec![class],
                });
                tables.group_index.insert(gk.clone(), g);
                // Wire the bound events into the function rows.
                let (entry, exit) = (HookKind::FnEntry, HookKind::FnExit);
                let start = by_direction(gk.start_dir, entry, exit);
                tables.row_mut(start, gk.start_fn).bound_start.push(g);
                let end = by_direction(gk.end_dir, entry, exit);
                tables.row_mut(end, gk.end_fn).bound_end.push(g);
                g
            }
        };

        // Guard functions need shadow-stack maintenance.
        let mut guard_fns: Vec<(String, NameId)> = Vec::new();
        for t in &automaton.transitions {
            if let Some(Guard::InCallStack(f)) = &t.guard {
                let id = self.interner.intern(f);
                tables.row_mut(HookKind::FnEntry, id).stack = true;
                tables.row_mut(HookKind::FnExit, id).stack = true;
                if !guard_fns.iter().any(|(_, g)| *g == id) {
                    guard_fns.push((f.clone(), id));
                }
            }
        }

        // Event translators, each to the row of its kind and name.
        for sym in &automaton.symbols {
            let (kind, name, t) = match &sym.kind {
                SymbolKind::Function {
                    name,
                    args,
                    direction,
                    ret,
                    ..
                } => {
                    let kind = by_direction(*direction, HookKind::FnEntry, HookKind::FnExit);
                    (
                        kind,
                        name,
                        compile_fn_translator(class, sym, args, ret.as_ref()),
                    )
                }
                SymbolKind::FieldAssign {
                    struct_name,
                    field_name,
                    object,
                    op,
                    value,
                } => {
                    let struct_filter = if struct_name.is_empty() {
                        None
                    } else {
                        Some(self.interner.intern(struct_name))
                    };
                    let mut t = Translator {
                        class,
                        sym: sym.id,
                        min_args: 0,
                        checks: Vec::new(),
                        binds: Vec::new(),
                        struct_filter,
                        field_op: Some(*op),
                    };
                    compile_pattern(object, Slot::Object, &mut t);
                    compile_pattern(value, Slot::StoredValue, &mut t);
                    (HookKind::FieldStore, field_name, t)
                }
                SymbolKind::Message {
                    receiver,
                    selector,
                    args,
                    direction,
                    ret,
                } => {
                    let kind = by_direction(*direction, HookKind::MsgEntry, HookKind::MsgExit);
                    let mut t = compile_fn_translator(class, sym, args, ret.as_ref());
                    compile_pattern(receiver, Slot::Receiver, &mut t);
                    (kind, selector, t)
                }
                SymbolKind::Site | SymbolKind::BoundStart | SymbolKind::BoundEnd => continue,
            };
            let id = self.interner.intern(name);
            tables.row_mut(kind, id).translators.push(t);
        }

        next.classes.push(Arc::new(ClassDef {
            automaton,
            compiled,
            group,
            capacity: self.config.instance_capacity,
            site_hits: AtomicU64::new(0),
            violation_count: AtomicU64::new(0),
            guard_fns,
            quota: self.config.max_instances,
            eviction: self.config.eviction,
        }));
        // Cold path: let the registry and aggregating handlers build
        // their dense per-class tables before any event for this
        // class fires. The registry's weight rows are the rows the
        // class's instances step on.
        let def = &next.classes[class as usize];
        if self.config.telemetry {
            self.metrics
                .register_class(class, &def.automaton, def.compiled.as_ref());
        }
        for h in &next.handlers {
            if catch_unwind(AssertUnwindSafe(|| h.on_register(class, &def.automaton))).is_err() {
                self.metrics.note_handler_panic();
            }
        }
        class
    }

    /// Compile and register a [`tesla_spec::Assertion`] in one step.
    ///
    /// # Errors
    ///
    /// Returns a string describing compilation or registration
    /// failure.
    pub fn register_assertion(&self, assertion: &tesla_spec::Assertion) -> Result<ClassId, String> {
        let a = tesla_automata::compile(assertion).map_err(|e| e.to_string())?;
        self.register(a).map_err(|e| e.to_string())
    }

    /// The registered class definitions (introspection, DOT output).
    pub fn class_defs(&self) -> Vec<Arc<ClassDef>> {
        locks::read(&self.snapshot).classes.clone()
    }

    // ------------------------------------------------------------------
    // Instrumentation hooks
    // ------------------------------------------------------------------

    /// The one loop that delivers events to the store. Every entry
    /// point calls it: a direct hook with one event
    /// ([`Tesla::deliver_one`]), [`Tesla::dispatch_batch`] with a
    /// staged batch. For each event it ticks the governor, counts the
    /// event into the call's tally, and runs the event's body once per
    /// chaos repetition — 1 normally, 0 for a dropped event, 2 for a
    /// duplicated one; the first violation wins. It stops at the
    /// first `Err` and returns that event's index. A staged rejection
    /// stops the loop at its index before the governor or telemetry
    /// see it.
    ///
    /// `values` reads an event's value list where the event holds it:
    /// a borrowed slice for a hook, an arena span for a batch, read in
    /// place so a staged event is decoded by the one `match`. `sole`
    /// is the kind of a one-event call, which is timed only when its
    /// event is due on the sampling countdown; `coalesce` lets
    /// consecutive store accesses share one shard guard.
    #[inline(always)]
    fn deliver<'a, 'e, V: Copy + 'e>(
        &'a self,
        events: impl Iterator<Item = Result<&'e Event<V>, &'e Violation>>,
        values: impl Fn(V) -> &'e [Value],
        sole: Option<HookKind>,
        coalesce: bool,
    ) -> Result<(), (usize, Violation)> {
        let (tls, snap) = self.tls();
        let mut meter = self
            .config
            .telemetry
            .then(|| CallMeter::start(&self.metrics, &tls.meter, sole));
        let mut cache = ShardCache::new(coalesce);
        let out = 'call: {
            for (idx, ev) in events.enumerate() {
                let ev = match ev {
                    Ok(ev) => ev,
                    Err(violation) => break 'call Err((idx, violation.clone())),
                };
                let kind = ev.kind();
                if let Some(g) = &self.governor {
                    g.on_event(&self.metrics);
                }
                if let Some(m) = &mut meter {
                    m.count(kind);
                }
                let mut first = Ok(());
                for _ in 0..self.chaos_reps(kind) {
                    let r = self.step(&tls, &snap, &mut cache, ev, &values);
                    if first.is_ok() {
                        first = r;
                    }
                }
                if let Err(v) = first {
                    break 'call Err((idx, v));
                }
            }
            Ok(())
        };
        // Release a held shard guard before the call's accounting.
        drop(cache);
        if let Some(m) = &meter {
            m.record(sole);
        }
        out
    }

    /// A direct hook's call of the dispatch loop: one event, locking
    /// per store access.
    #[inline(always)]
    pub(crate) fn deliver_one(&self, ev: HookEvent<'_>) -> Result<(), Violation> {
        self.deliver(std::iter::once(Ok(&ev)), |v| v, Some(ev.kind()), false)
            .map_err(|(_, v)| v)
    }

    /// Run one event's body: the one `match` from an event onto the
    /// name-keyed body ([`Tesla::on_name`]) or the assertion site,
    /// reading its value list through `values`. The event stays where
    /// its caller holds it, so each arm loads only its own fields.
    #[inline(always)]
    fn step<'a, 'e, V: Copy>(
        &'a self,
        tls: &EngineTls,
        snap: &Snapshot,
        cache: &mut ShardCache<'a>,
        ev: &Event<V>,
        values: &impl Fn(V) -> &'e [Value],
    ) -> Result<(), Violation> {
        let none = EventValues::default();
        match *ev {
            Event::FnEntry { f, args } => {
                let ev = EventValues {
                    args: values(args),
                    ..none
                };
                self.on_name::<{ HookKind::FnEntry as usize }>(tls, snap, cache, f, ev)
            }
            Event::FnExit { f, args, ret } => {
                let ev = EventValues {
                    args: values(args),
                    ret: Some(ret),
                    ..none
                };
                self.on_name::<{ HookKind::FnExit as usize }>(tls, snap, cache, f, ev)
            }
            Event::FieldStore {
                struct_id,
                field_id,
                object,
                op,
                value,
            } => {
                let ev = EventValues {
                    field: Some((struct_id, object, op, value)),
                    ..none
                };
                self.on_name::<{ HookKind::FieldStore as usize }>(tls, snap, cache, field_id, ev)
            }
            Event::MsgEntry {
                sel,
                receiver,
                args,
            } => {
                let ev = EventValues {
                    args: values(args),
                    receiver: Some(receiver),
                    ..none
                };
                self.on_name::<{ HookKind::MsgEntry as usize }>(tls, snap, cache, sel, ev)
            }
            Event::MsgExit {
                sel,
                receiver,
                args,
                ret,
            } => {
                let ev = EventValues {
                    args: values(args),
                    ret: Some(ret),
                    receiver: Some(receiver),
                    ..none
                };
                self.on_name::<{ HookKind::MsgExit as usize }>(tls, snap, cache, sel, ev)
            }
            Event::Site { class, values: v } => {
                self.assertion_site_inner(tls, snap, cache, class, values(v))
            }
        }
    }

    /// Function-entry hook.
    ///
    /// # Errors
    ///
    /// In fail-stop mode, returns the violation that this event
    /// exposed.
    #[inline]
    pub fn fn_entry(&self, f: NameId, args: &[Value]) -> Result<(), Violation> {
        self.deliver_one(Event::FnEntry { f, args })
    }

    /// Dispatch-table miss triage: distinguish "interned but not
    /// instrumented" (a legal no-op — the common fast path for
    /// uninstrumented functions) from "never interned" (a malformed
    /// event: a typo'd replay trace or an id minted by another
    /// engine, which previously passed vacuously). One relaxed atomic
    /// load on the happy path; the exact interner length is consulted
    /// only when the lower bound cannot vouch for the id.
    #[inline]
    fn check_known(&self, id: NameId, what: &str) -> Result<(), Violation> {
        let idx = id.0 as usize;
        if idx < self.interner.len_lower_bound() || idx < self.interner.len() {
            return Ok(());
        }
        Err(Violation::unknown_name(what, &format!("#{}", id.0)))
    }

    /// The one body of the five name-keyed hooks: look up the row of
    /// `(kind, id)`, push the shadow call stack on an entry, start the
    /// row's bound groups, run its translators, end its bound groups,
    /// dispose of the first violation, and pop the shadow call stack
    /// on an exit. The stack is pushed before an entry's work and
    /// popped after an exit's, so an `incallstack(f)` guard sees `f`
    /// during both of `f`'s own events.
    ///
    /// A missing row is triaged per namespace: a field store checks
    /// its struct id first, then its field id.
    ///
    /// The kind is a const parameter (`HookKind as usize`), so each
    /// kind has its own copy of the body with the kind folded in, for
    /// the hooks and the batch loop alike, and a hook's call site
    /// stays a call.
    fn on_name<'a, const KIND: usize>(
        &'a self,
        tls: &EngineTls,
        snap: &Snapshot,
        cache: &mut ShardCache<'a>,
        id: NameId,
        ev: EventValues<'_>,
    ) -> Result<(), Violation> {
        let kind = HookKind::ALL[KIND];
        let Some(row) = snap.tables.rows[KIND].get(id.0 as usize) else {
            if let Some((struct_id, ..)) = ev.field {
                self.check_known(struct_id, "struct")?;
            }
            let what = match kind {
                HookKind::FnEntry | HookKind::FnExit => "function",
                HookKind::FieldStore => "field",
                _ => "selector",
            };
            return self.check_known(id, what);
        };
        if kind == HookKind::FnEntry && row.stack {
            tls.stack.borrow_mut().push(id);
        }
        let mut first = None;
        for &g in &row.bound_start {
            self.enter_group(snap, tls, cache, g);
        }
        if !row.translators.is_empty() {
            self.run_translators(snap, tls, cache, &row.translators, ev, &mut first);
        }
        for &g in &row.bound_end {
            self.exit_group(snap, tls, cache, g, &mut first);
        }
        if kind == HookKind::FnExit && row.stack {
            let mut s = tls.stack.borrow_mut();
            if let Some(pos) = s.iter().rposition(|x| *x == id) {
                s.remove(pos);
            }
        }
        first.map_or(Ok(()), |v| self.dispose(v))
    }

    /// Function-exit hook; `args` are the entry arguments, `ret` the
    /// return value.
    ///
    /// The shadow call stack is popped *after* exit translators and
    /// bound ends run, so an `incallstack(f)` guard evaluated during
    /// `f`'s own exit event still sees `f` on the stack — symmetric
    /// with the entry event, which pushes before running translators.
    ///
    /// # Errors
    ///
    /// In fail-stop mode, returns the violation that this event
    /// exposed.
    #[inline]
    pub fn fn_exit(&self, f: NameId, args: &[Value], ret: Value) -> Result<(), Violation> {
        self.deliver_one(Event::FnExit { f, args, ret })
    }

    /// Structure-field-assignment hook (§4.2 "Field assignment"):
    /// the structure type, the field, the containing object and the
    /// assigned value, plus the operator for compound assignments.
    ///
    /// # Errors
    ///
    /// In fail-stop mode, returns the violation that this event
    /// exposed.
    #[inline]
    pub fn field_store(
        &self,
        struct_id: NameId,
        field_id: NameId,
        object: Value,
        op: FieldOp,
        value: Value,
    ) -> Result<(), Violation> {
        self.deliver_one(Event::FieldStore {
            struct_id,
            field_id,
            object,
            op,
            value,
        })
    }

    /// Message-send (method entry) hook (§4.3).
    ///
    /// # Errors
    ///
    /// In fail-stop mode, returns the violation that this event
    /// exposed.
    #[inline]
    pub fn msg_entry(&self, sel: NameId, receiver: Value, args: &[Value]) -> Result<(), Violation> {
        self.deliver_one(Event::MsgEntry {
            sel,
            receiver,
            args,
        })
    }

    /// Method-return hook (§4.3).
    ///
    /// # Errors
    ///
    /// In fail-stop mode, returns the violation that this event
    /// exposed.
    #[inline]
    pub fn msg_exit(
        &self,
        sel: NameId,
        receiver: Value,
        args: &[Value],
        ret: Value,
    ) -> Result<(), Violation> {
        self.deliver_one(Event::MsgExit {
            sel,
            receiver,
            args,
            ret,
        })
    }

    /// Assertion-site hook: execution reached the assertion's source
    /// location with the scope's variable values (in variable-index
    /// order).
    ///
    /// # Errors
    ///
    /// In fail-stop mode, returns the violation that this event
    /// exposed.
    pub fn assertion_site(&self, class: ClassId, values: &[Value]) -> Result<(), Violation> {
        self.deliver_one(Event::Site { class, values })
    }

    fn assertion_site_inner<'a>(
        &'a self,
        tls: &EngineTls,
        snap: &Snapshot,
        cache: &mut ShardCache<'a>,
        class: ClassId,
        values: &[Value],
    ) -> Result<(), Violation> {
        let Some(def) = snap.classes.get(class.0 as usize) else {
            // A site event for a class that was never registered must
            // not panic the monitor — replayed traces carry class ids
            // chosen by the producer.
            return Err(Violation::unknown_name(
                "assertion class",
                &format!("#{}", class.0),
            ));
        };
        def.site_hits.fetch_add(1, Ordering::Relaxed);
        let n = values.len().min(MAX_VARS);
        let mut bindings = [(0usize, Value::NULL); MAX_VARS];
        for (i, v) in values.iter().take(n).enumerate() {
            bindings[i] = (i, *v);
        }
        let sym = def.automaton.site_sym;
        self.step_class(snap, tls, cache, class.0, sym, &bindings[..n])
            .map_or(Ok(()), |v| self.dispose(v))
    }

    /// Dispatch a staged batch: one call of the dispatch loop over all
    /// its events, with one snapshot load, one accounting for the
    /// whole batch and — unless a fault plan is set — the Global
    /// store-shard lock held across consecutive same-shard events
    /// instead of being re-taken per store access.
    ///
    /// Verdicts, violations and counters are those of the same events
    /// sent through the hooks in order, because both run the same
    /// loop: violations are logged and disposed per
    /// [`Config::fail_mode`], and the call stops at the first event
    /// that returns `Err` (fail-stop violations, unknown names). The
    /// call is accounted when it ends, also on the error path.
    ///
    /// # Errors
    ///
    /// `(index, violation)` — the offset *within the batch* of the
    /// event that stopped the drain, and the violation it raised.
    /// Items after it were not dispatched.
    pub fn dispatch_batch(&self, batch: &BatchBuf) -> Result<(), (usize, Violation)> {
        let sole = match batch.items.as_slice() {
            [only] => Some(only.kind()),
            _ => None,
        };
        let coalesce = self.config.faults.is_none();
        self.deliver(batch.events(), |span| batch.slice(span), sole, coalesce)
    }

    // Convenience string-keyed hooks (tests, examples).

    /// [`Tesla::fn_entry`] with a string name (interned on the spot).
    ///
    /// # Errors
    ///
    /// See [`Tesla::fn_entry`].
    pub fn fn_entry_named(&self, name: &str, args: &[Value]) -> Result<(), Violation> {
        self.fn_entry(self.interner.intern(name), args)
    }

    /// [`Tesla::fn_exit`] with a string name.
    ///
    /// Unlike [`Tesla::fn_entry_named`] this does **not** intern on
    /// the spot: an exit for a function this engine has never seen
    /// enter is a malformed event stream (most often a typo'd replay
    /// trace), and interning it would make the typo pass vacuously
    /// forever after.
    ///
    /// # Errors
    ///
    /// Returns a [`ViolationKind::UnknownName`] violation when `name`
    /// was never interned; otherwise see [`Tesla::fn_exit`].
    pub fn fn_exit_named(&self, name: &str, args: &[Value], ret: Value) -> Result<(), Violation> {
        match self.interner.get(name) {
            Some(id) => self.fn_exit(id, args, ret),
            None => Err(Violation::unknown_name("function", name)),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Coverage report: per class, whether its assertion site was
    /// ever reached (the §3.5.2 test-suite coverage analysis).
    pub fn coverage(&self) -> Vec<(String, u64, u64)> {
        locks::read(&self.snapshot)
            .classes
            .iter()
            .map(|c| {
                (
                    c.automaton.name.clone(),
                    c.site_hits.load(Ordering::Relaxed),
                    c.violation_count.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Number of registered classes.
    pub fn n_classes(&self) -> usize {
        locks::read(&self.snapshot).classes.len()
    }

    /// Live instances for a class in the current thread's store
    /// (tests/introspection).
    pub fn live_instances_here(&self, class: ClassId) -> usize {
        let (tls, snap) = self.tls();
        let def = &snap.classes[class.0 as usize];
        let mut n = 0;
        let mut cache = ShardCache::new(false);
        self.with_store(def.automaton.context, def.group, &tls, &mut cache, |s| {
            n = s.live_instances(class.0);
        });
        n
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Hook prologue: this thread's cached state plus the current
    /// snapshot. Steady state costs one atomic load, no lock and no
    /// write to memory another thread reads: the snapshot comes back
    /// behind this thread's own `Rc`. Only when the version moved does
    /// the hook take the read lock, clone the shared `Arc` and
    /// allocate one new `Rc`. No borrow of the cache outlives this
    /// call, so a hook re-entered from a handler loads the newest
    /// snapshot while the outer hook finishes on the one it started
    /// with.
    ///
    /// Only the one-slot hit and the version check are inline; the
    /// engine switch and the snapshot refresh are cold calls, which
    /// keeps the thread-local access small enough to inline into
    /// every hook.
    #[inline]
    #[allow(clippy::redundant_allocation)]
    fn tls(&self) -> (Rc<EngineTls>, Rc<Arc<Snapshot>>) {
        let hit = TL_ACTIVE.with(|a| match &*a.borrow() {
            Some((id, rc)) if *id == self.id => Some(Rc::clone(rc)),
            _ => None,
        });
        let tls = match hit {
            Some(rc) => rc,
            None => self.switch_tls(),
        };
        let v = self.snap_version.load(Ordering::Acquire);
        if tls.version.get() != v {
            self.refresh_snapshot(&tls, v);
        }
        let snap = Rc::clone(&tls.snap.borrow());
        (tls, snap)
    }

    /// [`Tesla::tls`] miss: this thread last talked to another engine
    /// (or to none). Find or create this engine's state and make it
    /// the one-slot entry.
    #[cold]
    #[inline(never)]
    fn switch_tls(&self) -> Rc<EngineTls> {
        let rc = TL_ENGINES.with(|m| {
            m.borrow_mut()
                .entry(self.id)
                .or_insert_with(EngineTls::new)
                .clone()
        });
        TL_ACTIVE.with(|a| *a.borrow_mut() = Some((self.id, Rc::clone(&rc))));
        rc
    }

    /// [`Tesla::tls`] after a publish: load snapshot version `v`.
    #[cold]
    #[inline(never)]
    fn refresh_snapshot(&self, tls: &EngineTls, v: u64) {
        tls.snap
            .replace(Rc::new(locks::read(&self.snapshot).clone()));
        tls.version.set(v);
    }

    /// Record a violation and apply [`Config::fail_mode`] to it.
    fn dispose(&self, v: Violation) -> Result<(), Violation> {
        locks::lock(&self.violation_log).push(v.clone());
        match self.config.fail_mode {
            FailMode::FailStop => Err(v),
            FailMode::Log => Ok(()),
        }
    }

    /// The engine's fault-injection plan, if one was configured.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.config.faults.as_ref()
    }

    /// Bundle a snapshot's handlers with the metrics sink and fault
    /// plan for one hook invocation's event deliveries; under
    /// telemetry the registry is the direct tally.
    #[inline]
    fn dispatch<'a>(&'a self, snap: &'a Snapshot) -> Dispatch<'a> {
        Dispatch::new(&snap.handlers, &self.metrics, self.config.faults.as_deref())
            .with_tally(self.config.telemetry.then_some(&*self.metrics))
            .with_governor(self.governor.as_deref())
    }

    /// Hook-prologue chaos draw: how many times to run the hook body.
    /// 1 in normal operation; 0 when the plan drops the event, 2 when
    /// it duplicates it. Clock skew is absorbed here too, as a wild
    /// sample in the hook's latency histogram.
    #[inline]
    fn chaos_reps(&self, kind: HookKind) -> u32 {
        let Some(fp) = self.config.faults.as_deref() else {
            return 1;
        };
        if fp.draw(FaultKind::ClockSkew) {
            self.metrics.note_clock_skew(kind, fp.skew_ns());
            fp.absorbed(FaultKind::ClockSkew);
            self.metrics.note_fault_absorbed();
        }
        if fp.draw(FaultKind::EventDrop) {
            fp.absorbed(FaultKind::EventDrop);
            self.metrics.note_fault_absorbed();
            return 0;
        }
        if fp.draw(FaultKind::EventDuplicate) {
            fp.absorbed(FaultKind::EventDuplicate);
            self.metrics.note_fault_absorbed();
            return 2;
        }
        1
    }

    /// Lock one Global shard, recovering (and counting) a poisoned
    /// mutex: the store data is a bag of monotone counters and
    /// instance tables that a half-completed event leaves stale, not
    /// corrupt, so continuing is strictly better than propagating the
    /// poison panic into every future hook.
    fn lock_shard<'a>(&self, m: &'a Mutex<Store>) -> MutexGuard<'a, Store> {
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                m.clear_poison();
                self.metrics.note_lock_poison_recovery();
                poisoned.into_inner()
            }
        }
    }

    /// Run `f` against the store owning `group`'s state in `ctx`:
    /// one of the Global shards, or this thread's store. `cache`
    /// carries the shard guard across accesses when it coalesces.
    #[inline]
    fn with_store<'a, R>(
        &'a self,
        ctx: Context,
        group: u32,
        tls: &EngineTls,
        cache: &mut ShardCache<'a>,
        f: impl FnOnce(&mut Store) -> R,
    ) -> R {
        match ctx {
            Context::Global => {
                let shard = group as usize % GLOBAL_SHARDS;
                if cache.coalesce {
                    if cache.guard.is_none() || cache.shard != shard {
                        // Drop the previous shard's guard before
                        // taking the next: at most one shard lock is
                        // ever held, so batch order can never deadlock
                        // against another engine thread.
                        cache.release();
                        cache.guard = Some(self.lock_shard(&self.global_shards[shard]));
                        cache.shard = shard;
                    }
                    return f(cache.guard.as_mut().expect("guard installed above"));
                }
                let m = &self.global_shards[shard];
                if let Some(fp) = self.config.faults.as_deref() {
                    if fp.draw(FaultKind::LockPoison) {
                        // Poison the shard for real: panic while the
                        // guard is held so its unwinding drop marks
                        // the mutex, then let the ordinary recovery
                        // path below absorb it.
                        let guard = self.lock_shard(m);
                        let _ = catch_unwind(AssertUnwindSafe(move || {
                            let _held = guard;
                            std::panic::panic_any(INJECTED_PANIC);
                        }));
                        fp.absorbed(FaultKind::LockPoison);
                        self.metrics.note_fault_absorbed();
                    }
                }
                let mut g = self.lock_shard(m);
                f(&mut g)
            }
            Context::PerThread => f(&mut tls.store.borrow_mut()),
        }
    }

    fn enter_group<'a>(
        &'a self,
        snap: &Snapshot,
        tls: &EngineTls,
        cache: &mut ShardCache<'a>,
        g: u32,
    ) {
        let gd = &snap.tables.groups[g as usize];
        let naive = self.config.init_mode == InitMode::Naive;
        let d = self.dispatch(snap);
        self.with_store(gd.context, g, tls, cache, |store| {
            store.ensure(snap.classes.len(), snap.tables.groups.len());
            let gs = &mut store.groups[g as usize];
            gs.depth += 1;
            if gs.depth > 1 {
                return;
            }
            gs.epoch += 1;
            gs.materialized.clear();
            if naive {
                // Eager init: touch every class in the group — the
                // cost the lazy optimisation removes (fig. 13).
                for &c in &gd.classes {
                    store.materialize(c, &snap.classes[c as usize], &d);
                }
            }
        });
    }

    fn exit_group<'a>(
        &'a self,
        snap: &Snapshot,
        tls: &EngineTls,
        cache: &mut ShardCache<'a>,
        g: u32,
        first: &mut Option<Violation>,
    ) {
        let gd = &snap.tables.groups[g as usize];
        let naive = self.config.init_mode == InitMode::Naive;
        let d = self.dispatch(snap);
        self.with_store(gd.context, g, tls, cache, |store| {
            store.ensure(snap.classes.len(), snap.tables.groups.len());
            {
                let gs = &mut store.groups[g as usize];
                if gs.depth == 0 {
                    return; // exit without matching entry: ignore
                }
                gs.depth -= 1;
                if gs.depth > 0 {
                    return;
                }
            }
            // Lazy mode finalises only the classes materialised this
            // epoch. The list is borrowed out of the store and handed
            // back cleared, so the next epoch reuses its allocation.
            let mut done = std::mem::take(&mut store.groups[g as usize].materialized);
            let classes = if naive { &gd.classes } else { &done };
            for &c in classes {
                if let Some(v) = store.finalise_class(c, &snap.classes[c as usize], &d) {
                    first.get_or_insert(v);
                }
            }
            done.clear();
            store.groups[g as usize].materialized = done;
        });
    }

    /// Run a row's translators over one event (§4.2): each applies if
    /// its static checks pass and every variable it binds has a value,
    /// and then steps its class; the first violation lands in `first`.
    fn run_translators<'a>(
        &'a self,
        snap: &Snapshot,
        tls: &EngineTls,
        cache: &mut ShardCache<'a>,
        entries: &[Translator],
        ev: EventValues<'_>,
        first: &mut Option<Violation>,
    ) {
        // Fixed-size binding buffer: no per-event heap allocation.
        let mut bindings = [(0usize, Value::NULL); MAX_VARS];
        'entry: for t in entries {
            // Static checks (§4.2: "the generated code checks static
            // event parameters ... otherwise, the translator branches
            // to the static checks for the next automaton").
            if ev.args.len() < usize::from(t.min_args) {
                continue;
            }
            if let Some((struct_id, _, op, _)) = ev.field {
                if t.struct_filter.is_some_and(|want| want != struct_id) || t.field_op != Some(op) {
                    continue;
                }
            }
            let slot_value = |slot: &Slot| -> Option<Value> {
                match slot {
                    Slot::Arg(i) => ev.args.get(usize::from(*i)).copied(),
                    Slot::Ret => ev.ret,
                    Slot::Receiver => ev.receiver,
                    Slot::Object => ev.field.map(|(_, o, _, _)| o),
                    Slot::StoredValue => ev.field.map(|(_, _, _, v)| v),
                }
            };
            for (slot, check) in &t.checks {
                match slot_value(slot) {
                    Some(v) if check.ok(v) => {}
                    _ => continue 'entry,
                }
            }
            // Dynamic variable extraction.
            let mut nb = 0;
            for (var, slot) in &t.binds {
                match slot_value(slot) {
                    Some(v) => {
                        bindings[nb] = (*var as usize, v);
                        nb += 1;
                    }
                    None => continue 'entry,
                }
            }
            if let Some(v) = self.step_class(snap, tls, cache, t.class, t.sym, &bindings[..nb]) {
                first.get_or_insert(v);
            }
        }
    }

    /// Step one class on one symbol: the store step that translators
    /// and assertion sites share. Inside the class's temporal bound it
    /// materialises the class, evaluates guards against this thread's
    /// shadow call stack and applies the event; outside the bound the
    /// event is unreachable by automaton semantics and is ignored.
    /// Returns the violation the step raised.
    #[inline]
    fn step_class<'a>(
        &'a self,
        snap: &Snapshot,
        tls: &EngineTls,
        cache: &mut ShardCache<'a>,
        class: u32,
        sym: SymbolId,
        bindings: &[(usize, Value)],
    ) -> Option<Violation> {
        let def = &snap.classes[class as usize];
        let is_site = sym == def.automaton.site_sym;
        let d = self.dispatch(snap);
        self.with_store(def.automaton.context, def.group, tls, cache, |store| {
            store.ensure(snap.classes.len(), snap.tables.groups.len());
            if store.groups[def.group as usize].depth == 0 {
                return None;
            }
            store.materialize(class, def, &d);
            let mut guard_ok = guard_eval(def, &tls.stack);
            store
                .apply_event(class, def, sym, bindings, is_site, &mut guard_ok, &d)
                .violation
        })
    }
}

/// Guard evaluator against a shadow call stack, resolving guard
/// functions through the class's precomputed `(name, id)` pairs.
fn guard_eval<'a>(
    def: &'a ClassDef,
    stack: &'a Rc<RefCell<Vec<NameId>>>,
) -> impl FnMut(&Guard) -> bool + 'a {
    move |g: &Guard| match g {
        Guard::InCallStack(f) => def
            .guard_fns
            .iter()
            .find(|(name, _)| name == f)
            .map(|(_, id)| stack.borrow().contains(id))
            .unwrap_or(false),
    }
}

/// A function or message translator. Registration has refused a
/// pattern of more than 255 arguments, so every index fits its `u8`.
fn compile_fn_translator(
    class: u32,
    sym: &Symbol,
    args: &[ArgPattern],
    ret: Option<&ArgPattern>,
) -> Translator {
    let mut t = Translator {
        class,
        sym: sym.id,
        min_args: args.len() as u8,
        checks: Vec::new(),
        binds: Vec::new(),
        struct_filter: None,
        field_op: None,
    };
    for (i, p) in args.iter().enumerate() {
        compile_pattern(p, Slot::Arg(i as u8), &mut t);
    }
    if let Some(p) = ret {
        compile_pattern(p, Slot::Ret, &mut t);
    }
    t
}

fn compile_pattern(p: &ArgPattern, slot: Slot, t: &mut Translator) {
    match p {
        ArgPattern::Any { .. } => {}
        ArgPattern::Const(v) => t.checks.push((slot, Check::Const(*v))),
        ArgPattern::Flags(b) => t.checks.push((slot, Check::Flags(*b))),
        ArgPattern::Bitmask(b) => t.checks.push((slot, Check::Bitmask(*b))),
        // Out-params behave like variables at run time: the hook is
        // expected to pass the pointee value observed at event time.
        ArgPattern::Var { index, .. } | ArgPattern::OutParam { index, .. } => {
            t.binds.push((*index as u8, slot));
        }
    }
}

/// Expose the per-thread state reset, for benchmarks that reuse
/// threads across engine instances.
pub fn reset_thread_state() {
    TL_ACTIVE.with(|a| *a.borrow_mut() = None);
    TL_ENGINES.with(|m| m.borrow_mut().clear());
}
