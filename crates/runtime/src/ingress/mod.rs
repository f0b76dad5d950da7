//! Transport-agnostic event ingress.
//!
//! The engine's hooks ([`Tesla::fn_entry`] and friends) take interned
//! [`crate::NameId`]s — the right interface for woven instrumentation,
//! the wrong one for everything else. This module is the boundary
//! where *named* events from any transport become id-keyed hook
//! calls:
//!
//! * [`IngressEvent`]/[`IngressEventRef`] — the wire model covering
//!   the full hook surface;
//! * [`EventSource`] — anything that yields events: a recorded JSONL
//!   trace ([`JsonlSource`]), a live Unix socket ([`SocketSource`]),
//!   an in-memory buffer ([`BufferedSource`]), or the IR interpreter
//!   (adapted in `tesla-instrument`);
//! * [`Tesla::ingest`] — one event through per-source name
//!   resolution ([`NameCache`]) into the engine, as a direct hook
//!   call;
//! * [`Tesla::drive`] — the pump: drain a source into batches of up
//!   to [`crate::Config::batch_size`] events for
//!   [`Tesla::dispatch_batch`], count what flowed
//!   ([`IngressStats`]), stop at the first error.
//!
//! Both resolve names by one function and end in the engine's one
//! dispatch loop, so an event ingested alone and the same event
//! drained in a batch of any size give the same verdicts, violations
//! and counters.
//!
//! A stream that breaks its schema stops with
//! [`IngressError::Input`]: the positioned diagnostic of
//! [`crate::input`], which baseline and scenario files share, so a
//! bad line reads the same in all three.
//!
//! Name-resolution policy, per event kind: *introducing* events
//! (`fn_entry`, `msg_entry`, `field_store`) intern their names —
//! producers legitimately mention functions the spec never saw.
//! *Closing* events (`fn_exit`, `msg_exit`) only resolve names that
//! already exist; a close for a never-seen name is a malformed
//! stream (most often a typo'd trace) and fails loudly rather than
//! interning the typo and passing vacuously forever after.

pub mod batch;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod replay;
pub mod ring;
#[cfg(unix)]
pub mod socket;

pub use batch::BatchBuf;
pub use event::{IngressEvent, IngressEventRef};
pub use jsonl::{EventScratch, TraceWriter, TRACE_HEADER, TRACE_VERSION};
pub use replay::{JsonlSource, LineDecoder};
pub use ring::{BatchIngress, EventProducer};
#[cfg(unix)]
pub use socket::SocketSource;

use crate::engine::{Event, HookEvent, Tesla};
use crate::event::Violation;
use crate::input::InputError;
use crate::intern::NameId;
use crate::telemetry::metrics::HookKind;
use std::collections::HashMap;

/// Why ingestion stopped: the transport layer's error taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngressError {
    /// The transport failed (open, bind, read). Not positioned: the
    /// stream itself is not at fault.
    Io(String),
    /// A line broke the wire schema, or the header named a version
    /// this build does not speak: the shared positioned diagnostic,
    /// by 1-based line number and the byte offset of that line's
    /// start within the stream (per connection for socket
    /// transports). Boxed, to keep the per-event `Result` small.
    Input(Box<InputError>),
    /// A bounded wait (accept or read) expired.
    Timeout,
}

impl From<InputError> for IngressError {
    fn from(e: InputError) -> IngressError {
        IngressError::Input(Box::new(e))
    }
}

impl std::fmt::Display for IngressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngressError::Io(e) => write!(f, "ingress I/O error: {e}"),
            IngressError::Input(e) => write!(f, "{e}"),
            IngressError::Timeout => write!(f, "timed out waiting for the event stream"),
        }
    }
}

impl std::error::Error for IngressError {}

/// Anything that yields a stream of runtime events.
///
/// `Ok(None)` is clean end-of-stream; implementations must be fused
/// (keep returning `Ok(None)`). Errors are fatal to the stream.
pub trait EventSource {
    /// Pull the next event in borrowed form. Implementations may
    /// hand out references into internal buffers that the next call
    /// overwrites — the contract of [`IngressEventRef`].
    ///
    /// # Errors
    ///
    /// An [`IngressError`] from the taxonomy above; the stream must
    /// not be read further afterwards.
    fn next_event_ref(&mut self) -> Result<Option<IngressEventRef<'_>>, IngressError>;

    /// Pull the next event in owned form: [`EventSource::next_event_ref`]
    /// then [`IngressEventRef::to_owned_event`]. The pump never calls
    /// it; it serves tests and tools that collect events.
    ///
    /// # Errors
    ///
    /// As [`EventSource::next_event_ref`].
    fn next_event(&mut self) -> Result<Option<IngressEvent>, IngressError> {
        Ok(self.next_event_ref()?.map(|ev| ev.to_owned_event()))
    }
}

/// An in-memory [`EventSource`] — the adapter that makes any
/// collected event list (e.g. an interpreter run captured by a
/// recorder) replayable through the same pump as external streams.
#[derive(Debug, Default)]
pub struct BufferedSource {
    events: std::collections::VecDeque<IngressEvent>,
    /// The event most recently popped, kept alive so
    /// [`EventSource::next_event_ref`] can borrow from it.
    current: Option<IngressEvent>,
}

impl BufferedSource {
    /// Wrap a collected event list.
    pub fn new(events: Vec<IngressEvent>) -> BufferedSource {
        BufferedSource {
            events: events.into(),
            current: None,
        }
    }
}

impl From<Vec<IngressEvent>> for BufferedSource {
    fn from(events: Vec<IngressEvent>) -> BufferedSource {
        BufferedSource::new(events)
    }
}

impl EventSource for BufferedSource {
    fn next_event_ref(&mut self) -> Result<Option<IngressEventRef<'_>>, IngressError> {
        self.current = self.events.pop_front();
        Ok(self.current.as_ref().map(IngressEvent::as_ref))
    }
}

/// Per-source name → id resolution state.
///
/// Each source owns one cache, so resolution is done exactly once
/// per distinct name per source and two sources feeding one engine
/// can never alias through a shared map.
#[derive(Debug, Default)]
pub struct NameCache {
    names: HashMap<String, NameId>,
}

impl NameCache {
    /// Fresh, empty cache.
    pub fn new() -> NameCache {
        NameCache::default()
    }

    fn intern(&mut self, engine: &Tesla, name: &str) -> NameId {
        if let Some(id) = self.names.get(name) {
            return *id;
        }
        let id = engine.interner().intern(name);
        self.names.insert(name.to_string(), id);
        id
    }

    /// Resolve without interning: `None` when the engine has never
    /// seen `name`.
    fn resolve(&mut self, engine: &Tesla, name: &str) -> Option<NameId> {
        if let Some(id) = self.names.get(name) {
            return Some(*id);
        }
        let id = engine.interner().get(name)?;
        self.names.insert(name.to_string(), id);
        Some(id)
    }
}

/// What flowed through one [`Tesla::drive`] call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IngressStats {
    /// Total events dispatched (including the one that errored, if
    /// any).
    pub events: u64,
    /// `fn_entry` events.
    pub fn_entries: u64,
    /// `fn_exit` events.
    pub fn_exits: u64,
    /// `field_store` events.
    pub field_stores: u64,
    /// `msg_entry` events.
    pub msg_entries: u64,
    /// `msg_exit` events.
    pub msg_exits: u64,
    /// `site` events.
    pub sites: u64,
}

/// Why a [`Tesla::drive`] stopped before draining its source.
#[derive(Debug, Clone, PartialEq)]
pub enum DriveError {
    /// The transport failed or the stream was malformed; carries the
    /// stats up to the failure.
    Source(IngressError, IngressStats),
    /// The engine reported a violation (fail-stop mode, or an
    /// unknown-name event in any mode); `seq` is the 1-based event
    /// ordinal.
    Event {
        /// 1-based ordinal of the offending event.
        seq: u64,
        /// The violation.
        violation: Violation,
        /// Stats up to and including the offending event.
        stats: IngressStats,
    },
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Source(e, _) => write!(f, "{e}"),
            DriveError::Event { seq, violation, .. } => {
                write!(f, "event {seq}: {violation}")
            }
        }
    }
}

impl std::error::Error for DriveError {}

impl Tesla {
    /// Dispatch one wire-model event into the engine, resolving
    /// names through `cache` (one cache per source): a direct hook
    /// call of the resolved event.
    ///
    /// # Errors
    ///
    /// A [`Violation`] from the underlying hook, or a
    /// [`crate::ViolationKind::UnknownName`] violation when a closing
    /// event names something this engine never saw.
    pub fn ingest(&self, cache: &mut NameCache, ev: IngressEventRef<'_>) -> Result<(), Violation> {
        let ev = self.resolve_names(cache, ev).map_err(|(_, v)| v)?;
        self.deliver_one(ev)
    }

    /// The name-resolution policy (module docs) applied to one wire
    /// event through `cache`, for [`Tesla::ingest`] and the staging
    /// of [`Tesla::drive`] alike. `Err` is an unknown closing name:
    /// its violation, with the kind of hook it never reaches.
    fn resolve_names<'e>(
        &self,
        cache: &mut NameCache,
        ev: IngressEventRef<'e>,
    ) -> Result<HookEvent<'e>, (HookKind, Violation)> {
        Ok(match ev {
            IngressEventRef::FnEntry { name, args } => Event::FnEntry {
                f: cache.intern(self, name),
                args,
            },
            IngressEventRef::FnExit { name, args, ret } => match cache.resolve(self, name) {
                Some(f) => Event::FnExit { f, args, ret },
                None => {
                    let v = Violation::unknown_name("function", name);
                    return Err((HookKind::FnExit, v));
                }
            },
            IngressEventRef::FieldStore {
                strct,
                field,
                object,
                op,
                value,
            } => Event::FieldStore {
                struct_id: cache.intern(self, strct),
                field_id: cache.intern(self, field),
                object,
                op,
                value,
            },
            IngressEventRef::MsgEntry {
                selector,
                receiver,
                args,
            } => Event::MsgEntry {
                sel: cache.intern(self, selector),
                receiver,
                args,
            },
            IngressEventRef::MsgExit {
                selector,
                receiver,
                args,
                ret,
            } => match cache.resolve(self, selector) {
                Some(sel) => Event::MsgExit {
                    sel,
                    receiver,
                    args,
                    ret,
                },
                None => {
                    let v = Violation::unknown_name("selector", selector);
                    return Err((HookKind::MsgExit, v));
                }
            },
            IngressEventRef::AssertionSite { class, values } => Event::Site {
                class: crate::ClassId(class),
                values,
            },
        })
    }

    /// Drain `source` into this engine: the pump behind `tesla
    /// replay` and `tesla attach`.
    ///
    /// Events are staged into batches of up to
    /// [`crate::Config::batch_size`] (one-event batches at size 1)
    /// and dispatched through [`Tesla::dispatch_batch`]; an unknown
    /// closing name is staged as a rejection at its position.
    /// Stops at the first transport error or hook violation; in
    /// [`crate::FailMode::Log`] violations are recorded and the drain
    /// continues, exactly as a live instrumented run would behave.
    ///
    /// # Errors
    ///
    /// [`DriveError`] describing what stopped the drain; both
    /// variants carry the stats accumulated so far.
    pub fn drive(&self, source: &mut dyn EventSource) -> Result<IngressStats, DriveError> {
        let batch_size = self.config().batch_size;
        let mut cache = NameCache::new();
        let mut stats = IngressStats::default();
        let mut batch = BatchBuf::with_capacity(batch_size);
        loop {
            batch.clear();
            // Fill phase: `None` keeps filling, `Some(None)` is clean
            // end-of-stream, `Some(Some(e))` a transport error. In
            // either terminal case the events buffered *before* it
            // still dispatch — and an event-level violation among
            // them wins over the transport error, as it happened
            // first.
            let mut stop: Option<Option<IngressError>> = None;
            while batch.len() < batch_size {
                match source.next_event_ref() {
                    Ok(Some(ev)) => match self.resolve_names(&mut cache, ev) {
                        Ok(ev) => batch.push(ev),
                        Err((kind, violation)) => batch.push_reject(kind, violation),
                    },
                    Ok(None) => {
                        stop = Some(None);
                        break;
                    }
                    Err(e) => {
                        stop = Some(Some(e));
                        break;
                    }
                }
            }
            if let Err((idx, violation)) = self.dispatch_batch(&batch) {
                batch.count_into(&mut stats, idx + 1);
                return Err(DriveError::Event {
                    seq: stats.events,
                    violation,
                    stats,
                });
            }
            batch.count_into(&mut stats, batch.len());
            match stop {
                Some(None) => return Ok(stats),
                Some(Some(e)) => return Err(DriveError::Source(e, stats)),
                None => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The positioned diagnostic is boxed, so the per-event result of
    /// every source stays as small as it was with the diagnostic's
    /// fields inline (40 and 56 bytes on 64-bit targets).
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn per_event_result_stays_small() {
        use std::mem::size_of;
        assert!(size_of::<IngressError>() <= 40);
        assert!(size_of::<Result<Option<IngressEventRef<'_>>, IngressError>>() <= 56);
    }
}
