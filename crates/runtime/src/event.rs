//! Violations and lifecycle events.
//!
//! libtesla "reports all of the event types referenced in §4.4.1:
//! instance initialisation, clones, updates, errors, and finalisation
//! (automaton acceptance)" (§4.4.2), plus preallocation overflows.
//!
//! A [`Violation`] is one pointer to a boxed [`ViolationRecord`], so
//! every hook's `Result<(), Violation>` is one machine word: a passing
//! hook, the common case, returns a null word instead of moving a
//! 136-byte record up through each layer of the dispatch path.

use std::fmt;
use std::ops::{Deref, DerefMut};
use tesla_automata::{StateSet, SymbolId};
use tesla_spec::{SourceLoc, Value};

/// Why an assertion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The assertion site was reached but no automaton instance could
    /// take the site transition — e.g. `previously(...)` with the
    /// required prior event missing, or present with the wrong
    /// variable values (§4.4.1 "Error").
    Site,
    /// An instance was finalised at its temporal bound's end with a
    /// pending obligation (`eventually(...)` unmet).
    Cleanup,
    /// `strict` semantics: an alphabet event matched an instance but
    /// had no transition from its current state.
    Strict,
    /// An ingress event referenced a name or assertion class this
    /// engine has never seen — a typo'd replay trace, an id minted by
    /// a different engine, or a producer speaking the wrong schema.
    /// Unlike the other kinds this is an *event-stream* error, not an
    /// assertion disposition: it is returned directly from the hook
    /// and never downgraded by [`crate::FailMode::Log`].
    UnknownName,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::Site => write!(f, "assertion-site violation"),
            ViolationKind::Cleanup => write!(f, "unmet obligation at bound end"),
            ViolationKind::Strict => write!(f, "unexpected event (strict)"),
            ViolationKind::UnknownName => write!(f, "unknown name in event"),
        }
    }
}

/// A temporal-assertion violation.
///
/// In the default fail-stop mode this is returned as the `Err` of the
/// instrumentation hook that observed it; in log mode it is recorded
/// and execution continues (§4.4.2).
///
/// The handle is one `Box` of its [`ViolationRecord`]; fields read
/// through `Deref` (`v.assertion`, `v.kind`, …), and a record becomes
/// a violation with `From`.
#[derive(Clone, PartialEq)]
pub struct Violation(Box<ViolationRecord>);

/// The fields of a [`Violation`].
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationRecord {
    /// Name of the violated assertion.
    pub assertion: String,
    /// What kind of mismatch.
    pub kind: ViolationKind,
    /// Where the assertion was written.
    pub loc: SourceLoc,
    /// The assertion's surface form.
    pub source: String,
    /// Values involved in the offending event, in variable order where
    /// known.
    pub values: Vec<Value>,
    /// Human-readable detail.
    pub detail: String,
}

impl Violation {
    /// Build the structured error for a malformed ingress event:
    /// `what` says which namespace missed ("function", "selector",
    /// "assertion class", …), `name` is the offending name (or `#id`
    /// for a raw [`crate::NameId`] that was never minted).
    pub fn unknown_name(what: &str, name: &str) -> Violation {
        ViolationRecord {
            assertion: "<ingress>".into(),
            kind: ViolationKind::UnknownName,
            loc: SourceLoc {
                file: "<ingress>".into(),
                line: 0,
            },
            source: String::new(),
            values: Vec::new(),
            detail: format!("{what} `{name}` was never interned by this engine"),
        }
        .into()
    }
}

impl From<ViolationRecord> for Violation {
    fn from(record: ViolationRecord) -> Violation {
        Violation(Box::new(record))
    }
}

impl Deref for Violation {
    type Target = ViolationRecord;

    fn deref(&self) -> &ViolationRecord {
        &self.0
    }
}

impl DerefMut for Violation {
    fn deref_mut(&mut self) -> &mut ViolationRecord {
        &mut self.0
    }
}

/// The record's fields under the name `Violation`, as a derive on a
/// six-field `Violation` struct prints them: logs and `{:?}` of
/// [`LifecycleEvent::Error`] must not show the box.
impl fmt::Debug for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Violation")
            .field("assertion", &self.assertion)
            .field("kind", &self.kind)
            .field("loc", &self.loc)
            .field("source", &self.source)
            .field("values", &self.values)
            .field("detail", &self.detail)
            .finish()
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TESLA: {} in `{}` at {}: {} [{}]",
            self.kind, self.assertion, self.loc, self.detail, self.source
        )
    }
}

impl std::error::Error for Violation {}

/// An automaton-instance lifecycle notification, delivered to every
/// registered [`crate::EventHandler`].
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleEvent {
    /// A fresh `(∗)` instance was created at its bound's «init».
    New {
        /// Class index.
        class: u32,
        /// Instance slot.
        instance: u32,
    },
    /// An instance was cloned to specialise a variable binding
    /// (`(∗)` → `(vp₁)`, §4.4.1 "Clone").
    Clone {
        /// Class index.
        class: u32,
        /// Source instance slot.
        from_instance: u32,
        /// New instance slot.
        to_instance: u32,
        /// NFA states after the transition.
        states: StateSet,
    },
    /// An instance consumed a symbol and moved (§4.4.1 "Update").
    Update {
        /// Class index.
        class: u32,
        /// Instance slot.
        instance: u32,
        /// Consumed symbol.
        sym: SymbolId,
        /// NFA states before.
        from_states: StateSet,
        /// NFA states after.
        to_states: StateSet,
    },
    /// A violation was detected (§4.4.1 "Error").
    Error {
        /// The violation.
        violation: Violation,
    },
    /// An instance was finalised at «cleanup»; `accepted` is automaton
    /// acceptance.
    Finalise {
        /// Class index.
        class: u32,
        /// Instance slot.
        instance: u32,
        /// Whether the instance finalised in a cleanup-safe state.
        accepted: bool,
    },
    /// The preallocated instance table was full; the clone/creation
    /// was dropped and must be reported "so that we can adjust
    /// preallocation size on the next run" (§4.4.1).
    Overflow {
        /// Class index.
        class: u32,
    },
    /// An instance was evicted to make room under
    /// [`crate::Config::max_instances`] (LRU policy). Obligations the
    /// evicted instance carried are no longer checked — the event is
    /// the audit trail for that soundness gap.
    Evicted {
        /// Class index.
        class: u32,
        /// Evicted instance slot.
        instance: u32,
    },
    /// Degraded mode dropped (shed) a clone/specialisation for this
    /// class because its quota tripped; retained instances are still
    /// tracked exactly.
    Shed {
        /// Class index.
        class: u32,
    },
}

impl LifecycleEvent {
    /// The class this event concerns.
    pub fn class(&self) -> Option<u32> {
        match self {
            LifecycleEvent::New { class, .. }
            | LifecycleEvent::Clone { class, .. }
            | LifecycleEvent::Update { class, .. }
            | LifecycleEvent::Finalise { class, .. }
            | LifecycleEvent::Overflow { class }
            | LifecycleEvent::Evicted { class, .. }
            | LifecycleEvent::Shed { class } => Some(*class),
            LifecycleEvent::Error { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Violation {
        ViolationRecord {
            assertion: "mac_poll".into(),
            kind: ViolationKind::Site,
            loc: SourceLoc {
                file: "uipc_socket.c".into(),
                line: 42,
            },
            source: "TESLA_SYSCALL_PREVIOUSLY(...)".into(),
            values: vec![Value(7)],
            detail: "no instance for so=7".into(),
        }
        .into()
    }

    #[test]
    fn violation_display_mentions_everything() {
        let s = sample().to_string();
        assert!(s.contains("mac_poll"));
        assert!(s.contains("uipc_socket.c:42"));
        assert!(s.contains("assertion-site violation"));
        assert!(s.contains("so=7"));
    }

    #[test]
    fn violation_debug_reads_like_the_record() {
        let v = sample();
        let record = format!("{:?}", *v);
        assert_eq!(
            format!("{v:?}"),
            record.replacen("ViolationRecord", "Violation", 1)
        );
        assert_eq!(
            format!("{v:#?}"),
            format!("{:#?}", *v).replacen("ViolationRecord", "Violation", 1)
        );
    }

    #[test]
    fn hooks_return_one_word() {
        use std::mem::size_of;
        assert_eq!(size_of::<Result<(), Violation>>(), size_of::<usize>());
        assert_eq!(size_of::<Option<Violation>>(), size_of::<usize>());
    }

    #[test]
    fn lifecycle_event_class_accessor() {
        assert_eq!(
            LifecycleEvent::New {
                class: 3,
                instance: 0
            }
            .class(),
            Some(3)
        );
        assert_eq!(LifecycleEvent::Overflow { class: 9 }.class(), Some(9));
    }
}
