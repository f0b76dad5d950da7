//! # tesla-spec — the TESLA assertion language
//!
//! This crate defines the *description* half of TESLA (EuroSys 2014,
//! §3): the abstract syntax of temporal assertions, the runtime value
//! and argument-pattern model, a parser for the high-level surface
//! syntax of figure 5 (`TESLA_WITHIN(f, previously(check(ANY(ptr), o,
//! op) == 0))`), and a typed Rust builder DSL for constructing the
//! same assertions programmatically.
//!
//! A TESLA assertion has three parts (§3.1):
//!
//! * a **context** (§3.2) — thread-local (implicit serialisation) or
//!   global (explicit synchronisation);
//! * **temporal bounds** (§3.3) — static events (`call(f)` /
//!   `returnfrom(f)`) between which automaton instances may live,
//!   giving libtesla a deterministic memory footprint;
//! * an **expression** (§3.4) — sequences, boolean operators and
//!   modifiers over concrete program events (function call/return,
//!   structure field assignment, Objective-C-style message sends, and
//!   the assertion site itself).
//!
//! Downstream, `tesla-automata` lowers an [`Assertion`] into a
//! finite-state automaton and `tesla-runtime` (libtesla) executes it
//! against event streams.
//!
//! ## Example
//!
//! ```
//! use tesla_spec::parse_assertion;
//!
//! let a = parse_assertion(
//!     "TESLA_WITHIN(enclosing_fn, previously(\
//!          security_check(ANY(ptr), o, op) == 0))",
//! )
//! .unwrap();
//! assert_eq!(a.bounds.start.function(), "enclosing_fn");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod parser;
pub mod pretty;
pub mod value;

pub use ast::{
    Assertion, BoolOp, Bounds, CallKind, Context, EventExpr, Expr, FieldOp, Modifier, SourceLoc,
    StaticEvent,
};
pub use builder::{
    atleast, call, field_assign, msg_send, returnfrom, AssertionBuilder, CallBuilder, ExprBuilder,
    FieldBuilder, MsgBuilder,
};
pub use parser::{parse_assertion, parse_assertion_with_consts, parse_expr, ParseError};
pub use value::{ArgPattern, Value};

/// Errors produced when validating an assertion's structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The expression contains no concrete events at all.
    EmptyExpression,
    /// The expression references more than one assertion site; every
    /// TESLA assertion is anchored at exactly one site (§3.4.1).
    MultipleAssertionSites(usize),
    /// A named variable was used with conflicting argument positions in
    /// a way the automaton compiler cannot reconcile.
    InconsistentVariable(String),
    /// Bounds refer to an empty function name.
    EmptyBoundFunction,
    /// The expression nests this many levels deep, deeper than the
    /// spec parser reads back ([`parser::MAX_DEPTH`]); its printed form
    /// could be written to a `.tesla` manifest or an IR file but never
    /// read from one.
    TooDeep(usize),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::EmptyExpression => write!(f, "assertion expression contains no events"),
            SpecError::MultipleAssertionSites(n) => {
                write!(
                    f,
                    "assertion references {n} assertion sites; exactly one is allowed"
                )
            }
            SpecError::InconsistentVariable(v) => {
                write!(f, "variable `{v}` is used inconsistently")
            }
            SpecError::EmptyBoundFunction => write!(f, "temporal bound names an empty function"),
            SpecError::TooDeep(depth) => write!(
                f,
                "expression nested {depth} levels deep; at most {} can be read back",
                parser::MAX_DEPTH
            ),
        }
    }
}

impl std::error::Error for SpecError {}
