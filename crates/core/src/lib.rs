//! # tesla — Temporally Enhanced System Logic Assertions
//!
//! A from-scratch Rust reproduction of **TESLA** (Anderson, Watson,
//! Chisnall, Gudka, Marinos, Davis — EuroSys 2014): a description,
//! analysis and validation tool that lets systems programmers
//! describe expected *temporal* behaviour — events in the past or
//! future relative to an assertion site — in low-level code, checks
//! it with compiler-woven instrumentation, and illuminates run-time
//! behaviour through automata introspection.
//!
//! This crate is the umbrella: it re-exports every component and adds
//! the end-to-end [`pipeline`] (compile → analyse → merge `.tesla`
//! manifests → instrument → optimise → run) and the text format of
//! those manifests ([`manifest`]), together with the
//! [`corpus`] generators used by the build-time experiments (fig. 10)
//! and the declarative [`scenario`] engine behind
//! `tesla scenario run` / `tesla scenario fuzz`.
//!
//! ## The pieces
//!
//! | Module | Paper component |
//! |--------|-----------------|
//! | [`spec`] | assertion language (fig. 5 grammar, parser, builder) |
//! | [`automata`] | assertion → NFA compiler, `.tesla` manifests, DOT |
//! | [`runtime`] | libtesla: instance lifecycle, contexts, handlers |
//! | [`ir`] | TIR — the LLVM-IR substitute, interpreter, optimiser |
//! | [`cc`] | mini-C front-end + TESLA analyser (Clang substitute) |
//! | [`instrument`] | the IR instrumenter + runtime bridge |
//! | [`sim_kernel`] | FreeBSD-like kernel + MAC framework case study |
//! | [`sim_ssl`] | OpenSSL/libfetch case study |
//! | [`sim_gui`] | GNUstep-like runtime + AppKit case study |
//! | [`workload`] | lmbench/OLTP/build/Xnee-like workload generators |
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use tesla::prelude::*;
//!
//! // 1. Describe: within foo(), check() must previously succeed.
//! let assertion = AssertionBuilder::within("foo")
//!     .named("example")
//!     .previously(call("check").arg_var("x").returns(0))
//!     .build()
//!     .unwrap();
//!
//! // 2. Compile to an automaton and register with libtesla.
//! let engine = Arc::new(Tesla::with_defaults());
//! let class = engine.register(tesla::automata::compile(&assertion).unwrap()).unwrap();
//!
//! // 3. Drive events (normally emitted by woven instrumentation).
//! let foo = engine.intern_fn("foo");
//! let check = engine.intern_fn("check");
//! engine.fn_entry(foo, &[]).unwrap();
//! engine.fn_entry(check, &[Value(7)]).unwrap();
//! engine.fn_exit(check, &[Value(7)], Value(0)).unwrap();
//! engine.assertion_site(class, &[Value(7)]).unwrap(); // satisfied
//! assert!(engine.assertion_site(class, &[Value(8)]).is_err()); // violation
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod manifest;
pub mod pipeline;
pub mod scenario;

pub use tesla_automata as automata;
pub use tesla_cc as cc;
pub use tesla_instrument as instrument;
pub use tesla_ir as ir;
pub use tesla_runtime as runtime;
pub use tesla_sim_gui as sim_gui;
pub use tesla_sim_kernel as sim_kernel;
pub use tesla_sim_ssl as sim_ssl;
pub use tesla_spec as spec;
pub use tesla_workload as workload;

/// The things almost every user wants in scope.
pub mod prelude {
    pub use tesla_automata::{compile, Automaton, Manifest};
    #[cfg(unix)]
    pub use tesla_runtime::SocketSource;
    pub use tesla_runtime::{
        AnomalyReport, Baseline, BatchIngress, BufferedSource, ClassId, Config, ConfigError,
        DriveError, EventProducer, EventSource, EvictionPolicy, FailMode, FaultKind, FaultLedger,
        FaultPlan, FaultSpec, FlightRecorder, Governor, GovernorConfig, IngressError, IngressEvent,
        IngressEventRef, IngressStats, InitMode, InputError, JsonlSource, MetricsRegistry,
        MetricsSnapshot, NameCache, NameId, RecordingHandler, Tesla, TraceWriter, Violation,
        ViolationKind,
    };
    // The registry's old handler name, for the benchmark package (see
    // `tesla_runtime::CountingHandler`).
    #[doc(hidden)]
    pub use tesla_runtime::CountingHandler;
    pub use tesla_spec::{
        atleast, call, field_assign, msg_send, parse_assertion, Assertion, AssertionBuilder,
        ExprBuilder, FieldOp, Value,
    };
}
