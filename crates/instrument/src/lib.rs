//! # tesla-instrument — weaving TESLA hooks into TIR
//!
//! The instrumenter "modifies compiled code to turn program events
//! into automaton transitions" (§4.2). Given a TIR module and the
//! program-wide merged `.tesla` manifest, [`instrument`] adds the two
//! kinds of code the paper describes:
//!
//! * **program hooks** — callee-side instrumentation in the target
//!   function's entry block and before every return instruction;
//!   caller-side instrumentation immediately before and after call
//!   sites (needed for libraries that cannot be recompiled); and
//!   field-assignment hooks after each relevant `Store`;
//! * **assertion-site rewriting** — every
//!   `__tesla_inline_assertion` placeholder
//!   ([`tesla_ir::Inst::TeslaPseudoAssert`]) is replaced with a real
//!   site event bound to its runtime automaton class.
//!
//! The *event translators* the paper generates as code are compiled
//! dispatch tables inside `tesla-runtime` (see its docs); the
//! [`RuntimeSink`] here bridges the interpreter's hook stream into
//! them.
//!
//! Because assertions anywhere in the program can name events
//! anywhere else, the manifest passed in must be the *merged* one;
//! instrumenting any unit therefore depends on every unit's
//! assertions — the one-to-many property that makes incremental
//! rebuilds expensive (§5.1, fig. 10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnostics;
pub mod lint;
pub mod model_check;
pub mod static_check;

pub use diagnostics::{
    all_codes, diagnose, diagnose_lints, diagnose_with_lints, has_denials, render, Diagnostic,
    OutputFormat, Severity,
};
pub use lint::{lint_compiled, lint_manifest, LintFinding};
pub use model_check::{model_check, AssertionReport, CheckVerdict, TraceStep};
pub use static_check::{occurring_functions, static_check, StaticFinding};

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use tesla_automata::{Automaton, InstrSide, Manifest, SymbolKind};
use tesla_ir::{Callee, FuncId, Inst, Module, Terminator};
use tesla_runtime::{ClassId, IngressEventRef, NameCache, Tesla, TraceWriter};
use tesla_spec::Value;

/// Instrumentation statistics (drives the build-time experiments).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InstrStats {
    /// Functions that received callee-side entry/exit hooks.
    pub hooked_functions: usize,
    /// Entry hooks inserted.
    pub entry_hooks: usize,
    /// Exit hooks inserted.
    pub exit_hooks: usize,
    /// Caller-side pre/post pairs inserted.
    pub call_site_hooks: usize,
    /// Field-assignment hooks inserted.
    pub field_hooks: usize,
    /// Assertion placeholders replaced with site events.
    pub sites_replaced: usize,
    /// Assertion placeholders removed because the model checker
    /// proved the assertion safe ([`fn@model_check`]).
    pub sites_elided: usize,
}

/// An instrumentation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum InstrumentError {
    /// An assertion in the module has no matching manifest entry —
    /// the manifest is stale (a unit was edited without re-running
    /// the analyser).
    StaleManifest {
        /// The unmatched assertion's name.
        assertion: String,
    },
    /// Manifest compilation failed.
    Compile(String),
}

impl std::fmt::Display for InstrumentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstrumentError::StaleManifest { assertion } => {
                write!(
                    f,
                    "assertion `{assertion}` not in the merged manifest; re-run analysis"
                )
            }
            InstrumentError::Compile(e) => write!(f, "automaton compilation failed: {e}"),
        }
    }
}

impl std::error::Error for InstrumentError {}

/// Instrument `module` against the merged program `manifest`.
///
/// Runtime class ids are assigned by manifest order: entry *i*
/// becomes class *i*, matching [`register_manifest`].
///
/// # Errors
///
/// Returns [`InstrumentError`] on stale manifests or un-compilable
/// assertions.
pub fn instrument(module: &mut Module, manifest: &Manifest) -> Result<InstrStats, InstrumentError> {
    instrument_with_elision(module, manifest, &HashSet::new())
}

/// [`instrument`], minus the assertions the model checker proved
/// safe.
///
/// `elided` holds runtime class ids (manifest indices) whose verdict
/// was [`CheckVerdict::ProvedSafe`] with `elide` set. For those
/// classes no hooks are woven on their behalf and their assertion-site
/// placeholders are *removed* rather than rewritten, so the running
/// program pays nothing for them. Class ids of the remaining automata
/// are untouched — [`register_manifest`] still registers the full
/// manifest, and `residual_safe` in [`mod@model_check`] has already
/// guaranteed that whatever event subset still reaches an elided
/// class (via hooks shared with live automata) can never take it out
/// of its safe states.
///
/// # Errors
///
/// Returns [`InstrumentError`] on stale manifests or un-compilable
/// assertions.
pub fn instrument_with_elision(
    module: &mut Module,
    manifest: &Manifest,
    elided: &HashSet<u32>,
) -> Result<InstrStats, InstrumentError> {
    let automata = manifest
        .compile_all()
        .map_err(|(name, e)| InstrumentError::Compile(format!("{name}: {e}")))?;
    instrument_precompiled(module, manifest, &weave_plan(&automata, elided), elided)
}

/// The program-wide weave plan derived from the *live* (non-elided)
/// automata: which functions need hooks on which side, and which
/// structure fields need store hooks. Everything the instrumenter
/// consults besides the module itself and the site class ids — which
/// makes it the exact dependency set for delta-aware rebuild
/// invalidation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeavePlan {
    /// Function name → instrumentation side, merged caller-wins
    /// exactly as [`Manifest::instrumentation_plan`] does.
    pub functions: BTreeMap<String, InstrSide>,
    /// Field events referenced by any live automaton:
    /// `(struct name or "", field name)`.
    pub fields: BTreeSet<(String, String)>,
}

/// Compute the [`WeavePlan`] of the live automata. `automata` is
/// positionally aligned with manifest entries (index = runtime class
/// id); classes in `elided` contribute nothing.
pub fn weave_plan<A: Borrow<Automaton>>(automata: &[A], elided: &HashSet<u32>) -> WeavePlan {
    let mut plan = WeavePlan::default();
    for (idx, a) in automata.iter().enumerate() {
        if elided.contains(&(idx as u32)) {
            continue;
        }
        let a = a.borrow();
        for (name, side) in a.instrumentation_targets() {
            plan.functions
                .entry(name)
                .and_modify(|s| {
                    if side == InstrSide::Caller {
                        *s = InstrSide::Caller;
                    }
                })
                .or_insert(side);
        }
        for s in &a.symbols {
            if let SymbolKind::FieldAssign {
                struct_name,
                field_name,
                ..
            } = &s.kind
            {
                plan.fields
                    .insert((struct_name.clone(), field_name.clone()));
            }
        }
    }
    // Message events are instrumented by runtime interposition
    // (§4.3), not by this IR pass.
    plan
}

/// [`instrument_with_elision`] against an **already built**
/// [`WeavePlan`] — the §7 optimised toolchain's entry point. The naive
/// workflow re-parses the merged `.tesla` description and recompiles
/// every automaton once *per unit*; here the automata are compiled
/// once per program build (through the shared
/// [`tesla_automata::CompileCache`]), the plan is derived from them
/// once, and every unit (and every back-end thread) weaves against
/// that one plan.
///
/// `plan` must be [`weave_plan`] of the automata of `manifest.entries`
/// (index = runtime class id) under the same `elided` set.
///
/// # Errors
///
/// Returns [`InstrumentError`] on stale manifests.
pub fn instrument_precompiled(
    module: &mut Module,
    manifest: &Manifest,
    plan: &WeavePlan,
    elided: &HashSet<u32>,
) -> Result<InstrStats, InstrumentError> {
    let mut stats = InstrStats::default();
    let WeavePlan {
        functions: plan,
        fields: field_targets,
    } = plan;

    // Assertion index → runtime class id, by manifest identity.
    let mut class_of: Vec<u32> = Vec::with_capacity(module.assertions.len());
    for a in &module.assertions {
        let idx = manifest
            .entries
            .iter()
            .position(|e| {
                e.assertion.name == a.assertion.name && e.assertion.loc == a.assertion.loc
            })
            .ok_or_else(|| InstrumentError::StaleManifest {
                assertion: a.assertion.name.clone(),
            })?;
        class_of.push(idx as u32);
    }

    let hooked = |name: &str, side: InstrSide| plan.get(name) == Some(&side);

    let fn_names: Vec<String> = module.functions.iter().map(|f| f.name.clone()).collect();
    let struct_names: Vec<String> = module.structs.iter().map(|s| s.name.clone()).collect();
    let struct_fields: Vec<Vec<String>> = module.structs.iter().map(|s| s.fields.clone()).collect();

    for (fi, f) in module.functions.iter_mut().enumerate() {
        let fid = FuncId(fi as u32);
        let callee_side = hooked(&f.name, InstrSide::Callee);
        if callee_side {
            stats.hooked_functions += 1;
            // Entry hook at the top of the entry block.
            f.blocks[0]
                .insts
                .insert(0, Inst::TeslaHookEntry { func: fid });
            stats.entry_hooks += 1;
            // Exit hooks before every return.
            for b in &mut f.blocks {
                if let Terminator::Ret(r) = &b.term {
                    b.insts.push(Inst::TeslaHookExit { func: fid, ret: *r });
                    stats.exit_hooks += 1;
                }
            }
        }
        // Walk instructions: caller-side call hooks, field hooks, and
        // placeholder replacement.
        for b in &mut f.blocks {
            let mut i = 0;
            while i < b.insts.len() {
                match &b.insts[i] {
                    Inst::Call { dst, callee, args } => {
                        let name = match callee {
                            Callee::Direct(g) => Some(fn_names[g.0 as usize].clone()),
                            Callee::External(n) => Some(n.clone()),
                            Callee::Indirect(_) => None, // §7: not yet expressible
                        };
                        if let Some(name) = name {
                            if hooked(&name, InstrSide::Caller) {
                                let pre = Inst::TeslaHookCallPre {
                                    name: name.clone(),
                                    args: args.clone(),
                                };
                                let post = Inst::TeslaHookCallPost {
                                    name,
                                    args: args.clone(),
                                    ret: *dst,
                                };
                                b.insts.insert(i, pre);
                                b.insts.insert(i + 2, post);
                                stats.call_site_hooks += 1;
                                i += 3;
                                continue;
                            }
                        }
                    }
                    Inst::Store {
                        obj,
                        field,
                        op,
                        value,
                    } => {
                        let sname = &struct_names[field.strct.0 as usize];
                        let fname = &struct_fields[field.strct.0 as usize][field.field as usize];
                        let hit = field_targets.contains(&(sname.clone(), fname.clone()))
                            || field_targets.contains(&(String::new(), fname.clone()));
                        if hit {
                            let hook = Inst::TeslaHookField {
                                obj: *obj,
                                field: *field,
                                op: *op,
                                value: *value,
                            };
                            b.insts.insert(i + 1, hook);
                            stats.field_hooks += 1;
                            i += 2;
                            continue;
                        }
                    }
                    Inst::TeslaPseudoAssert { assertion, args } => {
                        let class = class_of[*assertion as usize];
                        if elided.contains(&class) {
                            b.insts.remove(i);
                            stats.sites_elided += 1;
                            continue;
                        }
                        let args = args.clone();
                        b.insts[i] = Inst::TeslaSite { class, args };
                        stats.sites_replaced += 1;
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }
    Ok(stats)
}

/// Register every automaton in the manifest with a libtesla engine,
/// in manifest order — the class-id assignment [`instrument`] bakes
/// into `TeslaSite` instructions.
///
/// # Errors
///
/// Returns a description of the first compilation or registration
/// failure.
pub fn register_manifest(tesla: &Tesla, manifest: &Manifest) -> Result<Vec<ClassId>, String> {
    let automata = manifest
        .compile_all()
        .map_err(|(n, e)| format!("{n}: {e}"))?;
    // One batch: the engine clones and publishes a single dispatch
    // snapshot for the whole manifest instead of one per class.
    tesla.register_batch(automata).map_err(|e| e.to_string())
}

/// [`register_manifest`], resolving automata *and* the DFAs their
/// instances step on through a shared
/// [`tesla_automata::CompileCache`]: the build's memoised subset
/// constructions are reused instead of re-run per engine, so a
/// `run` + `replay` pair (or repeated runs under one build system)
/// pays for each DFA exactly once.
///
/// # Errors
///
/// Returns a description of the first compilation or registration
/// failure.
pub fn register_manifest_cached(
    tesla: &Tesla,
    manifest: &Manifest,
    cache: &tesla_automata::CompileCache,
) -> Result<Vec<ClassId>, String> {
    let pairs = cache
        .compile_manifest_with_dfas(manifest)
        .map_err(|(n, e)| format!("{n}: {e}"))?;
    tesla
        .register_batch_compiled(pairs)
        .map_err(|e| e.to_string())
}

/// Bridges interpreter hook events into a libtesla engine: the
/// deployed-program configuration (compiler weaves hooks → hooks call
/// libtesla).
///
/// This is the in-process [`tesla_runtime::EventSource`]-shaped
/// transport: each interpreter hook becomes an
/// [`IngressEventRef`] dispatched through [`Tesla::ingest`], the same
/// boundary `tesla replay` and `tesla attach` feed — so a live run
/// and a replayed recording of it take the identical path into the
/// engine.
pub struct RuntimeSink<'t> {
    tesla: &'t Tesla,
    cache: NameCache,
}

impl<'t> RuntimeSink<'t> {
    /// Wrap an engine.
    pub fn new(tesla: &'t Tesla) -> RuntimeSink<'t> {
        RuntimeSink {
            tesla,
            cache: NameCache::new(),
        }
    }

    fn ingest(&mut self, ev: IngressEventRef<'_>) -> Result<(), String> {
        self.tesla
            .ingest(&mut self.cache, ev)
            .map_err(|v| v.to_string())
    }
}

impl tesla_ir::HookSink for RuntimeSink<'_> {
    fn fn_entry(&mut self, name: &str, args: &[Value]) -> Result<(), String> {
        self.ingest(IngressEventRef::FnEntry { name, args })
    }

    fn fn_exit(&mut self, name: &str, args: &[Value], ret: Value) -> Result<(), String> {
        self.ingest(IngressEventRef::FnExit { name, args, ret })
    }

    fn field_store(
        &mut self,
        struct_name: &str,
        field_name: &str,
        object: Value,
        op: tesla_spec::FieldOp,
        value: Value,
    ) -> Result<(), String> {
        self.ingest(IngressEventRef::FieldStore {
            strct: struct_name,
            field: field_name,
            object,
            op,
            value,
        })
    }

    fn assertion_site(&mut self, class: u32, values: &[Value]) -> Result<(), String> {
        self.ingest(IngressEventRef::AssertionSite { class, values })
    }
}

/// A [`tesla_ir::HookSink`] tee: records every hook event to a JSONL
/// trace ([`TraceWriter`]) and then forwards it to an inner sink.
///
/// Events are written *before* dispatch, so when a forwarded event
/// fail-stops the run, the offending event is the trace's last line —
/// a recorded violating run replays to the same violation.
pub struct RecordingSink<S, W: std::io::Write> {
    inner: S,
    writer: TraceWriter<W>,
}

impl<S, W: std::io::Write> RecordingSink<S, W> {
    /// Tee `inner`'s event stream into a trace written to `out`.
    pub fn new(inner: S, out: W) -> RecordingSink<S, W> {
        RecordingSink {
            inner,
            writer: TraceWriter::new(out),
        }
    }

    fn record(&mut self, ev: &IngressEventRef<'_>) -> Result<(), String> {
        self.writer
            .record(ev)
            .map_err(|e| format!("trace write: {e}"))
    }

    /// Finish the trace (flushing the header even for an empty run)
    /// and return the inner sink plus the written-out trace sink.
    ///
    /// # Errors
    ///
    /// The write/flush error, stringified, if the trace could not be
    /// finalised.
    pub fn finish(self) -> Result<(S, W), String> {
        let out = self
            .writer
            .finish()
            .map_err(|e| format!("trace write: {e}"))?;
        Ok((self.inner, out))
    }
}

impl<S: tesla_ir::HookSink, W: std::io::Write> tesla_ir::HookSink for RecordingSink<S, W> {
    fn fn_entry(&mut self, name: &str, args: &[Value]) -> Result<(), String> {
        self.record(&IngressEventRef::FnEntry { name, args })?;
        self.inner.fn_entry(name, args)
    }

    fn fn_exit(&mut self, name: &str, args: &[Value], ret: Value) -> Result<(), String> {
        self.record(&IngressEventRef::FnExit { name, args, ret })?;
        self.inner.fn_exit(name, args, ret)
    }

    fn field_store(
        &mut self,
        struct_name: &str,
        field_name: &str,
        object: Value,
        op: tesla_spec::FieldOp,
        value: Value,
    ) -> Result<(), String> {
        self.record(&IngressEventRef::FieldStore {
            strct: struct_name,
            field: field_name,
            object,
            op,
            value,
        })?;
        self.inner
            .field_store(struct_name, field_name, object, op, value)
    }

    fn assertion_site(&mut self, class: u32, values: &[Value]) -> Result<(), String> {
        self.record(&IngressEventRef::AssertionSite { class, values })?;
        self.inner.assertion_site(class, values)
    }
}

/// What a compilation unit's woven form can depend on, extracted from
/// its *pristine* (un-instrumented) module. Built on the same
/// occurring-functions analysis as [`fn@static_check`]: the instrumenter
/// only touches a unit where the [`WeavePlan`] intersects this set, so
/// a plan change outside it provably cannot alter the unit's object —
/// the soundness core of the pipeline's delta-aware invalidation (see
/// DESIGN.md §10).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitTouchSet {
    /// Functions the unit defines (candidates for callee-side
    /// entry/exit hooks).
    pub defined: BTreeSet<String>,
    /// Function names appearing at the unit's direct or external call
    /// sites (candidates for caller-side call-site wrapping).
    pub called: BTreeSet<String>,
    /// `(struct name, field name)` pairs the unit stores to
    /// (candidates for field-assignment hooks).
    pub stored: BTreeSet<(String, String)>,
}

impl UnitTouchSet {
    /// Is a plan entry for `name` with `side` relevant to this unit —
    /// i.e. could the instrumenter weave a hook for it here?
    pub fn function_relevant(&self, name: &str, side: InstrSide) -> bool {
        match side {
            InstrSide::Callee => self.defined.contains(name),
            InstrSide::Caller => self.called.contains(name),
        }
    }

    /// Does a field target `(struct name or "", field name)` match any
    /// store in this unit? Mirrors the instrumenter's match rule: an
    /// empty struct name is a wildcard.
    pub fn field_relevant(&self, target: &(String, String)) -> bool {
        if target.0.is_empty() {
            self.stored.iter().any(|(_, f)| *f == target.1)
        } else {
            self.stored.contains(target)
        }
    }
}

/// Extract a unit's [`UnitTouchSet`] from its pristine module.
pub fn unit_touch_set(module: &Module) -> UnitTouchSet {
    let mut out = UnitTouchSet::default();
    for f in &module.functions {
        out.defined.insert(f.name.clone());
    }
    for f in &module.functions {
        for b in &f.blocks {
            for i in &b.insts {
                match i {
                    Inst::Call {
                        callee: Callee::External(n),
                        ..
                    } => {
                        out.called.insert(n.clone());
                    }
                    Inst::Call {
                        callee: Callee::Direct(g),
                        ..
                    } => {
                        out.called
                            .insert(module.functions[g.0 as usize].name.clone());
                    }
                    Inst::Store { field, .. } => {
                        let s = &module.structs[field.strct.0 as usize];
                        out.stored
                            .insert((s.name.clone(), s.fields[field.field as usize].clone()));
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// Check whether a module still needs instrumentation (contains
/// placeholders) — used by pipeline caching.
pub fn has_placeholders(m: &Module) -> bool {
    m.functions.iter().any(|f| {
        f.blocks.iter().any(|b| {
            b.insts
                .iter()
                .any(|i| matches!(i, Inst::TeslaPseudoAssert { .. }))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_ir::verify::{verify, Stage};
    use tesla_ir::{Interp, NullSink};
    use tesla_runtime::Config;

    /// The figure-4 scenario in mini-C: syscall → optional MAC check →
    /// sopoll_generic with the assertion.
    fn kernel_source(do_check: i64) -> String {
        format!(
            "struct socket {{ int so_state; }};\n\
             int mac_socket_check_poll(int cred, struct socket *so) {{ return 0; }}\n\
             int sopoll_generic(int cred, struct socket *so) {{\n\
                 TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(ANY(int), so) == 0);\n\
                 return 1;\n\
             }}\n\
             int amd64_syscall(int cred, struct socket *so) {{\n\
                 if ({do_check}) {{ mac_socket_check_poll(cred, so); }}\n\
                 return sopoll_generic(cred, so);\n\
             }}\n\
             int kernel_main(int cred) {{\n\
                 struct socket *so = malloc(sizeof(struct socket));\n\
                 return amd64_syscall(cred, so);\n\
             }}"
        )
    }

    fn build(src: &str) -> (Module, Manifest) {
        let out = tesla_cc::compile_unit(src, "kern.c").unwrap();
        let manifest = Manifest::merge(&[out.manifest]);
        (out.module, manifest)
    }

    #[test]
    fn instrumenting_adds_hooks_and_replaces_sites() {
        let (mut m, manifest) = build(&kernel_source(1));
        let stats = instrument(&mut m, &manifest).unwrap();
        assert!(stats.hooked_functions >= 2); // check fn + syscall bound
        assert!(stats.entry_hooks >= 2);
        assert!(stats.exit_hooks >= 2);
        assert_eq!(stats.sites_replaced, 1);
        assert!(!has_placeholders(&m));
        verify(&m, Stage::Linked).unwrap();
    }

    #[test]
    fn satisfied_run_passes_violating_run_failstops() {
        for (do_check, expect_ok) in [(1i64, true), (0, false)] {
            let (mut m, manifest) = build(&kernel_source(do_check));
            instrument(&mut m, &manifest).unwrap();
            let tesla = Tesla::new(Config::default());
            register_manifest(&tesla, &manifest).unwrap();
            let mut sink = RuntimeSink::new(&tesla);
            let mut interp = Interp::new(&m, 1_000_000);
            let r = interp.run_named("kernel_main", &[7], &mut sink);
            if expect_ok {
                assert_eq!(r.unwrap(), 1);
                assert!(tesla.violations().is_empty());
            } else {
                let err = r.unwrap_err();
                assert!(
                    matches!(err, tesla_ir::ExecError::Violation(ref v) if v.contains("kern.c")),
                    "unexpected {err:?}"
                );
            }
        }
    }

    #[test]
    fn uninstrumented_placeholders_trap_at_runtime() {
        let (m, _manifest) = build(&kernel_source(1));
        let mut interp = Interp::new(&m, 1_000_000);
        assert!(interp
            .run_named("kernel_main", &[7], &mut NullSink)
            .is_err());
    }

    #[test]
    fn caller_side_instrumentation_wraps_call_sites() {
        let src = "int lib_fn(int x);\n\
                   int main_fn(int x) {\n\
                       TESLA_WITHIN(main_fn, previously(caller(lib_fn(x) == 0)));\n\
                       return 0;\n\
                   }";
        let (mut m, manifest) = build(src);
        // A separate unit calls lib_fn: its call site gets wrapped
        // even though lib_fn itself cannot be recompiled.
        let src2 = "int lib_fn(int x);\n\
                    int driver(int x) { return lib_fn(x); }";
        let out2 = tesla_cc::compile_unit(src2, "driver.c").unwrap();
        let mut m2 = out2.module;
        let stats2 = instrument(&mut m2, &manifest).unwrap();
        assert_eq!(stats2.call_site_hooks, 1);
        let stats = instrument(&mut m, &manifest).unwrap();
        assert_eq!(stats.sites_replaced, 1);
        assert_eq!(stats.call_site_hooks, 0); // main_fn has no lib_fn call
    }

    #[test]
    fn field_hooks_follow_stores() {
        let src = "#define P_SUGID 0x100\n\
                   struct proc { int p_flag; int p_uid; };\n\
                   int sys_setuid(struct proc *p, int uid) {\n\
                       TESLA_SYSCALL(eventually(p.p_flag |= P_SUGID));\n\
                       p->p_uid = uid;\n\
                       p->p_flag |= P_SUGID;\n\
                       return 0;\n\
                   }";
        let (mut m, manifest) = build(src);
        let stats = instrument(&mut m, &manifest).unwrap();
        // Only the p_flag store is hooked; p_uid is not referenced.
        assert_eq!(stats.field_hooks, 1);
    }

    #[test]
    fn stale_manifest_is_rejected() {
        let (mut m, _good) = build(&kernel_source(1));
        let empty = Manifest::new();
        match instrument(&mut m, &empty) {
            Err(InstrumentError::StaleManifest { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn elision_removes_sites_and_skips_hooks() {
        let (mut full_m, manifest) = build(&kernel_source(1));
        let full = instrument(&mut full_m, &manifest).unwrap();
        assert!(full.entry_hooks > 0);

        let (mut elided_m, _) = build(&kernel_source(1));
        let elided: HashSet<u32> = [0u32].into_iter().collect();
        let stats = instrument_with_elision(&mut elided_m, &manifest, &elided).unwrap();
        assert_eq!(stats.sites_elided, 1);
        assert_eq!(stats.sites_replaced, 0);
        assert_eq!(stats.entry_hooks, 0);
        assert_eq!(stats.hooked_functions, 0);
        assert!(!has_placeholders(&elided_m));
        verify(&elided_m, Stage::Linked).unwrap();

        // The elided program runs with zero hook traffic against a
        // fully registered engine.
        let tesla = Tesla::new(Config::default());
        register_manifest(&tesla, &manifest).unwrap();
        let mut sink = RuntimeSink::new(&tesla);
        let mut interp = Interp::new(&elided_m, 1_000_000);
        assert_eq!(interp.run_named("kernel_main", &[7], &mut sink).unwrap(), 1);
        assert!(tesla.violations().is_empty());
    }

    #[test]
    fn recorded_run_replays_to_identical_verdicts() {
        use tesla_runtime::{EventSource, JsonlSource};

        for do_check in [1i64, 0] {
            let (mut m, manifest) = build(&kernel_source(do_check));
            instrument(&mut m, &manifest).unwrap();

            // Live run, teed into an in-memory JSONL trace. Log mode
            // so a violating run still drains completely.
            let live = Tesla::new(Config {
                fail_mode: tesla_runtime::FailMode::Log,
                ..Config::default()
            });
            register_manifest(&live, &manifest).unwrap();
            let mut sink = RecordingSink::new(RuntimeSink::new(&live), Vec::new());
            let mut interp = Interp::new(&m, 1_000_000);
            interp.run_named("kernel_main", &[7], &mut sink).unwrap();
            let (_, trace) = sink.finish().unwrap();

            // Replay the trace into a fresh engine: byte-identical
            // violation lists.
            let replayed = Tesla::new(Config {
                fail_mode: tesla_runtime::FailMode::Log,
                ..Config::default()
            });
            register_manifest(&replayed, &manifest).unwrap();
            let mut src = JsonlSource::new(&trace[..]);
            let stats = replayed.drive(&mut src).unwrap();
            assert!(stats.events > 0);
            let fmt = |t: &Tesla| {
                t.violations()
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
            };
            assert_eq!(fmt(&live), fmt(&replayed));
            assert_eq!(live.violations().len(), usize::from(do_check == 0));

            // The trace is schema-clean: every line after the header
            // parses back, and a second decode agrees with the first.
            let mut src2 = JsonlSource::new(&trace[..]);
            let mut n = 0;
            while src2.next_event().unwrap().is_some() {
                n += 1;
            }
            assert_eq!(n, stats.events);
        }
    }

    #[test]
    fn instrumentation_is_stable_across_reruns() {
        // Instrumenting two identical modules with the same manifest
        // yields identical output (determinism matters for the
        // build-caching experiments).
        let (mut a, manifest) = build(&kernel_source(1));
        let (mut b, _) = build(&kernel_source(1));
        instrument(&mut a, &manifest).unwrap();
        instrument(&mut b, &manifest).unwrap();
        assert_eq!(a, b);
    }
}
