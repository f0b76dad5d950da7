//! A typed Rust builder DSL for TESLA assertions.
//!
//! The simulated substrates (`tesla-sim-kernel`, `tesla-sim-ssl`,
//! `tesla-sim-gui`) register their assertions programmatically with
//! this builder instead of parsing surface text, exactly as the
//! paper's analyser would after macro expansion. The builder and the
//! parser produce identical [`Assertion`] values.
//!
//! ```
//! use tesla_spec::{call, AssertionBuilder};
//!
//! let a = AssertionBuilder::within("sopoll_generic")
//!     .previously(
//!         call("mac_socket_check_poll").any_ptr().arg_var("so").returns(0),
//!     )
//!     .build()
//!     .unwrap();
//! assert_eq!(a.variables, vec!["so".to_string()]);
//! ```

use crate::ast::{
    Assertion, BoolOp, Bounds, CallKind, Context, EventExpr, Expr, FieldOp, Modifier, SourceLoc,
    StaticEvent,
};
use crate::value::{ArgPattern, Value};

/// Builder for a function call/return event. Create with [`call`] or
/// [`returnfrom`].
#[derive(Debug, Clone)]
pub struct CallBuilder {
    name: String,
    args: Vec<RawPattern>,
    kind: RawKind,
}

/// Builder for an Objective-C-style message event. Create with
/// [`msg_send`].
#[derive(Debug, Clone)]
pub struct MsgBuilder {
    receiver: RawPattern,
    selector: String,
    args: Vec<RawPattern>,
    kind: RawKind,
}

/// Builder for a structure-field-assignment event. Create with
/// [`field_assign`].
#[derive(Debug, Clone)]
pub struct FieldBuilder {
    struct_name: String,
    field_name: String,
    object: RawPattern,
    op: FieldOp,
    value: RawPattern,
}

#[derive(Debug, Clone)]
enum RawKind {
    Entry,
    Exit,
    ExitWithReturn(RawPattern),
}

/// A pattern whose variable indices have not yet been assigned; the
/// final [`AssertionBuilder::build`] pass numbers variables by first
/// appearance, matching the parser.
#[derive(Debug, Clone)]
enum RawPattern {
    Any(String),
    Const(Value),
    Var(String),
    Flags(u64),
    Bitmask(u64),
    OutParam(String),
}

/// Begin a function event: `call("f")` (further shaped by the
/// builder's `.returns(v)` / `.entry()` / argument methods).
pub fn call(name: &str) -> CallBuilder {
    CallBuilder {
        name: name.to_string(),
        args: Vec::new(),
        kind: RawKind::Exit,
    }
}

/// A `returnfrom(f(...))` event (function exit, return unmatched).
pub fn returnfrom(name: &str) -> CallBuilder {
    CallBuilder {
        name: name.to_string(),
        args: Vec::new(),
        kind: RawKind::Exit,
    }
}

/// Begin a message event `[receiver selector ...]`; receiver defaults
/// to `ANY(id)`.
pub fn msg_send(selector: &str) -> MsgBuilder {
    MsgBuilder {
        receiver: RawPattern::Any("id".into()),
        selector: selector.to_string(),
        args: Vec::new(),
        kind: RawKind::Entry,
    }
}

/// Begin a field-assignment event `struct(obj).field = value`; object
/// and value default to wildcards and simple assignment.
pub fn field_assign(struct_name: &str, field_name: &str) -> FieldBuilder {
    FieldBuilder {
        struct_name: struct_name.to_string(),
        field_name: field_name.to_string(),
        object: RawPattern::Any("ptr".into()),
        op: FieldOp::Assign,
        value: RawPattern::Any("int".into()),
    }
}

/// `ATLEAST(n, ...)`: at least `n` events drawn from `exprs` in any
/// order (fig. 8).
pub fn atleast(n: usize, exprs: Vec<ExprBuilder>) -> ExprBuilder {
    ExprBuilder(RawExpr::AtLeast(
        n,
        exprs.into_iter().map(|e| e.0).collect(),
    ))
}

macro_rules! arg_methods {
    () => {
        /// Append an `ANY(ptr)` wildcard argument.
        #[must_use]
        pub fn any_ptr(mut self) -> Self {
            self.args.push(RawPattern::Any("ptr".into()));
            self
        }

        /// Append an `ANY(type)` wildcard argument.
        #[must_use]
        pub fn any(mut self, type_name: &str) -> Self {
            self.args.push(RawPattern::Any(type_name.into()));
            self
        }

        /// Append a constant argument.
        #[must_use]
        pub fn arg_const(mut self, v: impl Into<Value>) -> Self {
            self.args.push(RawPattern::Const(v.into()));
            self
        }

        /// Append a named-variable argument (bound from the assertion
        /// scope).
        #[must_use]
        pub fn arg_var(mut self, name: &str) -> Self {
            self.args.push(RawPattern::Var(name.into()));
            self
        }

        /// Append a `flags(bits)` (minimal bitfield) argument.
        #[must_use]
        pub fn arg_flags(mut self, bits: u64) -> Self {
            self.args.push(RawPattern::Flags(bits));
            self
        }

        /// Append a `bitmask(bits)` (maximal bitfield) argument.
        #[must_use]
        pub fn arg_bitmask(mut self, bits: u64) -> Self {
            self.args.push(RawPattern::Bitmask(bits));
            self
        }

        /// Append an out-parameter (`&name`) argument.
        #[must_use]
        pub fn arg_out(mut self, name: &str) -> Self {
            self.args.push(RawPattern::OutParam(name.into()));
            self
        }

        /// Match the *entry* of the function/method instead of its
        /// return.
        #[must_use]
        pub fn entry(mut self) -> Self {
            self.kind = RawKind::Entry;
            self
        }

        /// Match the return with `== v` on the return value.
        #[must_use]
        pub fn returns(mut self, v: impl Into<Value>) -> Self {
            self.kind = RawKind::ExitWithReturn(RawPattern::Const(v.into()));
            self
        }

        /// Match the return, binding the return value to a variable.
        #[must_use]
        pub fn returns_var(mut self, name: &str) -> Self {
            self.kind = RawKind::ExitWithReturn(RawPattern::Var(name.into()));
            self
        }
    };
}

impl CallBuilder {
    arg_methods!();
}

impl MsgBuilder {
    arg_methods!();

    /// Set the receiver pattern to a named variable.
    #[must_use]
    pub fn receiver_var(mut self, name: &str) -> Self {
        self.receiver = RawPattern::Var(name.into());
        self
    }
}

impl FieldBuilder {
    /// The object whose field is assigned, as a named variable.
    #[must_use]
    pub fn object_var(mut self, name: &str) -> Self {
        self.object = RawPattern::Var(name.into());
        self
    }

    /// The assignment operator (defaults to `=`).
    #[must_use]
    pub fn op(mut self, op: FieldOp) -> Self {
        self.op = op;
        self
    }

    /// Match a constant assigned value.
    #[must_use]
    pub fn value_const(mut self, v: impl Into<Value>) -> Self {
        self.value = RawPattern::Const(v.into());
        self
    }

    /// Bind the assigned value to a variable.
    #[must_use]
    pub fn value_var(mut self, name: &str) -> Self {
        self.value = RawPattern::Var(name.into());
        self
    }

    /// Match the assigned value with a `flags(bits)` minimal
    /// bitfield (e.g. `p.p_flag |= P_SUGID` where other bits may be
    /// set too).
    #[must_use]
    pub fn value_flags(mut self, bits: u64) -> Self {
        self.value = RawPattern::Flags(bits);
        self
    }
}

/// An expression under construction. Obtained from the event builders
/// via `Into<ExprBuilder>` and combined with [`ExprBuilder::or`],
/// [`ExprBuilder::xor`], [`ExprBuilder::then`] and the modifier
/// methods.
#[derive(Debug, Clone)]
pub struct ExprBuilder(RawExpr);

#[derive(Debug, Clone)]
enum RawExpr {
    Call(CallBuilder),
    Msg(MsgBuilder),
    Field(FieldBuilder),
    Site,
    InCallStack(String),
    Seq(Vec<RawExpr>),
    Bool(BoolOp, Vec<RawExpr>),
    AtLeast(usize, Vec<RawExpr>),
    Modified(Modifier, Box<RawExpr>),
}

impl From<CallBuilder> for ExprBuilder {
    fn from(c: CallBuilder) -> ExprBuilder {
        ExprBuilder(RawExpr::Call(c))
    }
}

impl From<MsgBuilder> for ExprBuilder {
    fn from(m: MsgBuilder) -> ExprBuilder {
        ExprBuilder(RawExpr::Msg(m))
    }
}

impl From<FieldBuilder> for ExprBuilder {
    fn from(f: FieldBuilder) -> ExprBuilder {
        ExprBuilder(RawExpr::Field(f))
    }
}

impl ExprBuilder {
    /// The explicit assertion site.
    pub fn site() -> ExprBuilder {
        ExprBuilder(RawExpr::Site)
    }

    /// `incallstack(fn)` site-time predicate.
    pub fn in_callstack(name: &str) -> ExprBuilder {
        ExprBuilder(RawExpr::InCallStack(name.into()))
    }

    /// Inclusive OR with another expression.
    #[must_use]
    pub fn or(self, rhs: impl Into<ExprBuilder>) -> ExprBuilder {
        match self.0 {
            RawExpr::Bool(BoolOp::Or, mut es) => {
                es.push(rhs.into().0);
                ExprBuilder(RawExpr::Bool(BoolOp::Or, es))
            }
            other => ExprBuilder(RawExpr::Bool(BoolOp::Or, vec![other, rhs.into().0])),
        }
    }

    /// Exclusive OR with another expression.
    #[must_use]
    pub fn xor(self, rhs: impl Into<ExprBuilder>) -> ExprBuilder {
        match self.0 {
            RawExpr::Bool(BoolOp::Xor, mut es) => {
                es.push(rhs.into().0);
                ExprBuilder(RawExpr::Bool(BoolOp::Xor, es))
            }
            other => ExprBuilder(RawExpr::Bool(BoolOp::Xor, vec![other, rhs.into().0])),
        }
    }

    /// Sequence: this expression then `rhs`.
    #[must_use]
    pub fn then(self, rhs: impl Into<ExprBuilder>) -> ExprBuilder {
        match self.0 {
            RawExpr::Seq(mut es) => {
                es.push(rhs.into().0);
                ExprBuilder(RawExpr::Seq(es))
            }
            other => ExprBuilder(RawExpr::Seq(vec![other, rhs.into().0])),
        }
    }

    /// Wrap in `optional(...)`.
    #[must_use]
    pub fn optional(self) -> ExprBuilder {
        ExprBuilder(RawExpr::Modified(Modifier::Optional, Box::new(self.0)))
    }

    /// Wrap in `strict(...)`.
    #[must_use]
    pub fn strict(self) -> ExprBuilder {
        ExprBuilder(RawExpr::Modified(Modifier::Strict, Box::new(self.0)))
    }

    /// Wrap in `caller(...)` (caller-side instrumentation).
    #[must_use]
    pub fn caller(self) -> ExprBuilder {
        ExprBuilder(RawExpr::Modified(Modifier::Caller, Box::new(self.0)))
    }

    /// Wrap in `callee(...)` (callee-side instrumentation).
    #[must_use]
    pub fn callee(self) -> ExprBuilder {
        ExprBuilder(RawExpr::Modified(Modifier::Callee, Box::new(self.0)))
    }

    /// Wrap in `conditional(...)`.
    #[must_use]
    pub fn conditional(self) -> ExprBuilder {
        ExprBuilder(RawExpr::Modified(Modifier::Conditional, Box::new(self.0)))
    }
}

/// Variable-numbering pass shared by all event builders.
struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    fn index(&mut self, name: &str) -> usize {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            i
        } else {
            self.names.push(name.to_string());
            self.names.len() - 1
        }
    }

    fn resolve(&mut self, p: &RawPattern) -> ArgPattern {
        match p {
            RawPattern::Any(t) => ArgPattern::Any {
                type_name: t.clone(),
            },
            RawPattern::Const(v) => ArgPattern::Const(*v),
            RawPattern::Var(n) => ArgPattern::Var {
                index: self.index(n),
                name: n.clone(),
            },
            RawPattern::Flags(b) => ArgPattern::Flags(*b),
            RawPattern::Bitmask(b) => ArgPattern::Bitmask(*b),
            RawPattern::OutParam(n) => ArgPattern::OutParam {
                index: self.index(n),
                name: n.clone(),
            },
        }
    }

    fn resolve_kind(&mut self, k: &RawKind) -> CallKind {
        match k {
            RawKind::Entry => CallKind::Entry,
            RawKind::Exit => CallKind::Exit,
            RawKind::ExitWithReturn(p) => CallKind::ExitWithReturn(self.resolve(p)),
        }
    }

    fn lower(&mut self, e: &RawExpr) -> Expr {
        match e {
            RawExpr::Call(c) => Expr::Event(EventExpr::FunctionEvent {
                name: c.name.clone(),
                args: c.args.iter().map(|a| self.resolve(a)).collect(),
                kind: self.resolve_kind(&c.kind),
            }),
            RawExpr::Msg(m) => {
                // Invariant (matches the surface grammar): a message
                // event carries exactly one argument pattern per
                // selector colon. Pad with wildcards, drop extras.
                let colons = m.selector.matches(':').count();
                let mut args: Vec<ArgPattern> = m
                    .args
                    .iter()
                    .take(colons)
                    .map(|a| self.resolve(a))
                    .collect();
                while args.len() < colons {
                    args.push(ArgPattern::Any {
                        type_name: "id".into(),
                    });
                }
                Expr::Event(EventExpr::MessageEvent {
                    receiver: self.resolve(&m.receiver),
                    selector: m.selector.clone(),
                    args,
                    kind: self.resolve_kind(&m.kind),
                })
            }
            RawExpr::Field(f) => Expr::Event(EventExpr::FieldAssignEvent {
                struct_name: f.struct_name.clone(),
                field_name: f.field_name.clone(),
                object: self.resolve(&f.object),
                op: f.op,
                value: self.resolve(&f.value),
            }),
            RawExpr::Site => Expr::AssertionSite,
            RawExpr::InCallStack(n) => Expr::InCallStack(n.clone()),
            RawExpr::Seq(es) => Expr::Sequence(es.iter().map(|e| self.lower(e)).collect()),
            RawExpr::Bool(op, es) => Expr::Bool {
                op: *op,
                exprs: es.iter().map(|e| self.lower(e)).collect(),
            },
            RawExpr::AtLeast(n, es) => Expr::AtLeast {
                n: *n,
                exprs: es.iter().map(|e| self.lower(e)).collect(),
            },
            RawExpr::Modified(m, inner) => Expr::Modified {
                modifier: *m,
                expr: Box::new(self.lower(inner)),
            },
        }
    }
}

/// Top-level assertion builder.
#[derive(Debug, Clone)]
pub struct AssertionBuilder {
    name: String,
    context: Context,
    bounds: Bounds,
    expr: Option<RawExpr>,
    loc: SourceLoc,
}

impl AssertionBuilder {
    /// `TESLA_WITHIN(function, ...)`: per-thread, bounded by one
    /// execution of `function`.
    pub fn within(function: &str) -> AssertionBuilder {
        AssertionBuilder {
            name: String::new(),
            context: Context::PerThread,
            bounds: Bounds::within(function),
            expr: None,
            loc: SourceLoc::default(),
        }
    }

    /// `TESLA_SYSCALL(...)`: per-thread, bounded by the current system
    /// call (the `amd64_syscall` bound of fig. 9).
    pub fn syscall() -> AssertionBuilder {
        AssertionBuilder::within(crate::parser::SYSCALL_BOUND_FN)
    }

    /// Explicit bounds from arbitrary static events.
    pub fn bounded(start: StaticEvent, end: StaticEvent) -> AssertionBuilder {
        AssertionBuilder {
            name: String::new(),
            context: Context::PerThread,
            bounds: Bounds { start, end },
            expr: None,
            loc: SourceLoc::default(),
        }
    }

    /// Use the global (cross-thread, explicitly synchronised) context.
    #[must_use]
    pub fn global(mut self) -> AssertionBuilder {
        self.context = Context::Global;
        self
    }

    /// Name the assertion (for diagnostics and coverage reports).
    #[must_use]
    pub fn named(mut self, name: &str) -> AssertionBuilder {
        self.name = name.to_string();
        self
    }

    /// Record the source location of the assertion site.
    #[must_use]
    pub fn at(mut self, file: &str, line: u32) -> AssertionBuilder {
        self.loc = SourceLoc {
            file: file.to_string(),
            line,
        };
        self
    }

    /// The assertion body is `previously(expr)`.
    #[must_use]
    pub fn previously(mut self, expr: impl Into<ExprBuilder>) -> AssertionBuilder {
        self.expr = Some(RawExpr::Seq(vec![expr.into().0, RawExpr::Site]));
        self
    }

    /// The assertion body is `eventually(expr)`.
    #[must_use]
    pub fn eventually(mut self, expr: impl Into<ExprBuilder>) -> AssertionBuilder {
        self.expr = Some(RawExpr::Seq(vec![RawExpr::Site, expr.into().0]));
        self
    }

    /// An explicit body (must reference the site itself, or have one
    /// appended by `Assertion::expr_with_site`).
    #[must_use]
    pub fn body(mut self, expr: impl Into<ExprBuilder>) -> AssertionBuilder {
        self.expr = Some(expr.into().0);
        self
    }

    /// Finalise: number variables and validate.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SpecError`] if the assertion is structurally
    /// invalid (no events, several sites on one path, empty bounds) or
    /// nested deeper than the spec parser reads back.
    pub fn build(self) -> Result<Assertion, crate::SpecError> {
        let raw = self.expr.ok_or(crate::SpecError::EmptyExpression)?;
        let mut vt = VarTable { names: Vec::new() };
        let expr = vt.lower(&raw);
        let name = if self.name.is_empty() {
            format!("assertion@{}", self.loc)
        } else {
            self.name
        };
        let a = Assertion {
            name,
            context: self.context,
            bounds: self.bounds,
            expr,
            variables: vt.names,
            loc: self.loc,
        };
        a.validate()?;
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_assertion;

    #[test]
    fn builder_matches_parser_for_figure_1() {
        let parsed = parse_assertion(
            "TESLA_WITHIN(enclosing_fn, previously(\
                 security_check(ANY(ptr), o, op) == 0))",
        )
        .unwrap();
        let built = AssertionBuilder::within("enclosing_fn")
            .previously(
                call("security_check")
                    .any_ptr()
                    .arg_var("o")
                    .arg_var("op")
                    .returns(0),
            )
            .build()
            .unwrap();
        assert_eq!(parsed.expr, built.expr);
        assert_eq!(parsed.variables, built.variables);
        assert_eq!(parsed.bounds, built.bounds);
        assert_eq!(parsed.context, built.context);
    }

    #[test]
    fn builder_matches_parser_for_disjunction() {
        let parsed = parse_assertion(
            "TESLA_SYSCALL_PREVIOUSLY(
               mac_kld_check_load(ANY(ptr), vp) == 0
               || mac_vnode_check_open(ANY(ptr), vp, ANY(int)) == 0)",
        )
        .unwrap();
        let built = AssertionBuilder::syscall()
            .previously(
                ExprBuilder::from(
                    call("mac_kld_check_load")
                        .any_ptr()
                        .arg_var("vp")
                        .returns(0),
                )
                .or(call("mac_vnode_check_open")
                    .any_ptr()
                    .arg_var("vp")
                    .any("int")
                    .returns(0)),
            )
            .build()
            .unwrap();
        assert_eq!(parsed.expr, built.expr);
        assert_eq!(parsed.variables, built.variables);
    }

    #[test]
    fn builder_supports_messages_and_atleast() {
        let a = AssertionBuilder::within("startDrawing")
            .previously(atleast(
                0,
                vec![
                    msg_send("push").into(),
                    msg_send("pop").into(),
                    msg_send("drawWithFrame:inView:")
                        .any("NSRect")
                        .any("id")
                        .into(),
                ],
            ))
            .build()
            .unwrap();
        assert_eq!(a.expr.count_events(), 3);
    }

    #[test]
    fn builder_supports_fields_and_eventually() {
        let a = AssertionBuilder::within("sys_setuid")
            .named("sugid")
            .eventually(
                field_assign("proc", "p_flag")
                    .object_var("p")
                    .op(FieldOp::OrAssign)
                    .value_const(0x100u64),
            )
            .build()
            .unwrap();
        assert_eq!(a.name, "sugid");
        assert_eq!(a.variables, vec!["p".to_string()]);
        // eventually: site first.
        match &a.expr {
            Expr::Sequence(es) => assert_eq!(es[0], Expr::AssertionSite),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_empty() {
        assert!(AssertionBuilder::within("f").build().is_err());
    }

    #[test]
    fn or_chains_flatten() {
        let e = ExprBuilder::from(call("a").returns(0))
            .or(call("b").returns(0))
            .or(call("c").returns(0));
        let a = AssertionBuilder::within("f").previously(e).build().unwrap();
        match &a.expr {
            Expr::Sequence(es) => match &es[0] {
                Expr::Bool { exprs, .. } => assert_eq!(exprs.len(), 3),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_params_and_return_binding() {
        let a = AssertionBuilder::within("f")
            .previously(call("getresult").arg_out("err").returns_var("rv"))
            .build()
            .unwrap();
        assert_eq!(a.variables, vec!["err".to_string(), "rv".to_string()]);
    }

    #[test]
    fn modifiers_compose() {
        let a = AssertionBuilder::within("f")
            .previously(ExprBuilder::from(call("g").returns(0)).strict().optional())
            .build()
            .unwrap();
        assert!(a.expr.has_modifier(Modifier::Strict));
        assert!(a.expr.has_modifier(Modifier::Optional));
    }
}
