//! Abstract syntax for TESLA assertions (figure 5 of the paper).
//!
//! The surface macros (`TESLA_WITHIN`, `previously`, `eventually`,
//! `TSEQUENCE`, …) are conveniences over this tree; the paper notes
//! they expand to reserved-namespace symbols such as
//! `__tesla_sequence`. This crate models the expanded form directly.

use crate::value::{ArgPattern, Value};

/// Where an assertion's automaton state lives and how events are
/// serialised (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Context {
    /// Thread-local store; event serialisation is implicit because a
    /// thread is already a serial context. No synchronisation needed.
    PerThread,
    /// Global store shared by all threads; libtesla imposes an explicit
    /// (lock-based) serialisation of events, which costs more (fig. 12).
    Global,
}

impl std::fmt::Display for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Context::PerThread => write!(f, "per-thread"),
            Context::Global => write!(f, "global"),
        }
    }
}

/// A *static* event usable as a temporal bound (§3.3): only function
/// entry and exit, with no argument matching, so bounds can be
/// recognised without dynamic state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StaticEvent {
    /// `call(fn)` — entry into `fn`.
    Call(String),
    /// `returnfrom(fn)` — exit from `fn`.
    ReturnFrom(String),
}

impl StaticEvent {
    /// The function the bound refers to.
    pub fn function(&self) -> &str {
        match self {
            StaticEvent::Call(f) | StaticEvent::ReturnFrom(f) => f,
        }
    }
}

/// Temporal bounds: automaton instances are created («init») at
/// `start` and finalised («cleanup») at `end` (§3.3, §4.4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bounds {
    /// The «init» static event.
    pub start: StaticEvent,
    /// The «cleanup» static event.
    pub end: StaticEvent,
}

impl Bounds {
    /// `TESLA_WITHIN(fn, ...)`: bounds spanning one execution of `fn`.
    pub fn within(function: &str) -> Bounds {
        Bounds {
            start: StaticEvent::Call(function.to_string()),
            end: StaticEvent::ReturnFrom(function.to_string()),
        }
    }
}

/// Is a function event its entry, its exit, or an exit with a matched
/// return value (`f(args) == val`)?
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// `call(f(args))` — function entry.
    Entry,
    /// `returnfrom(f(args))` — function exit, return value unmatched.
    Exit,
    /// `f(args) == v` — function exit with the return value matched
    /// against a pattern (usually a constant such as `0` or `1`).
    ExitWithReturn(ArgPattern),
}

/// Structure-field assignment operators (§3.4.1): simple assignment
/// and the compound forms (`s.f += 1`, `s.f++`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldOp {
    /// `s.f = v`
    Assign,
    /// `s.f += v`
    AddAssign,
    /// `s.f -= v`
    SubAssign,
    /// `s.f |= v`
    OrAssign,
    /// `s.f &= v`
    AndAssign,
}

impl FieldOp {
    /// Every operator, indexed by its wire code (`op as usize`): the
    /// ring's header nibble and the IR codec's tag.
    pub const ALL: [FieldOp; 5] = [
        FieldOp::Assign,
        FieldOp::AddAssign,
        FieldOp::SubAssign,
        FieldOp::OrAssign,
        FieldOp::AndAssign,
    ];

    /// The operator as written (`=`, `+=`, …), in specs, traces and
    /// scenarios alike.
    #[inline]
    pub fn label(self) -> &'static str {
        match self {
            FieldOp::Assign => "=",
            FieldOp::AddAssign => "+=",
            FieldOp::SubAssign => "-=",
            FieldOp::OrAssign => "|=",
            FieldOp::AndAssign => "&=",
        }
    }

    /// The operator written `s`, if any.
    #[inline]
    pub fn from_label(s: &str) -> Option<FieldOp> {
        FieldOp::ALL.into_iter().find(|op| op.label() == s)
    }
}

impl std::fmt::Display for FieldOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A concrete, observable program event (§3.4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EventExpr {
    /// A C function call or return with argument patterns.
    FunctionEvent {
        /// Function name.
        name: String,
        /// Patterns for the arguments, in order. May be shorter than
        /// the callee's arity: trailing arguments are unmatched
        /// (equivalent to `ANY`).
        args: Vec<ArgPattern>,
        /// Entry, exit, or exit-with-return-value.
        kind: CallKind,
    },
    /// Assignment to a structure field.
    FieldAssignEvent {
        /// Structure type name (`struct socket` → `socket`).
        struct_name: String,
        /// Field name.
        field_name: String,
        /// Which object's field; usually a variable or `ANY`.
        object: ArgPattern,
        /// Assignment operator.
        op: FieldOp,
        /// Pattern for the assigned value (the right-hand side).
        value: ArgPattern,
    },
    /// An Objective-C-style message send: `[receiver selector: args]`
    /// (§3.5.3, fig. 8). Dispatched dynamically, so instrumentation is
    /// interposed on the message-send path rather than woven at compile
    /// time (§4.3).
    MessageEvent {
        /// Pattern for the receiver (`ANY(id)` is typical).
        receiver: ArgPattern,
        /// Full selector, colons included (`drawWithFrame:inView:`).
        selector: String,
        /// Patterns for the message arguments.
        args: Vec<ArgPattern>,
        /// Entry (send) or exit (return) of the method.
        kind: CallKind,
    },
}

impl EventExpr {
    /// The variables referenced by this event's patterns, in pattern
    /// order (argument patterns first, then the return pattern).
    pub fn referenced_vars(&self) -> Vec<usize> {
        let mut out = Vec::new();
        {
            let mut push = |p: &ArgPattern| {
                if let Some(i) = p.var_index() {
                    out.push(i);
                }
            };
            match self {
                EventExpr::FunctionEvent { args, kind, .. } => {
                    args.iter().for_each(&mut push);
                    if let CallKind::ExitWithReturn(r) = kind {
                        push(r);
                    }
                }
                EventExpr::FieldAssignEvent { object, value, .. } => {
                    push(object);
                    push(value);
                }
                EventExpr::MessageEvent {
                    receiver,
                    args,
                    kind,
                    ..
                } => {
                    push(receiver);
                    args.iter().for_each(&mut push);
                    if let CallKind::ExitWithReturn(r) = kind {
                        push(r);
                    }
                }
            }
        }
        out
    }
}

/// Boolean operators over sub-automata (§3.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoolOp {
    /// Inclusive OR (`||`): at least one operand's behaviour occurred.
    /// Implemented as a cross-product automaton, so it is *not* an
    /// error for both to occur.
    Or,
    /// Exclusive OR (`^`): exactly one operand's behaviour occurred.
    Xor,
}

/// Modifiers guiding interpretation and instrumentation (§3.4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modifier {
    /// The sub-expression may be skipped entirely.
    Optional,
    /// Instrument in the callee's context (function entry/exit blocks).
    Callee,
    /// Instrument around call sites in callers — required for
    /// libraries that cannot be recompiled.
    Caller,
    /// Unexpected events that match the automaton's alphabet but have
    /// no transition from the current state are violations, instead of
    /// being ignored.
    Strict,
    /// The sub-expression is only checked if its first event occurs.
    Conditional,
}

/// A TESLA expression tree (§3.4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A concrete program event.
    Event(EventExpr),
    /// The assertion site itself (`TESLA_ASSERTION_SITE`): the moment
    /// control reaches the source location of the assertion, with the
    /// scope's variable values.
    AssertionSite,
    /// Ordered sequence (`TSEQUENCE(e1, e2, ...)`).
    Sequence(Vec<Expr>),
    /// Boolean combination of alternatives.
    Bool {
        /// `||` or `^`.
        op: BoolOp,
        /// Two or more operands.
        exprs: Vec<Expr>,
    },
    /// `ATLEAST(n, e1, e2, ...)` (fig. 8): at least `n` occurrences of
    /// events drawn freely from the listed alternatives, in any order.
    AtLeast {
        /// Minimum number of occurrences (0 = "some or none").
        n: usize,
        /// The event alternatives.
        exprs: Vec<Expr>,
    },
    /// `incallstack(fn)` (fig. 7): a *site-time predicate* — satisfied
    /// iff `fn` is on the current thread's call stack when the
    /// assertion site is reached. Compiles to an assertion-site
    /// transition guarded by a shadow-stack check.
    InCallStack(String),
    /// A modifier applied to a sub-expression.
    Modified {
        /// The modifier.
        modifier: Modifier,
        /// The governed sub-expression.
        expr: Box<Expr>,
    },
}

impl Expr {
    /// `previously(x)` expands to `TSEQUENCE(x, TESLA_ASSERTION_SITE)`
    /// (§3.4.1).
    pub fn previously(inner: Expr) -> Expr {
        Expr::Sequence(vec![inner, Expr::AssertionSite])
    }

    /// `eventually(x)` expands to `TSEQUENCE(TESLA_ASSERTION_SITE, x)`
    /// (§3.4.1).
    pub fn eventually(inner: Expr) -> Expr {
        Expr::Sequence(vec![Expr::AssertionSite, inner])
    }

    /// Count the assertion sites in the tree. Sites replicated across
    /// `||`/`^` branches all refer to the same source location, so for
    /// validation use [`Expr::max_sites_on_path`] instead.
    pub fn count_sites(&self) -> usize {
        match self {
            Expr::Event(_) | Expr::InCallStack(_) => 0,
            Expr::AssertionSite => 1,
            Expr::Sequence(es) | Expr::Bool { exprs: es, .. } | Expr::AtLeast { exprs: es, .. } => {
                es.iter().map(Expr::count_sites).sum()
            }
            Expr::Modified { expr, .. } => expr.count_sites(),
        }
    }

    /// The maximum number of assertion sites along any single execution
    /// path through the expression (branches of `||`/`^` are
    /// alternative paths). A valid assertion has at most one.
    pub fn max_sites_on_path(&self) -> usize {
        match self {
            Expr::Event(_) | Expr::InCallStack(_) => 0,
            Expr::AssertionSite => 1,
            Expr::Sequence(es) => es.iter().map(Expr::max_sites_on_path).sum(),
            Expr::Bool { exprs: es, .. } => {
                es.iter().map(Expr::max_sites_on_path).max().unwrap_or(0)
            }
            // Repetition of a site-containing body would need several
            // sites on one path; count conservatively.
            Expr::AtLeast { exprs: es, .. } => {
                es.iter().map(Expr::max_sites_on_path).max().unwrap_or(0)
            }
            Expr::Modified { expr, .. } => expr.max_sites_on_path(),
        }
    }

    /// How deep the spec parser nests to read this expression back
    /// from its printed form, the expression itself being level 1:
    /// every `TSEQUENCE`, `ATLEAST` and modifier argument sits one
    /// level below its parent, and so does a boolean operand that is
    /// itself boolean (it prints inside a one-element `TSEQUENCE`);
    /// other boolean operands are read at their operator's level.
    pub fn depth(&self) -> usize {
        match self {
            Expr::Event(_) | Expr::AssertionSite | Expr::InCallStack(_) => 1,
            Expr::Sequence(es) | Expr::AtLeast { exprs: es, .. } => {
                1 + es.iter().map(Expr::depth).max().unwrap_or(0)
            }
            Expr::Modified { expr, .. } => 1 + expr.depth(),
            Expr::Bool { exprs, .. } => exprs
                .iter()
                .map(|e| match e {
                    Expr::Bool { .. } => 1 + e.depth(),
                    _ => e.depth(),
                })
                .max()
                .unwrap_or(1),
        }
    }

    /// Count concrete events in the tree.
    pub fn count_events(&self) -> usize {
        match self {
            Expr::Event(_) => 1,
            // A guard is checked at the site; it contributes behaviour
            // even though it is not a temporal event.
            Expr::InCallStack(_) => 1,
            Expr::AssertionSite => 0,
            Expr::Sequence(es) | Expr::Bool { exprs: es, .. } | Expr::AtLeast { exprs: es, .. } => {
                es.iter().map(Expr::count_events).sum()
            }
            Expr::Modified { expr, .. } => expr.count_events(),
        }
    }

    /// Visit every event in the tree.
    pub fn for_each_event(&self, f: &mut impl FnMut(&EventExpr)) {
        match self {
            Expr::Event(e) => f(e),
            Expr::AssertionSite | Expr::InCallStack(_) => {}
            Expr::Sequence(es) | Expr::Bool { exprs: es, .. } | Expr::AtLeast { exprs: es, .. } => {
                es.iter().for_each(|e| e.for_each_event(f));
            }
            Expr::Modified { expr, .. } => expr.for_each_event(f),
        }
    }

    /// Does the tree (at any depth) carry the given modifier?
    pub fn has_modifier(&self, m: Modifier) -> bool {
        match self {
            Expr::Event(_) | Expr::AssertionSite | Expr::InCallStack(_) => false,
            Expr::Sequence(es) | Expr::Bool { exprs: es, .. } | Expr::AtLeast { exprs: es, .. } => {
                es.iter().any(|e| e.has_modifier(m))
            }
            Expr::Modified { modifier, expr } => *modifier == m || expr.has_modifier(m),
        }
    }
}

/// A source location, for diagnostics (the paper's tooling reports the
/// file and line of the violated assertion).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SourceLoc {
    /// Source file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

impl std::fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.file.is_empty() {
            write!(f, "<unknown>")
        } else {
            write!(f, "{}:{}", self.file, self.line)
        }
    }
}

/// A complete TESLA assertion: context, bounds, expression, variable
/// table and provenance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Assertion {
    /// Human-readable name; defaults to `file:line` when parsed from
    /// source.
    pub name: String,
    /// Automaton context (§3.2).
    pub context: Context,
    /// Temporal bounds (§3.3).
    pub bounds: Bounds,
    /// The temporal expression (§3.4).
    pub expr: Expr,
    /// Names of the scope variables referenced by the expression, in
    /// variable-index order. Values for these are captured at the
    /// assertion site.
    pub variables: Vec<String>,
    /// Where the assertion was written.
    pub loc: SourceLoc,
}

impl Assertion {
    /// Validate structural invariants: at least one event, at most one
    /// assertion site, non-empty bound functions, and nesting the spec
    /// parser reads back (at most [`crate::parser::MAX_DEPTH`] levels),
    /// so that every writer's output of a valid assertion is readable.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`crate::SpecError`].
    pub fn validate(&self) -> Result<(), crate::SpecError> {
        if self.bounds.start.function().is_empty() || self.bounds.end.function().is_empty() {
            return Err(crate::SpecError::EmptyBoundFunction);
        }
        if self.expr.count_events() == 0 {
            return Err(crate::SpecError::EmptyExpression);
        }
        let sites = self.expr.max_sites_on_path();
        if sites > 1 {
            return Err(crate::SpecError::MultipleAssertionSites(sites));
        }
        let depth = self.expr.depth();
        if depth > crate::parser::MAX_DEPTH {
            return Err(crate::SpecError::TooDeep(depth));
        }
        Ok(())
    }

    /// The expression, with an assertion site appended if the
    /// programmer wrote none (an assertion with no explicit site is
    /// treated as `previously(expr)`, matching the macro expansion
    /// rules of §3.4.1).
    pub fn expr_with_site(&self) -> Expr {
        if self.expr.count_sites() == 0 {
            Expr::Sequence(vec![self.expr.clone(), Expr::AssertionSite])
        } else {
            self.expr.clone()
        }
    }
}

/// Convenience: an equality event `f(args) == v` with a constant
/// return value, the most common event form in the paper's assertions.
pub fn call_returns(name: &str, args: Vec<ArgPattern>, ret: i64) -> EventExpr {
    EventExpr::FunctionEvent {
        name: name.to_string(),
        args,
        kind: CallKind::ExitWithReturn(ArgPattern::Const(Value::from_i64(ret))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_op_labels_and_codes_round_trip() {
        for (code, op) in FieldOp::ALL.into_iter().enumerate() {
            assert_eq!(FieldOp::from_label(op.label()), Some(op));
            assert_eq!(op.to_string(), op.label());
            assert_eq!(op as usize, code);
            assert_eq!(FieldOp::ALL[op as usize], op);
        }
        assert_eq!(FieldOp::from_label("*="), None);
    }

    fn ev(name: &str) -> Expr {
        Expr::Event(EventExpr::FunctionEvent {
            name: name.into(),
            args: vec![],
            kind: CallKind::Entry,
        })
    }

    fn assertion(expr: Expr) -> Assertion {
        Assertion {
            name: "t".into(),
            context: Context::PerThread,
            bounds: Bounds::within("main"),
            expr,
            variables: vec![],
            loc: SourceLoc::default(),
        }
    }

    #[test]
    fn previously_expands_to_sequence_with_trailing_site() {
        let e = Expr::previously(ev("f"));
        match &e {
            Expr::Sequence(es) => {
                assert_eq!(es.len(), 2);
                assert_eq!(es[1], Expr::AssertionSite);
            }
            _ => panic!("expected sequence"),
        }
        assert_eq!(e.count_sites(), 1);
    }

    #[test]
    fn eventually_expands_to_sequence_with_leading_site() {
        let e = Expr::eventually(ev("f"));
        match &e {
            Expr::Sequence(es) => assert_eq!(es[0], Expr::AssertionSite),
            _ => panic!("expected sequence"),
        }
    }

    #[test]
    fn validate_rejects_empty_expression() {
        let a = assertion(Expr::AssertionSite);
        assert_eq!(a.validate(), Err(crate::SpecError::EmptyExpression));
    }

    #[test]
    fn validate_rejects_multiple_sites() {
        let a = assertion(Expr::Sequence(vec![
            Expr::AssertionSite,
            ev("f"),
            Expr::AssertionSite,
        ]));
        assert_eq!(
            a.validate(),
            Err(crate::SpecError::MultipleAssertionSites(2))
        );
    }

    #[test]
    fn validate_rejects_what_the_parser_cannot_read() {
        let nested = |levels: usize| {
            let mut e = ev("f");
            for _ in 0..levels {
                e = Expr::Modified {
                    modifier: Modifier::Optional,
                    expr: Box::new(e),
                };
            }
            assertion(Expr::previously(e))
        };
        // `previously` is level 1, so the call sits at `levels + 2`.
        let deepest = crate::parser::MAX_DEPTH - 2;
        assert!(nested(deepest).validate().is_ok());
        assert_eq!(
            nested(deepest + 1).validate(),
            Err(crate::SpecError::TooDeep(crate::parser::MAX_DEPTH + 1))
        );
        // A boolean operand that is itself boolean prints one level
        // down.
        let or = |exprs| Expr::Bool {
            op: BoolOp::Or,
            exprs,
        };
        assert_eq!(or(vec![ev("a"), ev("b")]).depth(), 1);
        assert_eq!(or(vec![ev("a"), or(vec![ev("b"), ev("c")])]).depth(), 2);
    }

    #[test]
    fn validate_accepts_previously() {
        let a = assertion(Expr::previously(ev("f")));
        assert!(a.validate().is_ok());
    }

    #[test]
    fn expr_with_site_appends_when_missing() {
        let a = assertion(ev("f"));
        assert_eq!(a.expr.count_sites(), 0);
        assert_eq!(a.expr_with_site().count_sites(), 1);
        // Already-sited expressions are unchanged.
        let b = assertion(Expr::previously(ev("f")));
        assert_eq!(b.expr_with_site(), b.expr);
    }

    #[test]
    fn count_events_recurses() {
        let e = Expr::Bool {
            op: BoolOp::Or,
            exprs: vec![ev("a"), Expr::Sequence(vec![ev("b"), ev("c")])],
        };
        assert_eq!(e.count_events(), 3);
    }

    #[test]
    fn has_modifier_finds_nested() {
        let e = Expr::Sequence(vec![Expr::Modified {
            modifier: Modifier::Strict,
            expr: Box::new(ev("a")),
        }]);
        assert!(e.has_modifier(Modifier::Strict));
        assert!(!e.has_modifier(Modifier::Optional));
    }

    #[test]
    fn referenced_vars_covers_return_pattern() {
        let e = EventExpr::FunctionEvent {
            name: "f".into(),
            args: vec![
                ArgPattern::any_ptr(),
                ArgPattern::Var {
                    index: 2,
                    name: "o".into(),
                },
            ],
            kind: CallKind::ExitWithReturn(ArgPattern::Var {
                index: 0,
                name: "r".into(),
            }),
        };
        assert_eq!(e.referenced_vars(), vec![2, 0]);
    }

    #[test]
    fn bounds_within_uses_entry_and_exit() {
        let b = Bounds::within("syscall");
        assert_eq!(b.start, StaticEvent::Call("syscall".into()));
        assert_eq!(b.end, StaticEvent::ReturnFrom("syscall".into()));
    }
}
