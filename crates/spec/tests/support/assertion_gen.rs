//! One generator of builder-made assertions, shared by the spec
//! crate's print/parse round-trip (`proptest_roundtrip.rs`) and the IR
//! codec round-trip (`tesla-ir`'s `codec_roundtrip.rs`, which includes
//! this file by path).
//!
//! Besides trees at most three combinators deep and a fixed list of
//! texts in the shapes the builder does not make, it reaches the edges
//! both readers must handle: spines whose `Expr::depth()` spans 62–66,
//! around the parser's 64 levels (each spine level carries at most one
//! leaf off the spine, so size stays linear in depth), and the
//! constants `i64::MIN`, `i64::MAX` and, through `flags` and
//! `bitmask`, `u64::MAX`. [`build`] returns what
//! `AssertionBuilder::build` does: a spine past 64 levels must come
//! back as `SpecError::TooDeep`, everything else must build.
//! [`Reach`] records which edges a run met, so a test can show its
//! fixed seed still reaches them.

use std::collections::BTreeSet;
use tesla_prop::Gen;
use tesla_spec::{
    call, field_assign, msg_send, ArgPattern, Assertion, AssertionBuilder, CallKind, EventExpr,
    ExprBuilder, FieldOp, SpecError, Value,
};

const VARS: [&str; 4] = ["vp", "so", "cred", "op_arg"];
const FNS: [&str; 5] = [
    "mac_check",
    "vn_rdwr",
    "security_check",
    "audit_event",
    "EVP_VerifyFinal",
];
const SELS: [&str; 3] = ["push", "pop", "drawWithFrame:inView:"];
const STRUCTS: [&str; 2] = ["socket", "proc"];
const FIELDS: [&str; 2] = ["so_qstate", "p_flag"];

/// Assertions in surface syntax whose printed forms cover the shapes
/// the builder does not make: explicit bounds, `eventually`,
/// `incallstack`, `returnfrom`, the site inside a `TSEQUENCE`, `NULL`
/// and typed message arguments.
const TEXTS: [&str; 6] = [
    "TESLA_WITHIN(f, previously(g(ANY(ptr), x, &out, flags(0x80), bitmask(0x6)) == -1))",
    "TESLA_GLOBAL(call(a), returnfrom(b), eventually(audit(x), call(c(0x8000000000000000))))",
    "TESLA_WITHIN(f, strict(a() ^ b()) || optional(socket(so).so_qstate |= 5))",
    "TESLA_SYSCALL(incallstack(ufs_readdir) || previously(callee(check(vp) == 0)))",
    "TESLA_WITHIN(draw, previously(ATLEAST(2, [ANY(id) push], \
     returnfrom([ANY(id) drawWithFrame: ANY(NSRect) inView: v]), caller(conditional(s.n += 1)))))",
    "TESLA_PERTHREAD(call(a), returnfrom(a), TSEQUENCE(TESLA_ASSERTION_SITE, z(NULL)))",
];

/// The depths a spine's assertion is drawn at: the parser reads 64
/// levels, so 62–64 build and 65–66 are refused.
const SPINE_DEPTHS: std::ops::RangeInclusive<usize> = 62..=66;

/// A recipe for one event (kept as data so a failing input prints).
#[derive(Debug, Clone)]
pub enum EventRecipe {
    Call {
        f: usize,
        args: Vec<ArgRecipe>,
        ret: Option<RetRecipe>,
        entry: bool,
    },
    Msg {
        s: usize,
        n_args: usize,
    },
    Field {
        st: usize,
        fi: usize,
        var: usize,
        op: u8,
        value: i64,
    },
}

#[derive(Debug, Clone)]
pub enum ArgRecipe {
    Any,
    Const(i64),
    Var(usize),
    Flags(u64),
    Bitmask(u64),
    Out(usize),
}

#[derive(Debug, Clone)]
pub enum RetRecipe {
    Const(i64),
    Var(usize),
}

#[derive(Debug, Clone)]
pub enum ExprRecipe {
    Event(EventRecipe),
    Or(Vec<ExprRecipe>),
    Xor(Vec<ExprRecipe>),
    Seq(Vec<ExprRecipe>),
    AtLeast(usize, Vec<ExprRecipe>),
    Optional(Box<ExprRecipe>),
    Strict(Box<ExprRecipe>),
    Caller(Box<ExprRecipe>),
}

/// One level of a spine, wrapped around the spine below it.
#[derive(Debug, Clone)]
pub enum Link {
    /// `optional`, `strict`, `caller`, `callee` or `conditional`.
    Modifier(u8),
    /// `TSEQUENCE(leaf, spine)`.
    Seq(EventRecipe),
    /// `ATLEAST(n, …)` of the spine and a leaf, in either order.
    AtLeast {
        n: usize,
        leaf: EventRecipe,
        spine_first: bool,
    },
    /// `leaf || spine`.
    Or(EventRecipe),
    /// `leaf ^ spine`.
    Xor(EventRecipe),
}

/// The body of a generated assertion.
#[derive(Debug, Clone)]
pub enum Shape {
    /// A tree at most three combinators deep.
    Tree(ExprRecipe),
    /// An event wrapped in `links`, innermost first, whose assertion
    /// is `depth` levels deep.
    Spine {
        leaf: EventRecipe,
        links: Vec<Link>,
        depth: usize,
    },
    /// One of the fixed texts, parsed.
    Text(usize),
}

/// A generated assertion: `previously(shape)` within `enclosing_fn`,
/// global or per-thread (a text brings its own bounds and context).
#[derive(Debug, Clone)]
pub struct Recipe {
    pub shape: Shape,
    pub global: bool,
}

/// A signed constant: small, or one of the `i64` extremes. A shrunk
/// draw (0) gives a small one.
fn int_const(g: &mut Gen, small: std::ops::Range<i64>) -> i64 {
    match g.below(6) {
        4 => i64::MIN,
        5 => i64::MAX,
        _ => g.range(small),
    }
}

/// A bit pattern: small, or all 64 bits.
fn bits(g: &mut Gen) -> u64 {
    match g.below(4) {
        3 => u64::MAX,
        _ => g.range(1u64..0xffff),
    }
}

fn arg_strategy(g: &mut Gen) -> ArgRecipe {
    match g.below(6) {
        0 => ArgRecipe::Any,
        1 => ArgRecipe::Const(int_const(g, -4..100)),
        2 => ArgRecipe::Var(g.range(0..VARS.len())),
        3 => ArgRecipe::Flags(bits(g)),
        4 => ArgRecipe::Bitmask(bits(g)),
        _ => ArgRecipe::Out(g.range(0..VARS.len())),
    }
}

fn event_strategy(g: &mut Gen) -> EventRecipe {
    match g.below(3) {
        0 => EventRecipe::Call {
            f: g.range(0..FNS.len()),
            args: g.vec(0..3, arg_strategy),
            ret: g.option(|g| match g.below(2) {
                0 => RetRecipe::Const(int_const(g, -2..5)),
                _ => RetRecipe::Var(g.range(0..VARS.len())),
            }),
            entry: g.bool(),
        },
        1 => EventRecipe::Msg {
            s: g.range(0..SELS.len()),
            n_args: g.range(0usize..3),
        },
        _ => EventRecipe::Field {
            st: g.range(0..STRUCTS.len()),
            fi: g.range(0..FIELDS.len()),
            var: g.range(0..VARS.len()),
            op: g.range(0u8..5),
            value: int_const(g, 0..64),
        },
    }
}

/// An expression at most `depth` combinators deep.
pub fn expr_gen(g: &mut Gen, depth: u32) -> ExprRecipe {
    if depth == 0 || !g.bool() {
        return ExprRecipe::Event(event_strategy(g));
    }
    let inner = |g: &mut Gen| expr_gen(g, depth - 1);
    match g.below(7) {
        0 => ExprRecipe::Or(g.vec(2..4, inner)),
        1 => ExprRecipe::Xor(g.vec(2..4, inner)),
        2 => ExprRecipe::Seq(g.vec(2..4, inner)),
        3 => ExprRecipe::AtLeast(g.range(0usize..3), g.vec(1..3, inner)),
        4 => ExprRecipe::Optional(Box::new(inner(g))),
        5 => ExprRecipe::Strict(Box::new(inner(g))),
        _ => ExprRecipe::Caller(Box::new(inner(g))),
    }
}

/// A spine drawn at a depth in [`SPINE_DEPTHS`]. Links are added until
/// the depth is reached, tracking `Expr::depth()`'s rules: a modifier,
/// a sequence or an `ATLEAST` adds a level; a boolean operator adds
/// one only over a boolean operand, which prints inside a
/// one-element `TSEQUENCE`. `previously` is the assertion's first
/// level.
fn spine(g: &mut Gen) -> Shape {
    let depth = g.range(*SPINE_DEPTHS.start()..*SPINE_DEPTHS.end() + 1);
    let leaf = event_strategy(g);
    let (mut below, mut boolean) = (1, false);
    let mut links = Vec::new();
    while 1 + below < depth {
        let link = match g.below(5) {
            0 => Link::Modifier(g.range(0u8..5)),
            1 => Link::Seq(event_strategy(g)),
            2 => Link::AtLeast {
                n: g.range(0usize..3),
                leaf: event_strategy(g),
                spine_first: g.bool(),
            },
            3 => Link::Or(event_strategy(g)),
            _ => Link::Xor(event_strategy(g)),
        };
        let is_bool = matches!(link, Link::Or(_) | Link::Xor(_));
        if !is_bool || boolean {
            below += 1;
        }
        boolean = is_bool;
        links.push(link);
    }
    Shape::Spine { leaf, links, depth }
}

/// Any assertion: a shallow tree five times in eight, a spine twice,
/// a fixed text once.
pub fn recipe(g: &mut Gen) -> Recipe {
    let shape = match g.below(8) {
        5 | 6 => spine(g),
        7 => Shape::Text(g.below(TEXTS.len())),
        _ => Shape::Tree(expr_gen(g, 3)),
    };
    Recipe {
        shape,
        global: g.bool(),
    }
}

fn build_event(r: &EventRecipe) -> ExprBuilder {
    match r {
        EventRecipe::Call {
            f,
            args,
            ret,
            entry,
        } => {
            let mut c = call(FNS[*f]);
            for a in args {
                c = match a {
                    ArgRecipe::Any => c.any_ptr(),
                    ArgRecipe::Const(v) => c.arg_const(*v),
                    ArgRecipe::Var(i) => c.arg_var(VARS[*i]),
                    ArgRecipe::Flags(b) => c.arg_flags(*b),
                    ArgRecipe::Bitmask(b) => c.arg_bitmask(*b),
                    ArgRecipe::Out(i) => c.arg_out(VARS[*i]),
                };
            }
            match (ret, entry) {
                (Some(RetRecipe::Const(v)), _) => c.returns(*v).into(),
                (Some(RetRecipe::Var(i)), _) => c.returns_var(VARS[*i]).into(),
                (None, true) => c.entry().into(),
                (None, false) => c.into(),
            }
        }
        EventRecipe::Msg { s, n_args } => {
            let sel = SELS[*s];
            // Argument count must match the selector's colon count for
            // the printed form to re-parse.
            let colons = sel.matches(':').count();
            let mut m = msg_send(sel);
            for _ in 0..(*n_args).min(colons) {
                m = m.any("id");
            }
            m.into()
        }
        EventRecipe::Field {
            st,
            fi,
            var,
            op,
            value,
        } => {
            let op = match op {
                0 => FieldOp::Assign,
                1 => FieldOp::AddAssign,
                2 => FieldOp::SubAssign,
                3 => FieldOp::OrAssign,
                _ => FieldOp::AndAssign,
            };
            field_assign(STRUCTS[*st], FIELDS[*fi])
                .object_var(VARS[*var])
                .op(op)
                .value_const(*value)
                .into()
        }
    }
}

pub fn build_expr(r: &ExprRecipe) -> ExprBuilder {
    let join = |es: &[ExprRecipe], op: fn(ExprBuilder, ExprBuilder) -> ExprBuilder| {
        let mut it = es.iter();
        let first = build_expr(it.next().expect("two or more operands"));
        it.fold(first, |out, e| op(out, build_expr(e)))
    };
    match r {
        ExprRecipe::Event(e) => build_event(e),
        ExprRecipe::Or(es) => join(es, ExprBuilder::or),
        ExprRecipe::Xor(es) => join(es, ExprBuilder::xor),
        ExprRecipe::Seq(es) => join(es, ExprBuilder::then),
        ExprRecipe::AtLeast(n, es) => tesla_spec::atleast(*n, es.iter().map(build_expr).collect()),
        ExprRecipe::Optional(e) => build_expr(e).optional(),
        ExprRecipe::Strict(e) => build_expr(e).strict(),
        ExprRecipe::Caller(e) => build_expr(e).caller(),
    }
}

fn build_spine(leaf: &EventRecipe, links: &[Link]) -> ExprBuilder {
    links.iter().fold(build_event(leaf), |e, link| match link {
        Link::Modifier(0) => e.optional(),
        Link::Modifier(1) => e.strict(),
        Link::Modifier(2) => e.caller(),
        Link::Modifier(3) => e.callee(),
        Link::Modifier(_) => e.conditional(),
        Link::Seq(l) => build_event(l).then(e),
        Link::AtLeast {
            n,
            leaf,
            spine_first,
        } => {
            let l = build_event(leaf);
            let operands = if *spine_first { vec![e, l] } else { vec![l, e] };
            tesla_spec::atleast(*n, operands)
        }
        Link::Or(l) => build_event(l).or(e),
        Link::Xor(l) => build_event(l).xor(e),
    })
}

/// `previously(expr)` within `enclosing_fn`, global or per-thread.
pub fn build_previously(expr: ExprBuilder, global: bool) -> Result<Assertion, SpecError> {
    let mut b = AssertionBuilder::within("enclosing_fn").named("prop");
    if global {
        b = b.global();
    }
    b.previously(expr).build()
}

/// Build a recipe: `Ok` or `SpecError::TooDeep` exactly as its depth
/// is within the parser's 64 levels or past them; any other outcome
/// is an `Err` message.
pub fn build(r: &Recipe) -> Result<Result<Assertion, SpecError>, String> {
    match &r.shape {
        Shape::Tree(e) => match build_previously(build_expr(e), r.global) {
            Ok(a) => Ok(Ok(a)),
            Err(e) => Err(format!("a shallow tree was refused: {e}")),
        },
        Shape::Spine { leaf, links, depth } => {
            let built = build_previously(build_spine(leaf, links), r.global);
            match &built {
                Ok(a) if a.expr.depth() == *depth && *depth <= 64 => {}
                Err(SpecError::TooDeep(d)) if d == depth && *depth > 64 => {}
                Ok(a) => return Err(format!("depth {} built, drawn at {depth}", a.expr.depth())),
                Err(e) => return Err(format!("drawn at depth {depth}: {e}")),
            }
            Ok(built)
        }
        Shape::Text(i) => tesla_spec::parse_assertion(TEXTS[*i])
            .map(Ok)
            .map_err(|e| format!("`{}`: {e}", TEXTS[*i])),
    }
}

/// Every argument, return and value pattern of `a`'s events.
fn patterns(a: &Assertion) -> Vec<ArgPattern> {
    let mut out = Vec::new();
    a.expr.for_each_event(&mut |e| match e {
        EventExpr::FunctionEvent { args, kind, .. }
        | EventExpr::MessageEvent { args, kind, .. } => {
            out.extend(args.iter().cloned());
            if let CallKind::ExitWithReturn(r) = kind {
                out.push(r.clone());
            }
        }
        EventExpr::FieldAssignEvent { value, .. } => out.push(value.clone()),
    });
    out
}

/// The edges a run of generated assertions met.
#[derive(Debug, Default)]
pub struct Reach {
    /// Depths built or refused.
    pub depths: BTreeSet<usize>,
    /// `i64::MIN` or `i64::MAX` as a constant.
    pub int_extremes: BTreeSet<i64>,
    /// `u64::MAX` through `flags`, through `bitmask`.
    pub all_bits: (bool, bool),
}

impl Reach {
    /// Note one outcome of [`build`].
    pub fn note(&mut self, built: &Result<Assertion, SpecError>) {
        let a = match built {
            Ok(a) => a,
            Err(SpecError::TooDeep(d)) => {
                self.depths.insert(*d);
                return;
            }
            Err(_) => return,
        };
        self.depths.insert(a.expr.depth());
        for p in patterns(a) {
            match p {
                ArgPattern::Const(Value(v)) if v == i64::MIN as u64 || v == i64::MAX as u64 => {
                    self.int_extremes.insert(v as i64);
                }
                ArgPattern::Flags(u64::MAX) => self.all_bits.0 = true,
                ArgPattern::Bitmask(u64::MAX) => self.all_bits.1 = true,
                _ => {}
            }
        }
    }

    /// Panic unless every edge was met.
    pub fn assert_complete(&self) {
        for d in SPINE_DEPTHS {
            assert!(
                self.depths.contains(&d),
                "no assertion at depth {d}: {self:?}"
            );
        }
        assert_eq!(
            self.int_extremes,
            BTreeSet::from([i64::MIN, i64::MAX]),
            "{self:?}"
        );
        assert_eq!(self.all_bits, (true, true), "{self:?}");
    }
}
