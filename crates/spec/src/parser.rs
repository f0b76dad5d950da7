//! Parser for the high-level TESLA assertion surface syntax (fig. 5).
//!
//! The paper implements the surface forms as C macros expanded by the
//! Clang-based analyser; here a handwritten recursive-descent parser
//! accepts the same shapes directly:
//!
//! ```text
//! TESLA_WITHIN(enclosing_fn, previously(security_check(ANY(ptr), o, op) == 0))
//! TESLA_PERTHREAD(call(f), returnfrom(f), eventually(audit(x)))
//! TESLA_GLOBAL(call(f), returnfrom(f), a() || b())
//! TESLA_ASSERT(global, call(f), returnfrom(g), TSEQUENCE(a(), b()))
//! TESLA_SYSCALL(incallstack(ufs_readdir) || previously(mac_check(vp) == 0))
//! TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(ANY(ptr), so) == 0)
//! ```
//!
//! Objective-C message events use bracket syntax (`[ANY(id) push]`),
//! field assignments use `socket(so).so_qstate = 5` (the parenthesised
//! struct-type form; the mini-C analyser fills the struct type from
//! `so`'s declared type when the plain `so.so_qstate = 5` form is
//! used).
//!
//! Identifiers that are not keywords and not in the caller-provided
//! constant table become *variables* bound from the assertion scope.

use crate::ast::{
    Assertion, BoolOp, Bounds, CallKind, Context, EventExpr, Expr, FieldOp, Modifier, SourceLoc,
    StaticEvent,
};
use crate::value::{ArgPattern, Value};
use std::collections::HashMap;

/// The syscall bound function used by the kernel convenience macros
/// `TESLA_SYSCALL` / `TESLA_SYSCALL_PREVIOUSLY`; matches figure 9.
pub const SYSCALL_BOUND_FN: &str = "amd64_syscall";

/// A parse failure, with a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the offending token.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Dot,
    Colon,
    Amp,
    EqEq,
    OrOr,
    Caret,
    Pipe,
    Assign,
    PlusAssign,
    MinusAssign,
    OrAssign,
    AndAssign,
    PlusPlus,
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Amp => write!(f, "`&`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::OrOr => write!(f, "`||`"),
            Tok::Caret => write!(f, "`^`"),
            Tok::Pipe => write!(f, "`|`"),
            Tok::Assign => write!(f, "`=`"),
            Tok::PlusAssign => write!(f, "`+=`"),
            Tok::MinusAssign => write!(f, "`-=`"),
            Tok::OrAssign => write!(f, "`|=`"),
            Tok::AndAssign => write!(f, "`&=`"),
            Tok::PlusPlus => write!(f, "`++`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// The error for an integer literal at `offset` whose value does not
/// fit its type: a `u64` for hex and unsigned decimal literals (a
/// [`Value`] prints as one), an `i64` for negative ones.
fn literal_out_of_range(offset: usize) -> ParseError {
    ParseError {
        message: "integer literal out of range".into(),
        offset,
    }
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    i += 1;
                }
                if i + 1 >= bytes.len() {
                    return Err(ParseError {
                        message: "unterminated block comment".into(),
                        offset: start,
                    });
                }
                i += 2;
            }
            b'(' => {
                toks.push((Tok::LParen, i));
                i += 1;
            }
            b')' => {
                toks.push((Tok::RParen, i));
                i += 1;
            }
            b'[' => {
                toks.push((Tok::LBracket, i));
                i += 1;
            }
            b']' => {
                toks.push((Tok::RBracket, i));
                i += 1;
            }
            b',' => {
                toks.push((Tok::Comma, i));
                i += 1;
            }
            b'.' => {
                toks.push((Tok::Dot, i));
                i += 1;
            }
            b':' => {
                toks.push((Tok::Colon, i));
                i += 1;
            }
            b'^' => {
                toks.push((Tok::Caret, i));
                i += 1;
            }
            b'=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::EqEq, i));
                    i += 2;
                } else {
                    toks.push((Tok::Assign, i));
                    i += 1;
                }
            }
            b'|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    toks.push((Tok::OrOr, i));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::OrAssign, i));
                    i += 2;
                } else {
                    toks.push((Tok::Pipe, i));
                    i += 1;
                }
            }
            b'&' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::AndAssign, i));
                    i += 2;
                } else {
                    toks.push((Tok::Amp, i));
                    i += 1;
                }
            }
            b'+' => {
                if bytes.get(i + 1) == Some(&b'+') {
                    toks.push((Tok::PlusPlus, i));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::PlusAssign, i));
                    i += 2;
                } else {
                    return Err(ParseError {
                        message: "unexpected `+`".into(),
                        offset: i,
                    });
                }
            }
            b'-' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::MinusAssign, i));
                    i += 2;
                } else if bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
                    let start = i;
                    i += 1;
                    // Accumulate downwards so `i64::MIN` itself fits.
                    let mut v: i64 = 0;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        v = v
                            .checked_mul(10)
                            .and_then(|v| v.checked_sub(i64::from(bytes[i] - b'0')))
                            .ok_or_else(|| literal_out_of_range(start))?;
                        i += 1;
                    }
                    toks.push((Tok::Int(v), start));
                } else {
                    return Err(ParseError {
                        message: "unexpected `-`".into(),
                        offset: i,
                    });
                }
            }
            b'0'..=b'9' => {
                let start = i;
                if c == b'0' && matches!(bytes.get(i + 1), Some(b'x') | Some(b'X')) {
                    i += 2;
                    let mut v: u64 = 0;
                    let digits = i;
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        let d = u64::from((bytes[i] as char).to_digit(16).unwrap());
                        v = v
                            .checked_mul(16)
                            .and_then(|v| v.checked_add(d))
                            .ok_or_else(|| literal_out_of_range(start))?;
                        i += 1;
                    }
                    if i == digits {
                        return Err(ParseError {
                            message: "hex literal with no digits".into(),
                            offset: start,
                        });
                    }
                    toks.push((Tok::Int(v as i64), start));
                } else {
                    let mut v: u64 = 0;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        v = v
                            .checked_mul(10)
                            .and_then(|v| v.checked_add(u64::from(bytes[i] - b'0')))
                            .ok_or_else(|| literal_out_of_range(start))?;
                        i += 1;
                    }
                    toks.push((Tok::Int(v as i64), start));
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push((Tok::Ident(src[start..i].to_string()), start));
            }
            _ => {
                return Err(ParseError {
                    message: format!("unexpected character `{}`", c as char),
                    offset: i,
                })
            }
        }
    }
    toks.push((Tok::Eof, src.len()));
    Ok(toks)
}

/// The deepest expression nesting the parser accepts, the bound of the
/// JSON reader. Parsing recurses once per level, and assertions arrive
/// from outside the program (`tesla check`, mini-C sources, `.tesla`
/// manifests), so without a bound deep input would overflow the stack.
/// [`crate::Assertion::validate`] holds built assertions to it too.
pub const MAX_DEPTH: usize = 64;

/// Parser state: token stream plus the variable table being built.
struct Parser<'a> {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    consts: &'a HashMap<String, u64>,
    vars: Vec<String>,
    /// Expressions being parsed, the outermost included.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &str, consts: &'a HashMap<String, u64>) -> Result<Parser<'a>, ParseError> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            consts,
            vars: Vec::new(),
            depth: 0,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].0
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            offset: self.offset(),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError {
                message: format!("expected identifier, found {other}"),
                offset: self.toks[self.pos.saturating_sub(1)].1,
            }),
        }
    }

    fn var_index(&mut self, name: &str) -> usize {
        if let Some(i) = self.vars.iter().position(|v| v == name) {
            i
        } else {
            self.vars.push(name.to_string());
            self.vars.len() - 1
        }
    }

    /// Top level: one of the `TESLA_*` assertion forms.
    fn parse_assertion(&mut self) -> Result<Assertion, ParseError> {
        let head = self.expect_ident()?;
        self.expect(&Tok::LParen)?;
        let (context, bounds, expr) = match head.as_str() {
            "TESLA_WITHIN" => {
                let f = self.expect_ident()?;
                self.expect(&Tok::Comma)?;
                let e = self.parse_expr()?;
                (Context::PerThread, Bounds::within(&f), e)
            }
            "TESLA_SYSCALL" => {
                let e = self.parse_expr()?;
                (Context::PerThread, Bounds::within(SYSCALL_BOUND_FN), e)
            }
            "TESLA_SYSCALL_PREVIOUSLY" => {
                let e = self.parse_expr_list()?;
                (
                    Context::PerThread,
                    Bounds::within(SYSCALL_BOUND_FN),
                    Expr::previously(seq_or_single(e)),
                )
            }
            "TESLA_GLOBAL" | "TESLA_PERTHREAD" => {
                let ctx = if head == "TESLA_GLOBAL" {
                    Context::Global
                } else {
                    Context::PerThread
                };
                let start = self.parse_static_event()?;
                self.expect(&Tok::Comma)?;
                let end = self.parse_static_event()?;
                self.expect(&Tok::Comma)?;
                let e = self.parse_expr()?;
                (ctx, Bounds { start, end }, e)
            }
            "TESLA_ASSERT" => {
                let ctx = match self.expect_ident()?.as_str() {
                    "global" => Context::Global,
                    "perthread" | "per_thread" | "thread" => Context::PerThread,
                    other => return Err(self.err(format!("unknown context `{other}`"))),
                };
                self.expect(&Tok::Comma)?;
                let start = self.parse_static_event()?;
                self.expect(&Tok::Comma)?;
                let end = self.parse_static_event()?;
                self.expect(&Tok::Comma)?;
                let e = self.parse_expr()?;
                (ctx, Bounds { start, end }, e)
            }
            other => return Err(self.err(format!("unknown assertion form `{other}`"))),
        };
        self.expect(&Tok::RParen)?;
        if *self.peek() != Tok::Eof {
            return Err(self.err(format!("trailing input: {}", self.peek())));
        }
        Ok(Assertion {
            name: String::new(),
            context,
            bounds,
            expr,
            variables: std::mem::take(&mut self.vars),
            loc: SourceLoc::default(),
        })
    }

    fn parse_static_event(&mut self) -> Result<StaticEvent, ParseError> {
        let kw = self.expect_ident()?;
        self.expect(&Tok::LParen)?;
        let f = self.expect_ident()?;
        self.expect(&Tok::RParen)?;
        match kw.as_str() {
            "call" => Ok(StaticEvent::Call(f)),
            "returnfrom" => Ok(StaticEvent::ReturnFrom(f)),
            other => Err(self.err(format!("expected call/returnfrom, found `{other}`"))),
        }
    }

    /// expr := orExpr where orExpr := xorExpr (`||` xorExpr)*
    ///
    /// Every nested expression is parsed through here, so this is
    /// where [`MAX_DEPTH`] is kept.
    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("expression nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let e = self.parse_or_expr();
        self.depth -= 1;
        e
    }

    fn parse_or_expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.parse_xor_expr()?;
        if *self.peek() != Tok::OrOr {
            return Ok(first);
        }
        let mut exprs = vec![first];
        while *self.peek() == Tok::OrOr {
            self.bump();
            exprs.push(self.parse_xor_expr()?);
        }
        Ok(Expr::Bool {
            op: BoolOp::Or,
            exprs,
        })
    }

    fn parse_xor_expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.parse_primary()?;
        if *self.peek() != Tok::Caret {
            return Ok(first);
        }
        let mut exprs = vec![first];
        while *self.peek() == Tok::Caret {
            self.bump();
            exprs.push(self.parse_primary()?);
        }
        Ok(Expr::Bool {
            op: BoolOp::Xor,
            exprs,
        })
    }

    fn parse_expr_list(&mut self) -> Result<Vec<Expr>, ParseError> {
        let mut out = vec![self.parse_expr()?];
        while *self.peek() == Tok::Comma {
            self.bump();
            out.push(self.parse_expr()?);
        }
        Ok(out)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        if *self.peek() == Tok::LBracket {
            return self.parse_message(CallKind::Entry);
        }
        let off = self.offset();
        let head = match self.peek() {
            Tok::Ident(s) => s.clone(),
            other => return Err(self.err(format!("expected expression, found {other}"))),
        };
        match head.as_str() {
            "TESLA_ASSERTION_SITE" => {
                self.bump();
                // Optional `()`.
                if *self.peek() == Tok::LParen {
                    self.bump();
                    self.expect(&Tok::RParen)?;
                }
                Ok(Expr::AssertionSite)
            }
            "previously" | "eventually" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let es = self.parse_expr_list()?;
                self.expect(&Tok::RParen)?;
                let body = seq_or_single(es);
                Ok(if head == "previously" {
                    Expr::previously(body)
                } else {
                    Expr::eventually(body)
                })
            }
            "TSEQUENCE" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let es = self.parse_expr_list()?;
                self.expect(&Tok::RParen)?;
                // A one-element TSEQUENCE is pure grouping; unwrap so
                // printing and parsing round-trip exactly.
                Ok(seq_or_single(es))
            }
            "ATLEAST" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let n = match self.bump() {
                    Tok::Int(v) if v >= 0 => v as usize,
                    other => {
                        return Err(ParseError {
                            message: format!("ATLEAST needs a count, found {other}"),
                            offset: off,
                        })
                    }
                };
                let mut es = Vec::new();
                while *self.peek() == Tok::Comma {
                    self.bump();
                    es.push(self.parse_expr()?);
                }
                self.expect(&Tok::RParen)?;
                if es.is_empty() {
                    return Err(ParseError {
                        message: "ATLEAST needs at least one event".into(),
                        offset: off,
                    });
                }
                Ok(Expr::AtLeast { n, exprs: es })
            }
            "optional" | "callee" | "caller" | "strict" | "conditional" => {
                self.bump();
                let m = match head.as_str() {
                    "optional" => Modifier::Optional,
                    "callee" => Modifier::Callee,
                    "caller" => Modifier::Caller,
                    "strict" => Modifier::Strict,
                    _ => Modifier::Conditional,
                };
                self.expect(&Tok::LParen)?;
                let e = self.parse_expr()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::Modified {
                    modifier: m,
                    expr: Box::new(e),
                })
            }
            "incallstack" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let f = self.expect_ident()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::InCallStack(f))
            }
            "call" | "returnfrom" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                if *self.peek() == Tok::LBracket {
                    // returnfrom([recv sel]) — method-return event.
                    let kind = if head == "call" {
                        CallKind::Entry
                    } else {
                        CallKind::Exit
                    };
                    let e = self.parse_message(kind)?;
                    self.expect(&Tok::RParen)?;
                    return Ok(e);
                }
                let name = self.expect_ident()?;
                let args = if *self.peek() == Tok::LParen {
                    self.parse_arg_patterns()?
                } else {
                    Vec::new()
                };
                self.expect(&Tok::RParen)?;
                let kind = if head == "call" {
                    CallKind::Entry
                } else {
                    CallKind::Exit
                };
                Ok(Expr::Event(EventExpr::FunctionEvent { name, args, kind }))
            }
            _ => self.parse_call_or_field(head),
        }
    }

    /// `name(args) [== val]` or `name(obj).field op val` or
    /// `name.field op val` (struct type unknown).
    fn parse_call_or_field(&mut self, head: String) -> Result<Expr, ParseError> {
        if matches!(head.as_str(), "flags" | "bitmask" | "ANY" | "any" | "NULL") {
            return Err(self.err(format!("`{head}` is a value pattern, not an event")));
        }
        self.bump(); // the identifier
        if *self.peek() == Tok::LParen {
            // Look ahead: `type(obj).field` is a field event; otherwise
            // a function event.
            let args = self.parse_arg_patterns()?;
            if *self.peek() == Tok::Dot {
                if args.len() != 1 {
                    return Err(self.err(
                        "field events take exactly one object pattern: type(obj).field".into(),
                    ));
                }
                return self.parse_field_tail(head, args.into_iter().next().unwrap());
            }
            let kind = if *self.peek() == Tok::EqEq {
                self.bump();
                let ret = self.parse_val()?;
                CallKind::ExitWithReturn(ret)
            } else {
                // Bare `f(args)` in an expression means "f was called
                // and returned", the paper's equality-pattern default
                // with no return check.
                CallKind::Exit
            };
            return Ok(Expr::Event(EventExpr::FunctionEvent {
                name: head,
                args,
                kind,
            }));
        }
        if *self.peek() == Tok::Dot {
            // `obj.field op val`: struct type unknown at parse time;
            // the object is a variable named `head`.
            let idx = self.var_index(&head);
            let obj = ArgPattern::Var {
                index: idx,
                name: head,
            };
            return self.parse_field_tail(String::new(), obj);
        }
        Err(self.err(format!("expected `(` or `.` after `{}`", head)))
    }

    fn parse_field_tail(
        &mut self,
        struct_name: String,
        object: ArgPattern,
    ) -> Result<Expr, ParseError> {
        self.expect(&Tok::Dot)?;
        let field_name = self.expect_ident()?;
        let (op, value) = match self.bump() {
            Tok::Assign => (FieldOp::Assign, self.parse_val()?),
            Tok::PlusAssign => (FieldOp::AddAssign, self.parse_val()?),
            Tok::MinusAssign => (FieldOp::SubAssign, self.parse_val()?),
            Tok::OrAssign => (FieldOp::OrAssign, self.parse_val()?),
            Tok::AndAssign => (FieldOp::AndAssign, self.parse_val()?),
            Tok::PlusPlus => (FieldOp::AddAssign, ArgPattern::Const(Value(1))),
            other => return Err(self.err(format!("expected assignment operator, found {other}"))),
        };
        Ok(Expr::Event(EventExpr::FieldAssignEvent {
            struct_name,
            field_name,
            object,
            op,
            value,
        }))
    }

    /// `[receiver selector]` or `[receiver sel: arg sel2: arg2 ...]`.
    fn parse_message(&mut self, kind: CallKind) -> Result<Expr, ParseError> {
        self.expect(&Tok::LBracket)?;
        let receiver = self.parse_val()?;
        let mut selector = String::new();
        let mut args = Vec::new();
        loop {
            match self.peek() {
                Tok::Ident(_) => {
                    let part = self.expect_ident()?;
                    selector.push_str(&part);
                    if *self.peek() == Tok::Colon {
                        self.bump();
                        selector.push(':');
                        args.push(self.parse_val()?);
                    }
                }
                Tok::RBracket => break,
                other => return Err(self.err(format!("unexpected {other} in message"))),
            }
        }
        self.expect(&Tok::RBracket)?;
        if selector.is_empty() {
            return Err(self.err("message has no selector".into()));
        }
        Ok(Expr::Event(EventExpr::MessageEvent {
            receiver,
            selector,
            args,
            kind,
        }))
    }

    fn parse_arg_patterns(&mut self) -> Result<Vec<ArgPattern>, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if *self.peek() != Tok::RParen {
            args.push(self.parse_val()?);
            while *self.peek() == Tok::Comma {
                self.bump();
                args.push(self.parse_val()?);
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(args)
    }

    /// val := ANY(type) | flags(F|G) | bitmask(F|G) | int | NULL |
    ///        named-constant | variable | &variable
    fn parse_val(&mut self) -> Result<ArgPattern, ParseError> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(ArgPattern::Const(Value::from_i64(v)))
            }
            Tok::Amp => {
                self.bump();
                let name = self.expect_ident()?;
                let index = self.var_index(&name);
                Ok(ArgPattern::OutParam { index, name })
            }
            Tok::Ident(id) => match id.as_str() {
                "ANY" | "any" => {
                    self.bump();
                    self.expect(&Tok::LParen)?;
                    let type_name = self.expect_ident()?;
                    self.expect(&Tok::RParen)?;
                    Ok(ArgPattern::Any { type_name })
                }
                "flags" | "bitmask" => {
                    self.bump();
                    self.expect(&Tok::LParen)?;
                    let bits = self.parse_flag_bits()?;
                    self.expect(&Tok::RParen)?;
                    Ok(if id == "flags" {
                        ArgPattern::Flags(bits)
                    } else {
                        ArgPattern::Bitmask(bits)
                    })
                }
                "NULL" => {
                    self.bump();
                    Ok(ArgPattern::Const(Value::NULL))
                }
                _ => {
                    self.bump();
                    if let Some(v) = self.consts.get(&id) {
                        Ok(ArgPattern::Const(Value(*v)))
                    } else if *self.peek() == Tok::LParen && *self.peek2() == Tok::RParen {
                        Err(self.err(format!("`{id}()` is not a valid argument pattern")))
                    } else {
                        let index = self.var_index(&id);
                        Ok(ArgPattern::Var { index, name: id })
                    }
                }
            },
            other => Err(self.err(format!("expected value pattern, found {other}"))),
        }
    }

    /// `F | G | 0x40` — an OR of named constants and literals.
    fn parse_flag_bits(&mut self) -> Result<u64, ParseError> {
        let mut bits = self.parse_one_flag()?;
        while *self.peek() == Tok::Pipe {
            self.bump();
            bits |= self.parse_one_flag()?;
        }
        Ok(bits)
    }

    fn parse_one_flag(&mut self) -> Result<u64, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(v as u64),
            Tok::Ident(id) => self
                .consts
                .get(&id)
                .copied()
                .ok_or_else(|| self.err(format!("unknown flag constant `{id}`"))),
            other => Err(self.err(format!("expected flag constant, found {other}"))),
        }
    }
}

fn seq_or_single(mut es: Vec<Expr>) -> Expr {
    if es.len() == 1 {
        es.pop().unwrap()
    } else {
        Expr::Sequence(es)
    }
}

/// Parse a complete `TESLA_*` assertion with an empty constant table.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse_assertion(src: &str) -> Result<Assertion, ParseError> {
    parse_assertion_with_consts(src, &HashMap::new())
}

/// Parse a complete assertion, resolving named constants (C `#define`s
/// such as `IO_NOMACCHECK`) through `consts`.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or unknown flag constants.
pub fn parse_assertion_with_consts(
    src: &str,
    consts: &HashMap<String, u64>,
) -> Result<Assertion, ParseError> {
    let mut p = Parser::new(src, consts)?;
    let mut a = p.parse_assertion()?;
    if a.name.is_empty() {
        a.name = format!("assertion@{}", a.loc);
    }
    Ok(a)
}

/// Parse a bare TESLA expression (no `TESLA_*` wrapper); used by tests
/// and by the analyser for sub-expressions.
///
/// Returns the expression and the variable table it references.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse_expr(
    src: &str,
    consts: &HashMap<String, u64>,
) -> Result<(Expr, Vec<String>), ParseError> {
    let mut p = Parser::new(src, consts)?;
    let e = p.parse_expr()?;
    if *p.peek() != Tok::Eof {
        return Err(p.err(format!("trailing input: {}", p.peek())));
    }
    Ok((e, p.vars))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure_1() {
        let a = parse_assertion(
            "TESLA_WITHIN(enclosing_fn, previously(\
                 security_check(ANY(ptr), o, op) == 0))",
        )
        .unwrap();
        assert_eq!(a.context, Context::PerThread);
        assert_eq!(a.bounds, Bounds::within("enclosing_fn"));
        assert_eq!(a.variables, vec!["o".to_string(), "op".to_string()]);
        assert!(a.validate().is_ok());
        // previously(x) = TSEQUENCE(x, SITE)
        match &a.expr {
            Expr::Sequence(es) => {
                assert_eq!(es.len(), 2);
                assert_eq!(es[1], Expr::AssertionSite);
                match &es[0] {
                    Expr::Event(EventExpr::FunctionEvent { name, args, kind }) => {
                        assert_eq!(name, "security_check");
                        assert_eq!(args.len(), 3);
                        assert_eq!(args[0], ArgPattern::any_ptr());
                        assert_eq!(*kind, CallKind::ExitWithReturn(ArgPattern::Const(Value(0))));
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
            other => panic!("unexpected expr {other:?}"),
        }
    }

    #[test]
    fn parses_figure_4_syscall_previously() {
        let a = parse_assertion(
            "TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(active_cred, so) == 0)",
        )
        .unwrap();
        assert_eq!(a.bounds, Bounds::within(SYSCALL_BOUND_FN));
        assert_eq!(
            a.variables,
            vec!["active_cred".to_string(), "so".to_string()]
        );
    }

    #[test]
    fn parses_figure_6_evp_verify() {
        let a = parse_assertion(
            "TESLA_WITHIN(main, previously(\
               EVP_VerifyFinal(ANY(ptr), ANY(ptr), ANY(int), ANY(ptr)) == 1))",
        )
        .unwrap();
        assert!(a.variables.is_empty());
        let mut names = Vec::new();
        a.expr.for_each_event(&mut |e| {
            if let EventExpr::FunctionEvent { name, .. } = e {
                names.push(name.clone());
            }
        });
        assert_eq!(names, vec!["EVP_VerifyFinal"]);
    }

    #[test]
    fn parses_figure_7_ufs_open_disjunction() {
        let a = parse_assertion(
            "TESLA_SYSCALL_PREVIOUSLY(
               mac_kld_check_load(ANY(ptr), vp) == 0
               || mac_vnode_check_exec(ANY(ptr), vp) == 0
               || mac_vnode_check_open(ANY(ptr), vp, ANY(int)) == 0)",
        )
        .unwrap();
        // previously(x || y || z): the OR is under a sequence.
        match &a.expr {
            Expr::Sequence(es) => match &es[0] {
                Expr::Bool {
                    op: BoolOp::Or,
                    exprs,
                } => assert_eq!(exprs.len(), 3),
                other => panic!("expected OR, got {other:?}"),
            },
            other => panic!("expected sequence, got {other:?}"),
        }
        assert_eq!(a.variables, vec!["vp".to_string()]);
    }

    #[test]
    fn parses_figure_7_ffs_read_with_incallstack_and_flags() {
        let consts: HashMap<String, u64> = [("IO_NOMACCHECK".to_string(), 0x80u64)].into();
        let a = parse_assertion_with_consts(
            "TESLA_SYSCALL(incallstack(ufs_readdir)
               || previously(call(vn_rdwr(vp, flags(IO_NOMACCHECK))))
               || previously(mac_vnode_check_read(ANY(ptr), vp) == 0))",
            &consts,
        )
        .unwrap();
        assert!(a.validate().is_ok());
        match &a.expr {
            Expr::Bool {
                op: BoolOp::Or,
                exprs,
            } => {
                assert_eq!(exprs[0], Expr::InCallStack("ufs_readdir".into()));
                // The flags pattern resolved the named constant.
                let mut found_flags = false;
                exprs[1].for_each_event(&mut |e| {
                    if let EventExpr::FunctionEvent { args, .. } = e {
                        found_flags |= args.contains(&ArgPattern::Flags(0x80));
                    }
                });
                assert!(found_flags);
            }
            other => panic!("expected OR, got {other:?}"),
        }
    }

    #[test]
    fn parses_figure_8_message_events() {
        let a = parse_assertion(
            "TESLA_WITHIN(startDrawing, previously(ATLEAST(0,
               [ANY(id) push],
               [ANY(id) pop],
               [ANY(id) drawWithFrame: ANY(NSRect) inView: ANY(id)],
               returnfrom([ANY(id) restoreGraphicsState]))))",
        )
        .unwrap();
        let mut selectors = Vec::new();
        a.expr.for_each_event(&mut |e| {
            if let EventExpr::MessageEvent { selector, kind, .. } = e {
                selectors.push((selector.clone(), kind.clone()));
            }
        });
        assert_eq!(selectors.len(), 4);
        assert_eq!(selectors[0], ("push".to_string(), CallKind::Entry));
        assert_eq!(selectors[2].0, "drawWithFrame:inView:");
        assert_eq!(
            selectors[3],
            ("restoreGraphicsState".to_string(), CallKind::Exit)
        );
    }

    #[test]
    fn parses_global_and_assert_forms() {
        let a =
            parse_assertion("TESLA_GLOBAL(call(start), returnfrom(stop), eventually(audit(x)))")
                .unwrap();
        assert_eq!(a.context, Context::Global);
        assert_eq!(a.bounds.start, StaticEvent::Call("start".into()));
        assert_eq!(a.bounds.end, StaticEvent::ReturnFrom("stop".into()));

        let b =
            parse_assertion("TESLA_ASSERT(global, call(a), returnfrom(b), TSEQUENCE(f(), g()))")
                .unwrap();
        assert_eq!(b.context, Context::Global);
        match &b.expr {
            Expr::Sequence(es) => assert_eq!(es.len(), 2),
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn parses_field_assignment_forms() {
        // Typed form.
        let (e, vars) = parse_expr("socket(so).so_qstate = 5", &HashMap::new()).unwrap();
        match e {
            Expr::Event(EventExpr::FieldAssignEvent {
                struct_name,
                field_name,
                op,
                value,
                ..
            }) => {
                assert_eq!(struct_name, "socket");
                assert_eq!(field_name, "so_qstate");
                assert_eq!(op, FieldOp::Assign);
                assert_eq!(value, ArgPattern::Const(Value(5)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(vars, vec!["so".to_string()]);

        // Untyped form with increment.
        let (e, _) = parse_expr("s.refcount++", &HashMap::new()).unwrap();
        match e {
            Expr::Event(EventExpr::FieldAssignEvent {
                struct_name,
                op,
                value,
                ..
            }) => {
                assert!(struct_name.is_empty());
                assert_eq!(op, FieldOp::AddAssign);
                assert_eq!(value, ArgPattern::Const(Value(1)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_compound_field_ops() {
        for (src, op) in [
            ("s.f += 2", FieldOp::AddAssign),
            ("s.f -= 2", FieldOp::SubAssign),
            ("s.f |= 2", FieldOp::OrAssign),
            ("s.f &= 2", FieldOp::AndAssign),
        ] {
            let (e, _) = parse_expr(src, &HashMap::new()).unwrap();
            match e {
                Expr::Event(EventExpr::FieldAssignEvent { op: got, .. }) => assert_eq!(got, op),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn parses_modifiers_and_xor() {
        let (e, _) = parse_expr("strict(a() ^ b())", &HashMap::new()).unwrap();
        match e {
            Expr::Modified {
                modifier: Modifier::Strict,
                expr,
            } => match *expr {
                Expr::Bool {
                    op: BoolOp::Xor,
                    ref exprs,
                } => assert_eq!(exprs.len(), 2),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        for m in ["optional", "callee", "caller", "conditional"] {
            let (e, _) = parse_expr(&format!("{m}(f())"), &HashMap::new()).unwrap();
            assert!(matches!(e, Expr::Modified { .. }));
        }
    }

    #[test]
    fn xor_binds_tighter_than_or() {
        let (e, _) = parse_expr("a() || b() ^ c()", &HashMap::new()).unwrap();
        match e {
            Expr::Bool {
                op: BoolOp::Or,
                exprs,
            } => {
                assert_eq!(exprs.len(), 2);
                assert!(matches!(
                    &exprs[1],
                    Expr::Bool {
                        op: BoolOp::Xor,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_out_params_and_negative_and_hex() {
        let (e, vars) = parse_expr("f(&err, -1, 0x40) == 0", &HashMap::new()).unwrap();
        assert_eq!(vars, vec!["err".to_string()]);
        match e {
            Expr::Event(EventExpr::FunctionEvent { args, .. }) => {
                assert_eq!(
                    args[0],
                    ArgPattern::OutParam {
                        index: 0,
                        name: "err".into()
                    }
                );
                assert_eq!(args[1], ArgPattern::Const(Value::from_i64(-1)));
                assert_eq!(args[2], ArgPattern::Const(Value(0x40)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shared_variables_get_one_index() {
        let a = parse_assertion("TESLA_WITHIN(f, previously(check(x, y) == 0 || other(x) == 0))")
            .unwrap();
        assert_eq!(a.variables, vec!["x".to_string(), "y".to_string()]);
        let mut xs = Vec::new();
        a.expr.for_each_event(&mut |e| {
            if let EventExpr::FunctionEvent { args, .. } = e {
                for arg in args {
                    if let ArgPattern::Var { index, name } = arg {
                        if name == "x" {
                            xs.push(*index);
                        }
                    }
                }
            }
        });
        assert_eq!(xs, vec![0, 0]);
    }

    #[test]
    fn comments_are_skipped() {
        let a = parse_assertion("TESLA_WITHIN(f, /* inline */ previously(g() == 0)) // trailing")
            .unwrap();
        assert_eq!(a.bounds.start.function(), "f");
    }

    #[test]
    fn errors_are_reported_with_offsets() {
        let e = parse_assertion("TESLA_WITHIN(f previously(g() == 0))").unwrap_err();
        assert!(e.offset > 0);
        assert!(e.message.contains("expected"));

        assert!(parse_assertion("TESLA_BOGUS(f, g())").is_err());
        assert!(parse_assertion("TESLA_WITHIN(f, )").is_err());
        assert!(parse_expr("flags(UNKNOWN_CONST)", &HashMap::new()).is_err());
        assert!(parse_expr("f(", &HashMap::new()).is_err());
        assert!(parse_expr("[x]", &HashMap::new()).is_err());
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(parse_assertion("TESLA_WITHIN(f, /* oops").is_err());
    }

    #[test]
    fn named_constants_resolve_in_argument_position() {
        let consts: HashMap<String, u64> = [("O_RDONLY".to_string(), 0u64)].into();
        let (e, vars) = parse_expr("open_check(vp, O_RDONLY) == 0", &consts).unwrap();
        assert_eq!(vars, vec!["vp".to_string()]);
        match e {
            Expr::Event(EventExpr::FunctionEvent { args, .. }) => {
                assert_eq!(args[1], ArgPattern::Const(Value(0)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bare_call_means_call_and_return() {
        let (e, _) = parse_expr("f(x)", &HashMap::new()).unwrap();
        match e {
            Expr::Event(EventExpr::FunctionEvent { kind, .. }) => {
                assert_eq!(kind, CallKind::Exit)
            }
            other => panic!("unexpected {other:?}"),
        }
        let (e, _) = parse_expr("call(f(x))", &HashMap::new()).unwrap();
        match e {
            Expr::Event(EventExpr::FunctionEvent { kind, .. }) => {
                assert_eq!(kind, CallKind::Entry)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_range_integer_literals_are_positioned_errors() {
        // Literals at the edges of the range keep their values.
        let ints: Vec<Tok> = lex(
            "9223372036854775807 -9223372036854775808 0xffffffffffffffff -0 \
             18446744073709551615",
        )
        .unwrap()
        .into_iter()
        .map(|(t, _)| t)
        .collect();
        assert_eq!(
            ints,
            [
                Tok::Int(i64::MAX),
                Tok::Int(i64::MIN),
                Tok::Int(-1),
                Tok::Int(0),
                Tok::Int(-1),
                Tok::Eof
            ]
        );
        for (src, offset) in [
            ("f(99999999999999999999)", 2),
            ("x == 0x10000000000000000", 5),
            ("(-9223372036854775809)", 1),
        ] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.offset, offset, "{src}");
            assert_eq!(err.message, "integer literal out of range");
        }
        assert!(
            parse_assertion("TESLA_WITHIN(f, previously(g(99999999999999999999) == 0))").is_err()
        );
    }

    #[test]
    fn deep_nesting_is_a_positioned_error() {
        let nested = |levels: usize| {
            format!(
                "TESLA_WITHIN(f, previously({}g(){}))",
                "TSEQUENCE(".repeat(levels),
                ")".repeat(levels)
            )
        };
        // `previously(…)` is level 1 and its argument level 2, so
        // MAX_DEPTH - 2 sequences fit, the call in them at the bound.
        assert!(parse_assertion(&nested(MAX_DEPTH - 2)).is_ok());
        let err = parse_assertion(&nested(100_000)).unwrap_err();
        assert_eq!(
            err.message,
            format!("expression nested deeper than {MAX_DEPTH} levels")
        );
        // At the sequence that would be level MAX_DEPTH + 1.
        let first = "TESLA_WITHIN(f, previously(".len();
        assert_eq!(err.offset, first + (MAX_DEPTH - 1) * "TSEQUENCE(".len());
        // Modifiers nest through the same rule.
        let modifiers = format!("{}g(){}", "strict(".repeat(100_000), ")".repeat(100_000));
        assert_eq!(
            parse_expr(&modifiers, &HashMap::new()).unwrap_err().offset,
            MAX_DEPTH * "strict(".len()
        );
    }
}
