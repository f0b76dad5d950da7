//! The versioned JSONL trace schema (`tesla_trace` version 1).
//!
//! A trace is a UTF-8 text stream, one JSON object per line:
//!
//! * The **first** non-blank line is the header
//!   `{"tesla_trace":1}`. A stream without it — or with a version
//!   this build does not speak — is rejected before any event is
//!   dispatched ([`crate::input::check_header`]).
//! * Every following non-blank line is one event, discriminated by
//!   its `"ev"` field:
//!
//! ```text
//! {"ev":"fn_entry","fn":"EVP_VerifyFinal","args":[7,1]}
//! {"ev":"fn_exit","fn":"EVP_VerifyFinal","args":[7,1],"ret":1}
//! {"ev":"field_store","struct":"conn","field":"state","obj":7,"op":"=","val":2}
//! {"ev":"msg_entry","sel":"lockFocus","recv":3,"args":[]}
//! {"ev":"msg_exit","sel":"lockFocus","recv":3,"args":[],"ret":0}
//! {"ev":"site","class":0,"vals":[7]}
//! ```
//!
//! All values are unsigned 64-bit integers (the runtime's [`Value`]
//! domain). Unknown *fields* are ignored for forward compatibility;
//! unknown `"ev"` labels, missing required fields, and out-of-domain
//! values are malformed. Blank lines are permitted and skipped.
//! Versioning rule: additions that old readers can safely ignore
//! (new optional fields) do not bump the version; anything a version-1
//! reader would misinterpret (new event kinds, changed field
//! meanings) must.
//!
//! The writer ([`TraceWriter`]) emits names through the same
//! hardened escaper as the telemetry exporters, so traces stay
//! parseable for arbitrary interned names.
//!
//! Two decoders read an event line. [`parse_event`] builds a [`Json`]
//! tree and reads the schema from it; it is authoritative, and its
//! verdict and error text are the ones reported. [`parse_event_ref`]
//! — behind `LineDecoder::next_event_ref`, batched `Tesla::drive`,
//! `tesla replay` and `tesla attach` — first runs a single-pass
//! scanner that borrows from the line. The scanner handles lines
//! whose strings hold no escape and whose numbers are plain digits:
//! it matches keys, the `ev` label and `op` on slices of the line and
//! copies each name into its scratch once. Every other line, every
//! escape included, goes to the tree path. Both decoders are linear
//! in line length.

use crate::ingress::event::{IngressEvent, IngressEventRef};
use crate::ingress::json::{Json, Parser};
use crate::telemetry::export::json_escape;
use std::io::Write;
use tesla_automata::fnv1a;
use tesla_spec::{FieldOp, Value};

/// The schema version this build reads and writes.
pub const TRACE_VERSION: u32 = 1;

/// The header line starting every version-1 trace (no trailing
/// newline).
pub const TRACE_HEADER: &str = "{\"tesla_trace\":1}";

fn values_json(vs: &[Value]) -> String {
    let items: Vec<String> = vs.iter().map(|v| v.0.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Render one event as its single-line wire form (no trailing
/// newline).
pub fn format_event(ev: &IngressEventRef<'_>) -> String {
    match *ev {
        IngressEventRef::FnEntry { name, args } => format!(
            "{{\"ev\":\"fn_entry\",\"fn\":\"{}\",\"args\":{}}}",
            json_escape(name),
            values_json(args)
        ),
        IngressEventRef::FnExit { name, args, ret } => format!(
            "{{\"ev\":\"fn_exit\",\"fn\":\"{}\",\"args\":{},\"ret\":{}}}",
            json_escape(name),
            values_json(args),
            ret.0
        ),
        IngressEventRef::FieldStore {
            strct,
            field,
            object,
            op,
            value,
        } => format!(
            "{{\"ev\":\"field_store\",\"struct\":\"{}\",\"field\":\"{}\",\
             \"obj\":{},\"op\":\"{}\",\"val\":{}}}",
            json_escape(strct),
            json_escape(field),
            object.0,
            op.label(),
            value.0
        ),
        IngressEventRef::MsgEntry {
            selector,
            receiver,
            args,
        } => format!(
            "{{\"ev\":\"msg_entry\",\"sel\":\"{}\",\"recv\":{},\"args\":{}}}",
            json_escape(selector),
            receiver.0,
            values_json(args)
        ),
        IngressEventRef::MsgExit {
            selector,
            receiver,
            args,
            ret,
        } => format!(
            "{{\"ev\":\"msg_exit\",\"sel\":\"{}\",\"recv\":{},\"args\":{},\"ret\":{}}}",
            json_escape(selector),
            receiver.0,
            values_json(args),
            ret.0
        ),
        IngressEventRef::AssertionSite { class, values } => format!(
            "{{\"ev\":\"site\",\"class\":{},\"vals\":{}}}",
            class,
            values_json(values)
        ),
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

fn value_field(obj: &Json, key: &str) -> Result<Value, String> {
    field(obj, key)?
        .as_u64()
        .map(Value)
        .ok_or_else(|| format!("field {key:?} must be an unsigned integer"))
}

fn values_field(obj: &Json, key: &str) -> Result<Vec<Value>, String> {
    let arr = field(obj, key)?
        .as_array()
        .ok_or_else(|| format!("field {key:?} must be an array"))?;
    arr.iter()
        .map(|v| {
            v.as_u64()
                .map(Value)
                .ok_or_else(|| format!("field {key:?} must contain unsigned integers"))
        })
        .collect()
}

/// Parse one event line. The error is the *reason*; the transport
/// layer wraps it with line/offset position.
pub fn parse_event(line: &str) -> Result<IngressEvent, String> {
    let obj = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if obj.as_object().is_none() {
        return Err("event must be a JSON object".to_string());
    }
    let ev = str_field(&obj, "ev")?;
    match ev.as_str() {
        "fn_entry" => Ok(IngressEvent::FnEntry {
            name: str_field(&obj, "fn")?,
            args: values_field(&obj, "args")?,
        }),
        "fn_exit" => Ok(IngressEvent::FnExit {
            name: str_field(&obj, "fn")?,
            args: values_field(&obj, "args")?,
            ret: value_field(&obj, "ret")?,
        }),
        "field_store" => {
            let op_s = str_field(&obj, "op")?;
            let op = FieldOp::from_label(&op_s).ok_or_else(|| {
                format!("unknown field operator {op_s:?} (want =, +=, -=, |=, &=)")
            })?;
            Ok(IngressEvent::FieldStore {
                strct: str_field(&obj, "struct")?,
                field: str_field(&obj, "field")?,
                object: value_field(&obj, "obj")?,
                op,
                value: value_field(&obj, "val")?,
            })
        }
        "msg_entry" => Ok(IngressEvent::MsgEntry {
            selector: str_field(&obj, "sel")?,
            receiver: value_field(&obj, "recv")?,
            args: values_field(&obj, "args")?,
        }),
        "msg_exit" => Ok(IngressEvent::MsgExit {
            selector: str_field(&obj, "sel")?,
            receiver: value_field(&obj, "recv")?,
            args: values_field(&obj, "args")?,
            ret: value_field(&obj, "ret")?,
        }),
        "site" => {
            let class = field(&obj, "class")?
                .as_u64()
                .and_then(|c| u32::try_from(c).ok())
                .ok_or_else(|| "field \"class\" must be a u32".to_string())?;
            Ok(IngressEvent::AssertionSite {
                class,
                values: values_field(&obj, "vals")?,
            })
        }
        other => Err(format!("unknown event kind {other:?}")),
    }
}

/// The event shape held by an [`EventScratch`] after a successful
/// decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    FnEntry,
    FnExit,
    FieldStore,
    MsgEntry,
    MsgExit,
    Site,
}

// One bit per known wire field, for duplicate detection and the
// per-kind required/allowed masks.
const B_EV: u32 = 1 << 0;
const B_FN: u32 = 1 << 1;
const B_SEL: u32 = 1 << 2;
const B_STRUCT: u32 = 1 << 3;
const B_FIELD: u32 = 1 << 4;
const B_ARGS: u32 = 1 << 5;
const B_VALS: u32 = 1 << 6;
const B_RET: u32 = 1 << 7;
const B_OBJ: u32 = 1 << 8;
const B_RECV: u32 = 1 << 9;
const B_VAL: u32 = 1 << 10;
const B_OP: u32 = 1 << 11;
const B_CLASS: u32 = 1 << 12;

fn scan_values(p: &mut Parser<'_>, out: &mut Vec<Value>) -> bool {
    out.clear();
    if !p.eat_ok(b'[') {
        return false;
    }
    p.ws();
    if p.eat_ok(b']') {
        return true;
    }
    loop {
        p.ws();
        match p.u64_token() {
            Some(v) => out.push(Value(v)),
            None => return false,
        }
        p.ws();
        if p.eat_ok(b',') {
            continue;
        }
        return p.eat_ok(b']');
    }
}

/// Reusable buffers for the borrowed event decode
/// ([`parse_event_ref`]). One scratch per decoder keeps the replay
/// hot loop free of per-event `String`/`Vec` allocations: names and
/// value lists land in these buffers and are handed out as an
/// [`IngressEventRef`] borrowing them.
#[derive(Debug)]
pub struct EventScratch {
    kind: EvKind,
    /// `fn` / `sel` / `struct` — every kind has at most one of them.
    name: String,
    field: String,
    args: Vec<Value>,
    /// `obj` / `recv`.
    a: Value,
    /// `ret` / `val`.
    b: Value,
    op: FieldOp,
    class: u32,
    /// Hashes of the unknown keys seen so far on this line.
    unknown: Vec<u64>,
}

impl Default for EventScratch {
    fn default() -> EventScratch {
        EventScratch {
            kind: EvKind::FnEntry,
            name: String::new(),
            field: String::new(),
            args: Vec::new(),
            a: Value(0),
            b: Value(0),
            op: FieldOp::Assign,
            class: 0,
            unknown: Vec::new(),
        }
    }
}

impl EventScratch {
    /// Fresh scratch buffers.
    pub fn new() -> EventScratch {
        EventScratch::default()
    }

    /// Single-pass scan of one event line into the scratch buffers.
    /// Returns `false` on *anything* unexpected — malformed JSON,
    /// wrong field types, duplicate keys, schema violations, and any
    /// string with an escape or number that is not plain digits — in
    /// which case the caller re-parses through the [`Json`] tree
    /// path, whose verdict (and error message) is authoritative. The
    /// scanner therefore only has to be exactly right about the
    /// lines it accepts.
    fn scan(&mut self, line: &str) -> bool {
        self.name.clear();
        self.field.clear();
        self.args.clear();
        self.unknown.clear();
        let mut p = Parser::new(line);
        let mut seen = 0u32;
        let mut label = "";
        p.ws();
        if !p.eat_ok(b'{') {
            return false;
        }
        p.ws();
        if !p.eat_ok(b'}') {
            loop {
                p.ws();
                let Some(key) = p.plain_str() else {
                    return false;
                };
                p.ws();
                if !p.eat_ok(b':') {
                    return false;
                }
                p.ws();
                let bit = match key {
                    "ev" => B_EV,
                    "fn" => B_FN,
                    "sel" => B_SEL,
                    "struct" => B_STRUCT,
                    "field" => B_FIELD,
                    "args" => B_ARGS,
                    "vals" => B_VALS,
                    "ret" => B_RET,
                    "obj" => B_OBJ,
                    "recv" => B_RECV,
                    "val" => B_VAL,
                    "op" => B_OP,
                    "class" => B_CLASS,
                    _ => 0,
                };
                if bit != 0 {
                    if seen & bit != 0 {
                        return false;
                    }
                    seen |= bit;
                } else {
                    // Unknown keys are skipped but must still fail
                    // on duplicates (a hash collision merely forces
                    // the fallback, which decides for real).
                    let h = fnv1a(key.as_bytes());
                    if self.unknown.contains(&h) {
                        return false;
                    }
                    self.unknown.push(h);
                }
                // Each known key is seen at most once, so each buffer
                // is filled at most once per line.
                let ok = match bit {
                    B_EV => p.plain_str().map(|s| label = s).is_some(),
                    B_FN | B_SEL | B_STRUCT => {
                        p.plain_str().map(|s| self.name.push_str(s)).is_some()
                    }
                    B_FIELD => p.plain_str().map(|s| self.field.push_str(s)).is_some(),
                    B_OP => p
                        .plain_str()
                        .and_then(FieldOp::from_label)
                        .map(|op| self.op = op)
                        .is_some(),
                    B_ARGS | B_VALS => scan_values(&mut p, &mut self.args),
                    B_OBJ | B_RECV => p.u64_token().map(|v| self.a = Value(v)).is_some(),
                    B_RET | B_VAL => p.u64_token().map(|v| self.b = Value(v)).is_some(),
                    B_CLASS => p
                        .u64_token()
                        .and_then(|v| u32::try_from(v).ok())
                        .map(|c| self.class = c)
                        .is_some(),
                    _ => p.skip_value().is_ok(),
                };
                if !ok {
                    return false;
                }
                p.ws();
                if p.eat_ok(b',') {
                    continue;
                }
                if p.eat_ok(b'}') {
                    break;
                }
                return false;
            }
        }
        p.ws();
        if !p.at_end() || seen & B_EV == 0 {
            return false;
        }
        let (kind, required) = match label {
            "fn_entry" => (EvKind::FnEntry, B_FN | B_ARGS),
            "fn_exit" => (EvKind::FnExit, B_FN | B_ARGS | B_RET),
            "field_store" => (
                EvKind::FieldStore,
                B_STRUCT | B_FIELD | B_OBJ | B_OP | B_VAL,
            ),
            "msg_entry" => (EvKind::MsgEntry, B_SEL | B_RECV | B_ARGS),
            "msg_exit" => (EvKind::MsgExit, B_SEL | B_RECV | B_ARGS | B_RET),
            "site" => (EvKind::Site, B_CLASS | B_VALS),
            _ => return false,
        };
        // Off-schema known keys (e.g. a stray "vals" on fn_entry)
        // share buffers with schema keys, so hand those lines to the
        // fallback, which reads exactly the fields it needs.
        if seen & required != required || seen & !(required | B_EV) != 0 {
            return false;
        }
        self.kind = kind;
        true
    }

    fn fill_from(&mut self, ev: IngressEvent) {
        match ev {
            IngressEvent::FnEntry { name, args } => {
                self.kind = EvKind::FnEntry;
                self.name = name;
                self.args = args;
            }
            IngressEvent::FnExit { name, args, ret } => {
                self.kind = EvKind::FnExit;
                self.name = name;
                self.args = args;
                self.b = ret;
            }
            IngressEvent::FieldStore {
                strct,
                field,
                object,
                op,
                value,
            } => {
                self.kind = EvKind::FieldStore;
                self.name = strct;
                self.field = field;
                self.a = object;
                self.op = op;
                self.b = value;
            }
            IngressEvent::MsgEntry {
                selector,
                receiver,
                args,
            } => {
                self.kind = EvKind::MsgEntry;
                self.name = selector;
                self.a = receiver;
                self.args = args;
            }
            IngressEvent::MsgExit {
                selector,
                receiver,
                args,
                ret,
            } => {
                self.kind = EvKind::MsgExit;
                self.name = selector;
                self.a = receiver;
                self.args = args;
                self.b = ret;
            }
            IngressEvent::AssertionSite { class, values } => {
                self.kind = EvKind::Site;
                self.class = class;
                self.args = values;
            }
        }
    }

    fn as_event_ref(&self) -> IngressEventRef<'_> {
        match self.kind {
            EvKind::FnEntry => IngressEventRef::FnEntry {
                name: &self.name,
                args: &self.args,
            },
            EvKind::FnExit => IngressEventRef::FnExit {
                name: &self.name,
                args: &self.args,
                ret: self.b,
            },
            EvKind::FieldStore => IngressEventRef::FieldStore {
                strct: &self.name,
                field: &self.field,
                object: self.a,
                op: self.op,
                value: self.b,
            },
            EvKind::MsgEntry => IngressEventRef::MsgEntry {
                selector: &self.name,
                receiver: self.a,
                args: &self.args,
            },
            EvKind::MsgExit => IngressEventRef::MsgExit {
                selector: &self.name,
                receiver: self.a,
                args: &self.args,
                ret: self.b,
            },
            EvKind::Site => IngressEventRef::AssertionSite {
                class: self.class,
                values: &self.args,
            },
        }
    }
}

/// [`parse_event`], minus the per-event allocations: on the replay
/// hot path names and value lists are decoded straight into
/// `scratch`'s reused buffers and returned as a borrowing
/// [`IngressEventRef`]. Behaviour is identical to [`parse_event`] —
/// any line the fast scanner is unsure about is re-parsed through
/// the `Json` tree path, so accepted events and error messages
/// match byte for byte.
///
/// # Errors
///
/// Exactly the errors of [`parse_event`].
pub fn parse_event_ref<'s>(
    line: &str,
    scratch: &'s mut EventScratch,
) -> Result<IngressEventRef<'s>, String> {
    if !scratch.scan(line) {
        let owned = parse_event(line)?;
        scratch.fill_from(owned);
    }
    Ok(scratch.as_event_ref())
}

/// Streams events to a [`Write`] in the version-1 wire format. The
/// header is emitted lazily before the first event, so an empty
/// recording still produces a valid (header-only) trace via
/// [`TraceWriter::finish`].
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    wrote_header: bool,
    events: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Wrap a sink.
    pub fn new(w: W) -> TraceWriter<W> {
        TraceWriter {
            w,
            wrote_header: false,
            events: 0,
        }
    }

    fn header(&mut self) -> std::io::Result<()> {
        if !self.wrote_header {
            writeln!(self.w, "{TRACE_HEADER}")?;
            self.wrote_header = true;
        }
        Ok(())
    }

    /// Append one event line.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn record(&mut self, ev: &IngressEventRef<'_>) -> std::io::Result<()> {
        self.header()?;
        writeln!(self.w, "{}", format_event(ev))?;
        self.events += 1;
        Ok(())
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Write the header if nothing was recorded, flush, and hand the
    /// sink back.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.header()?;
        self.w.flush()?;
        Ok(self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: IngressEvent) {
        let line = format_event(&ev.as_ref());
        assert_eq!(parse_event(&line).unwrap(), ev, "line: {line}");
    }

    #[test]
    fn every_kind_roundtrips() {
        roundtrip(IngressEvent::FnEntry {
            name: "malloc".into(),
            args: vec![Value(16)],
        });
        roundtrip(IngressEvent::FnExit {
            name: "malloc".into(),
            args: vec![Value(16)],
            ret: Value(0xdead),
        });
        for op in [
            FieldOp::Assign,
            FieldOp::AddAssign,
            FieldOp::SubAssign,
            FieldOp::OrAssign,
            FieldOp::AndAssign,
        ] {
            roundtrip(IngressEvent::FieldStore {
                strct: "conn".into(),
                field: "state".into(),
                object: Value(7),
                op,
                value: Value(2),
            });
        }
        roundtrip(IngressEvent::MsgEntry {
            selector: "lockFocus".into(),
            receiver: Value(3),
            args: vec![],
        });
        roundtrip(IngressEvent::MsgExit {
            selector: "lockFocus".into(),
            receiver: Value(3),
            args: vec![Value(1), Value(2)],
            ret: Value(0),
        });
        roundtrip(IngressEvent::AssertionSite {
            class: 4,
            values: vec![Value(7), Value(u64::MAX)],
        });
    }

    #[test]
    fn hostile_names_roundtrip() {
        for name in [
            "a\"b",
            "back\\slash",
            "nl\nnl",
            "ctl\x00\x1f",
            "uni\u{2028}",
        ] {
            roundtrip(IngressEvent::FnEntry {
                name: name.into(),
                args: vec![],
            });
        }
    }

    #[test]
    fn malformed_events_are_rejected_with_reasons() {
        for (line, needle) in [
            ("{\"ev\":\"warp\"}", "unknown event kind"),
            ("{\"ev\":\"fn_entry\"}", "missing field \"fn\""),
            ("{\"ev\":\"fn_exit\",\"fn\":\"f\",\"args\":[]}", "ret"),
            (
                "{\"ev\":\"fn_entry\",\"fn\":\"f\",\"args\":[-1]}",
                "unsigned",
            ),
            (
                "{\"ev\":\"field_store\",\"struct\":\"s\",\"field\":\"f\",\
                 \"obj\":1,\"op\":\"**=\",\"val\":2}",
                "unknown field operator",
            ),
            ("[1,2,3]", "must be a JSON object"),
            (
                "{\"ev\":\"fn_entry\",\"fn\":\"f\",\"args\":[",
                "invalid JSON",
            ),
        ] {
            let err = parse_event(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn unknown_fields_are_ignored_for_forward_compat() {
        let ev =
            parse_event("{\"ev\":\"fn_entry\",\"fn\":\"f\",\"args\":[1],\"future_field\":true}")
                .unwrap();
        assert_eq!(
            ev,
            IngressEvent::FnEntry {
                name: "f".into(),
                args: vec![Value(1)],
            }
        );
    }

    #[test]
    fn borrowed_parse_matches_owned() {
        let mut scratch = EventScratch::new();
        let lines = [
            "{\"ev\":\"fn_entry\",\"fn\":\"malloc\",\"args\":[16]}",
            "{\"ev\":\"fn_exit\",\"fn\":\"malloc\",\"args\":[16],\"ret\":57005}",
            "{\"ev\":\"field_store\",\"struct\":\"conn\",\"field\":\"state\",\
             \"obj\":7,\"op\":\"+=\",\"val\":2}",
            "{\"ev\":\"msg_entry\",\"sel\":\"lockFocus\",\"recv\":3,\"args\":[]}",
            "{\"ev\":\"msg_exit\",\"sel\":\"lockFocus\",\"recv\":3,\"args\":[1,2],\"ret\":0}",
            "{\"ev\":\"site\",\"class\":4,\"vals\":[7,18446744073709551615]}",
            // Escapes land in the scratch unescaped.
            "{\"ev\":\"fn_entry\",\"fn\":\"a\\\"b\\\\c\\n\",\"args\":[]}",
            // Unknown fields are skipped without affecting the event.
            "{\"ev\":\"fn_entry\",\"fn\":\"f\",\"args\":[1],\"future\":{\"x\":[true,null]}}",
            // Whitespace and reordered fields.
            " { \"args\" : [ 1 , 2 ] , \"fn\" : \"f\" , \"ev\" : \"fn_entry\" } ",
            // Off-schema known key: scanner defers to the tree path.
            "{\"ev\":\"fn_entry\",\"fn\":\"f\",\"args\":[1],\"vals\":[9]}",
        ];
        for line in lines {
            let owned = parse_event(line).expect(line);
            let borrowed = parse_event_ref(line, &mut scratch).expect(line);
            assert_eq!(borrowed.to_owned_event(), owned, "line: {line}");
        }
        // Malformed lines give byte-identical errors on both paths.
        let bad = [
            "{\"ev\":\"warp\"}",
            "{\"ev\":\"fn_entry\"}",
            "{\"ev\":\"fn_entry\",\"fn\":\"f\",\"args\":[-1]}",
            "{\"ev\":\"fn_entry\",\"fn\":\"f\",\"args\":[",
            "[1,2,3]",
            "{\"ev\":\"fn_entry\",\"fn\":\"f\",\"fn\":\"g\",\"args\":[]}",
            "{\"ev\":\"site\",\"class\":99999999999,\"vals\":[]}",
            // A leading `+` is no JSON number, in any integer slot.
            "{\"ev\":\"fn_entry\",\"fn\":\"f\",\"args\":[+5]}",
            "{\"ev\":\"fn_exit\",\"fn\":\"f\",\"args\":[],\"ret\":+1}",
            "{\"ev\":\"field_store\",\"struct\":\"s\",\"field\":\"f\",\
             \"obj\":+7,\"op\":\"=\",\"val\":2}",
            "{\"ev\":\"field_store\",\"struct\":\"s\",\"field\":\"f\",\
             \"obj\":7,\"op\":\"=\",\"val\":+2}",
            "{\"ev\":\"msg_entry\",\"sel\":\"m\",\"recv\":+3,\"args\":[]}",
            "{\"ev\":\"site\",\"class\":+4,\"vals\":[]}",
            "{\"ev\":\"site\",\"class\":4,\"vals\":[+7]}",
        ];
        for line in bad {
            let e1 = parse_event(line).expect_err(line);
            let e2 = parse_event_ref(line, &mut scratch).expect_err(line);
            assert_eq!(e1, e2, "line: {line}");
        }
    }

    /// Decoding is linear in line length: a 16× longer name costs
    /// well under 64× the time, on the borrowing scanner (plain name)
    /// and on the tree path (a name with an escape) alike. A loop
    /// that re-reads the rest of the line per character would be
    /// about 256×.
    #[test]
    fn decode_time_is_linear_in_name_length() {
        let mut scratch = EventScratch::new();
        for escape in ["", "\\n"] {
            let line = |len: usize| {
                format!(
                    "{{\"ev\":\"fn_entry\",\"fn\":\"{}{escape}\",\"args\":[1]}}",
                    "a".repeat(len)
                )
            };
            let (short, long) = (line(4 << 10), line(64 << 10));
            // Best of three decodes.
            let mut time = |line: &str| {
                (0..3)
                    .map(|_| {
                        let t = std::time::Instant::now();
                        std::hint::black_box(parse_event_ref(line, &mut scratch).expect("decodes"));
                        t.elapsed()
                    })
                    .min()
                    .expect("three runs")
            };
            let (t_short, t_long) = (time(&short), time(&long));
            assert!(
                t_long < t_short * 64,
                "escape {escape:?}: 4 KiB {t_short:?}, 64 KiB {t_long:?}"
            );
        }
    }

    #[test]
    fn writer_emits_header_even_when_empty() {
        let w = TraceWriter::new(Vec::new());
        let bytes = w.finish().unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            format!("{TRACE_HEADER}\n")
        );
    }
}
