//! Generic scenario timeline steps — the shared vocabulary between
//! the declarative YAML scenario format (`tesla scenario`) and the
//! per-substrate timeline adapters.
//!
//! A scenario timeline is a list of [`Step`]s: an operation name plus
//! a bag of named arguments, optionally stamped with a logical time
//! and a thread id. The YAML loader (in the `tesla` umbrella crate)
//! produces steps; each simulator crate exposes an adapter that
//! interprets the ops it understands; and this module provides the
//! one adapter that belongs to the runtime itself — the *spec* runner,
//! which lowers steps straight to [`IngressEvent`]s so a scenario can
//! drive any registered automaton through the normal ingestion path.
//!
//! Steps stay stringly-typed on purpose: the fuzzer mutates timelines
//! generically (swap/drop/dup/retime, value perturbation) without
//! knowing what any op means, and adapters re-validate on every run,
//! so a mutated timeline can never construct an unrepresentable step
//! — it can only earn a step error, which is itself a scenario
//! verdict.

use crate::ingress::IngressEvent;
use tesla_spec::{FieldOp, Value};

/// A scenario argument value: the subset of YAML scalars/lists the
/// timeline format supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// An integer (YAML bare number).
    Int(i64),
    /// A string (bare word or quoted).
    Str(String),
    /// A boolean (`true` / `false`).
    Bool(bool),
    /// A list of values (inline `[a, b]` or block list).
    List(Vec<ArgValue>),
}

impl ArgValue {
    /// The integer value, if this is an [`ArgValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ArgValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is an [`ArgValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ArgValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is an [`ArgValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ArgValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an [`ArgValue::List`].
    pub fn as_list(&self) -> Option<&[ArgValue]> {
        match self {
            ArgValue::List(items) => Some(items),
            _ => None,
        }
    }
}

/// One timeline entry: an operation with named arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Logical timestamp; timelines are stably sorted by it before
    /// execution, so a missing `at` means "in written order".
    pub at: Option<u64>,
    /// Logical thread id (adapters may use it to multiplex actors;
    /// the spec runner ignores it — ingestion is single-source).
    pub thread: Option<u64>,
    /// Operation name, interpreted by the selected runner.
    pub op: String,
    /// Named arguments in written order (order is preserved so
    /// saved/mutated scenarios serialise deterministically).
    pub args: Vec<(String, ArgValue)>,
}

impl Step {
    /// A step with no arguments.
    pub fn new(op: &str) -> Step {
        Step {
            at: None,
            thread: None,
            op: op.to_string(),
            args: Vec::new(),
        }
    }

    /// Builder: append an argument.
    pub fn with(mut self, name: &str, value: ArgValue) -> Step {
        self.args.push((name.to_string(), value));
        self
    }

    /// Look up an argument by name (first match wins).
    pub fn arg(&self, name: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// A required integer argument.
    pub fn int(&self, name: &str) -> Result<i64, String> {
        self.arg(name)
            .and_then(ArgValue::as_int)
            .ok_or_else(|| format!("op `{}`: missing integer arg `{name}`", self.op))
    }

    /// An optional integer argument with a default.
    pub fn int_or(&self, name: &str, default: i64) -> Result<i64, String> {
        match self.arg(name) {
            None => Ok(default),
            Some(v) => v
                .as_int()
                .ok_or_else(|| format!("op `{}`: arg `{name}` must be an integer", self.op)),
        }
    }

    /// A required string argument.
    pub fn str_arg(&self, name: &str) -> Result<&str, String> {
        self.arg(name)
            .and_then(ArgValue::as_str)
            .ok_or_else(|| format!("op `{}`: missing string arg `{name}`", self.op))
    }

    /// An optional string argument with a default.
    pub fn str_or<'a>(&'a self, name: &str, default: &'a str) -> Result<&'a str, String> {
        match self.arg(name) {
            None => Ok(default),
            Some(v) => v
                .as_str()
                .ok_or_else(|| format!("op `{}`: arg `{name}` must be a string", self.op)),
        }
    }

    /// An optional boolean argument with a default.
    pub fn bool_or(&self, name: &str, default: bool) -> Result<bool, String> {
        match self.arg(name) {
            None => Ok(default),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| format!("op `{}`: arg `{name}` must be a boolean", self.op)),
        }
    }

    /// An optional integer-list argument (defaults to empty). Used
    /// for hook argument vectors.
    pub fn int_list(&self, name: &str) -> Result<Vec<i64>, String> {
        match self.arg(name) {
            None => Ok(Vec::new()),
            Some(ArgValue::List(items)) => items
                .iter()
                .map(|v| {
                    v.as_int().ok_or_else(|| {
                        format!("op `{}`: arg `{name}` must be a list of integers", self.op)
                    })
                })
                .collect(),
            Some(_) => Err(format!(
                "op `{}`: arg `{name}` must be a list of integers",
                self.op
            )),
        }
    }
}

fn values(ints: &[i64]) -> Vec<Value> {
    ints.iter().copied().map(Value::from_i64).collect()
}

fn parse_field_op(s: &str) -> Result<FieldOp, String> {
    FieldOp::from_label(s)
        .ok_or_else(|| format!("unknown field op `{s}` (expected =, +=, -=, |= or &=)"))
}

/// The *spec* runner's adapter: lower one timeline step to the wire
/// event it denotes. Ops mirror [`IngressEvent`]'s `kind_label`s:
///
/// | op            | arguments                                             |
/// |---------------|-------------------------------------------------------|
/// | `fn_entry`    | `fn` (str), `args` (int list)                         |
/// | `fn_exit`     | `fn`, `args`, `ret` (int, default 0)                  |
/// | `field_store` | `struct`, `field`, `object` (int), `op` (default `=`),`value` |
/// | `msg_entry`   | `selector`, `receiver` (int), `args`                  |
/// | `msg_exit`    | `selector`, `receiver`, `args`, `ret` (default 0)     |
/// | `site`        | `class` (int), `values` (int list)                    |
///
/// # Errors
///
/// A description of the first missing or ill-typed argument.
pub fn step_to_event(step: &Step) -> Result<IngressEvent, String> {
    match step.op.as_str() {
        "fn_entry" => Ok(IngressEvent::FnEntry {
            name: step.str_arg("fn")?.to_string(),
            args: values(&step.int_list("args")?),
        }),
        "fn_exit" => Ok(IngressEvent::FnExit {
            name: step.str_arg("fn")?.to_string(),
            args: values(&step.int_list("args")?),
            ret: Value::from_i64(step.int_or("ret", 0)?),
        }),
        "field_store" => Ok(IngressEvent::FieldStore {
            strct: step.str_arg("struct")?.to_string(),
            field: step.str_arg("field")?.to_string(),
            object: Value::from_i64(step.int_or("object", 0)?),
            op: parse_field_op(step.str_or("op", "=")?)?,
            value: Value::from_i64(step.int_or("value", 0)?),
        }),
        "msg_entry" => Ok(IngressEvent::MsgEntry {
            selector: step.str_arg("selector")?.to_string(),
            receiver: Value::from_i64(step.int_or("receiver", 0)?),
            args: values(&step.int_list("args")?),
        }),
        "msg_exit" => Ok(IngressEvent::MsgExit {
            selector: step.str_arg("selector")?.to_string(),
            receiver: Value::from_i64(step.int_or("receiver", 0)?),
            args: values(&step.int_list("args")?),
            ret: Value::from_i64(step.int_or("ret", 0)?),
        }),
        "site" => {
            let class = step.int("class")?;
            let class = u32::try_from(class)
                .map_err(|_| format!("op `site`: class {class} out of range"))?;
            Ok(IngressEvent::AssertionSite {
                class,
                values: values(&step.int_list("values")?),
            })
        }
        other => Err(format!(
            "unknown spec-runner op `{other}` (expected fn_entry, fn_exit, \
             field_store, msg_entry, msg_exit or site)"
        )),
    }
}

/// Stably sort a timeline by its `at` stamps. Steps without a stamp
/// keep their written position relative to stamped neighbours with
/// equal times — the sort is stable, and unstamped steps inherit the
/// previous stamped time (or 0), so interleaving mutations that only
/// touch `at` reorder exactly the stamped steps.
pub fn sort_timeline(steps: &mut [Step]) {
    let mut keyed: Vec<(u64, Step)> = Vec::with_capacity(steps.len());
    let mut last = 0u64;
    for s in steps.iter() {
        if let Some(at) = s.at {
            last = at;
        }
        keyed.push((last, s.clone()));
    }
    keyed.sort_by_key(|(t, _)| *t);
    for (slot, (_, s)) in steps.iter_mut().zip(keyed) {
        *slot = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_args_typed_access() {
        let s = Step::new("fn_entry")
            .with("fn", ArgValue::Str("main".into()))
            .with("args", ArgValue::List(vec![ArgValue::Int(7)]))
            .with("deep", ArgValue::Bool(true));
        assert_eq!(s.str_arg("fn").unwrap(), "main");
        assert_eq!(s.int_list("args").unwrap(), vec![7]);
        assert!(s.bool_or("deep", false).unwrap());
        assert_eq!(s.int_or("ret", 3).unwrap(), 3);
        assert!(s.int("missing").is_err());
        assert!(s.str_arg("args").is_err());
    }

    #[test]
    fn spec_ops_lower_to_events() {
        let e = step_to_event(
            &Step::new("fn_exit")
                .with("fn", ArgValue::Str("f".into()))
                .with("ret", ArgValue::Int(-1)),
        )
        .unwrap();
        assert_eq!(
            e,
            IngressEvent::FnExit {
                name: "f".into(),
                args: vec![],
                ret: Value::from_i64(-1),
            }
        );
        let e = step_to_event(
            &Step::new("field_store")
                .with("struct", ArgValue::Str("proc".into()))
                .with("field", ArgValue::Str("p_flag".into()))
                .with("op", ArgValue::Str("|=".into()))
                .with("value", ArgValue::Int(4)),
        )
        .unwrap();
        assert_eq!(
            e,
            IngressEvent::FieldStore {
                strct: "proc".into(),
                field: "p_flag".into(),
                object: Value::NULL,
                op: FieldOp::OrAssign,
                value: Value(4),
            }
        );
        assert!(step_to_event(&Step::new("bogus")).is_err());
        assert!(step_to_event(&Step::new("site")).is_err());
    }

    #[test]
    fn timeline_sort_is_stable_and_inherits_stamps() {
        let mk = |op: &str, at: Option<u64>| {
            let mut s = Step::new(op);
            s.at = at;
            s
        };
        let mut tl = vec![
            mk("a", Some(5)),
            mk("b", None), // inherits 5
            mk("c", Some(1)),
            mk("d", None), // inherits 1
        ];
        sort_timeline(&mut tl);
        let ops: Vec<&str> = tl.iter().map(|s| s.op.as_str()).collect();
        assert_eq!(ops, vec!["c", "d", "a", "b"]);
    }
}
