//! Differential properties: `Tesla::drive` at every batch size must
//! be observationally identical to the direct hooks.
//!
//! Random event streams (entries, exits — including never-entered
//! names, field stores, message sends, assertion sites — including
//! unknown classes) go once through `Tesla::ingest`, one direct hook
//! call per event (the reference: the path of every instrumented
//! program), and once through `Tesla::drive` at batch sizes 1, 2, 7
//! and 64, under both fail modes and with the governor ticking every
//! event. The drive result, the recorded violation sequence, and the
//! deterministic counter export (`export::json_counters`) must all be
//! byte-identical — a FailStop verdict in the middle of a batch stops
//! at exactly the same event ordinal as the hooks. A second axis pits
//! interpreted NFA stepping against DFA rows: same oracle, same
//! requirement. Debug builds also check every row step against the
//! NFA, so this axis is the check that release builds keep.

use std::sync::Arc;
use tesla_automata::compile;
use tesla_prop::{check, prop_assert_eq, Gen};
use tesla_runtime::ingress::TRACE_HEADER;
use tesla_runtime::telemetry::export::json_counters;
use tesla_runtime::{
    BufferedSource, Config, DriveError, FailMode, GovernorConfig, IngressEvent, IngressStats,
    JsonlSource, NameCache, Tesla, Violation,
};
use tesla_spec::{call, AssertionBuilder, FieldOp, Value};

/// One generated stream step; decoded into an [`IngressEvent`] by
/// [`decode`]. Kept as raw small integers so a stream is a flat
/// tuple vector.
type Op = (u8, u64, u64);

const SEED: u64 = 0xba7c;

const ENTRY_FNS: [&str; 3] = ["req", "check", "other"];
const EXIT_FNS: [&str; 4] = ["req", "check", "other", "ghost"];

fn decode(&(op, a, b): &Op) -> IngressEvent {
    match op % 10 {
        // Scope open: drives init/cleanup and lazy materialisation.
        0 => IngressEvent::FnEntry {
            name: "req".into(),
            args: vec![],
        },
        // The watched call entering and returning 0 (satisfies).
        1 => IngressEvent::FnEntry {
            name: "check".into(),
            args: vec![Value(b)],
        },
        2 => IngressEvent::FnExit {
            name: "check".into(),
            args: vec![Value(b)],
            ret: Value(0),
        },
        // Arbitrary exits; "ghost" was never entered, so resolving it
        // fails — the batched stage must reject at the same ordinal
        // as the per-event unknown-name error.
        3 => IngressEvent::FnExit {
            name: EXIT_FNS[(a % 4) as usize].into(),
            args: vec![Value(b)],
            ret: Value(b),
        },
        4 => IngressEvent::FnEntry {
            name: ENTRY_FNS[(a % 3) as usize].into(),
            args: vec![Value(b)],
        },
        5 => IngressEvent::FieldStore {
            strct: "s".into(),
            field: "f".into(),
            object: Value(a),
            op: FieldOp::Assign,
            value: Value(b),
        },
        6 => IngressEvent::MsgEntry {
            selector: "sel".into(),
            receiver: Value(a),
            args: vec![Value(b)],
        },
        7 => IngressEvent::MsgExit {
            selector: if a % 2 == 0 { "sel" } else { "ghost_sel" }.into(),
            receiver: Value(a),
            args: vec![Value(b)],
            ret: Value(0),
        },
        // Sites against both registered classes; unsatisfied bindings
        // violate (recorded under Log, fail-stop mid-batch otherwise).
        8 => IngressEvent::AssertionSite {
            class: (a % 2) as u32,
            values: vec![Value(b)],
        },
        // Rarely, an unregistered class: hard error in every mode.
        _ => IngressEvent::AssertionSite {
            class: if a == 3 { 7 } else { (a % 2) as u32 },
            values: vec![Value(b)],
        },
    }
}

/// The batch sizes every property drives at.
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 64];

/// How a run delivers its events.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// One `Tesla::ingest` call per event: the reference.
    Ingest,
    /// `Tesla::drive` with this batch size.
    Drive(usize),
}

/// Everything externally observable about one run.
#[derive(Debug, PartialEq)]
struct Outcome {
    drive: Result<IngressStats, DriveError>,
    violations: Vec<Violation>,
    counters: String,
}

/// The reference pump: every event through `Tesla::ingest`, counted
/// into `IngressStats` and stopped at the first `Err`, reported the
/// way `Tesla::drive` reports it.
fn ingest_all(t: &Tesla, events: &[IngressEvent]) -> Result<IngressStats, DriveError> {
    let mut cache = NameCache::new();
    let mut stats = IngressStats::default();
    for ev in events {
        stats.events += 1;
        match ev {
            IngressEvent::FnEntry { .. } => stats.fn_entries += 1,
            IngressEvent::FnExit { .. } => stats.fn_exits += 1,
            IngressEvent::FieldStore { .. } => stats.field_stores += 1,
            IngressEvent::MsgEntry { .. } => stats.msg_entries += 1,
            IngressEvent::MsgExit { .. } => stats.msg_exits += 1,
            IngressEvent::AssertionSite { .. } => stats.sites += 1,
        }
        if let Err(violation) = t.ingest(&mut cache, ev.as_ref()) {
            return Err(DriveError::Event {
                seq: stats.events,
                violation,
                stats,
            });
        }
    }
    Ok(stats)
}

/// Run `ops` through a fresh engine along `path`. `dfa` false forces
/// interpreted NFA stepping instead of DFA rows;
/// `govern` attaches a non-escalating governor (huge SLO) so its
/// per-event tick runs on every path without perturbing sampling
/// determinism.
fn run(ops: &[Op], path: Path, fail_mode: FailMode, dfa: bool, govern: bool) -> Outcome {
    tesla_runtime::engine::reset_thread_state();
    let batch_size = match path {
        Path::Ingest => Config::default().batch_size,
        Path::Drive(n) => n,
    };
    let t = Tesla::new(Config {
        fail_mode,
        telemetry: true,
        batch_size,
        governor: govern.then_some(GovernorConfig {
            slo_milli: u32::MAX,
            tick_events: 1,
            allow_shed: false,
        }),
        ..Config::default()
    });
    let per_thread = AssertionBuilder::within("req")
        .named("req_check")
        .previously(call("check").arg_var("x").returns(0))
        .build()
        .unwrap();
    let global = AssertionBuilder::within("req")
        .global()
        .named("req_check_global")
        .previously(call("check").arg_var("x").returns(0))
        .build()
        .unwrap();
    let automata = vec![compile(&per_thread).unwrap(), compile(&global).unwrap()];
    if dfa {
        t.register_batch(automata).unwrap();
    } else {
        let pairs = automata.into_iter().map(|a| (Arc::new(a), None)).collect();
        t.register_batch_compiled(pairs).unwrap();
    }
    let events: Vec<IngressEvent> = ops.iter().map(decode).collect();
    let drive = match path {
        Path::Ingest => ingest_all(&t, &events),
        Path::Drive(_) => t.drive(&mut BufferedSource::new(events)),
    };
    Outcome {
        drive,
        violations: t.violations(),
        counters: json_counters(&t.metrics().snapshot()),
    }
}

fn ops_strategy(g: &mut Gen) -> Vec<Op> {
    g.vec(1..120, |g| {
        (g.range(0u8..10), g.range(0u64..4), g.range(0u64..3))
    })
}

/// Log mode: the whole stream flows on every path (modulo hard
/// errors, which must agree too).
#[test]
fn batched_equals_per_event_log_mode() {
    check(48, SEED, ops_strategy, |ops| {
        let reference = run(&ops, Path::Ingest, FailMode::Log, true, false);
        for n in BATCH_SIZES {
            let driven = run(&ops, Path::Drive(n), FailMode::Log, true, false);
            prop_assert_eq!(&driven, &reference, "batch_size {}", n);
        }
        Ok(())
    });
}

/// FailStop: a violation anywhere inside a batch must stop at the
/// same 1-based ordinal with the same stats as the hooks.
#[test]
fn batched_equals_per_event_fail_stop() {
    check(48, SEED, ops_strategy, |ops| {
        let reference = run(&ops, Path::Ingest, FailMode::FailStop, true, false);
        for n in BATCH_SIZES {
            let driven = run(&ops, Path::Drive(n), FailMode::FailStop, true, false);
            prop_assert_eq!(&driven, &reference, "batch_size {}", n);
        }
        Ok(())
    });
}

/// The governor ticks once per event on every path; a
/// non-escalating controller must leave every observable
/// identical.
#[test]
fn batched_equals_per_event_with_governor() {
    check(48, SEED, ops_strategy, |ops| {
        let reference = run(&ops, Path::Ingest, FailMode::Log, true, true);
        for n in BATCH_SIZES {
            let driven = run(&ops, Path::Drive(n), FailMode::Log, true, true);
            prop_assert_eq!(&driven, &reference, "batch_size {}", n);
        }
        Ok(())
    });
}

/// Compiled matrices against interpreted NFA stepping: same
/// verdicts, same counters, through the hooks and at every batch
/// size.
#[test]
fn compiled_dfa_equals_interpreted() {
    check(48, SEED, ops_strategy, |ops| {
        for fail_mode in [FailMode::Log, FailMode::FailStop] {
            let interpreted = run(&ops, Path::Ingest, fail_mode, false, false);
            let compiled = run(&ops, Path::Ingest, fail_mode, true, false);
            prop_assert_eq!(&compiled, &interpreted, "hooks, {:?}", fail_mode);
            for n in BATCH_SIZES {
                let driven = run(&ops, Path::Drive(n), fail_mode, true, false);
                prop_assert_eq!(&driven, &interpreted, "batch_size {}, {:?}", n, fail_mode);
            }
        }
        Ok(())
    });
}

/// A hand-built stream pinning the mid-batch fail-stop contract: the
/// violation lands on event 4 of a 6-event stream, strictly inside a
/// batch of 7 or 64, and the stats count exactly the events up to and
/// including the offender.
#[test]
fn fail_stop_mid_batch_stops_at_exact_ordinal() {
    let ops: Vec<Op> = vec![
        (0, 0, 0), // req entry        (opens scope)
        (1, 0, 1), // check entry
        (2, 0, 1), // check exit 0     (x = 1 satisfied)
        (8, 0, 2), // site x = 2       (never satisfied: violation)
        (1, 0, 2),
        (2, 0, 2),
    ];
    let reference = run(&ops, Path::Ingest, FailMode::FailStop, true, false);
    match &reference.drive {
        Err(DriveError::Event { seq, stats, .. }) => {
            assert_eq!(*seq, 4);
            assert_eq!(stats.events, 4);
            assert_eq!(stats.sites, 1);
            assert_eq!(stats.fn_entries, 2);
        }
        other => panic!("expected mid-stream violation, got {other:?}"),
    }
    assert_eq!(reference.violations.len(), 1);
    for n in BATCH_SIZES {
        let driven = run(&ops, Path::Drive(n), FailMode::FailStop, true, false);
        assert_eq!(driven, reference, "batch_size {n}");
    }
}

/// An unknown closing name must reject at its exact ordinal from the
/// batched stage, matching the direct hooks' unknown-name error.
#[test]
fn unknown_exit_name_rejects_at_exact_ordinal() {
    let ops: Vec<Op> = vec![
        (0, 0, 0),
        (3, 3, 0), // fn_exit "ghost": never entered
        (1, 0, 1),
    ];
    let reference = run(&ops, Path::Ingest, FailMode::Log, true, false);
    match &reference.drive {
        Err(DriveError::Event { seq, stats, .. }) => {
            assert_eq!(*seq, 2);
            assert_eq!(stats.events, 2);
            assert_eq!(stats.fn_exits, 1);
        }
        other => panic!("expected unknown-name error, got {other:?}"),
    }
    for n in BATCH_SIZES {
        let driven = run(&ops, Path::Drive(n), FailMode::Log, true, false);
        assert_eq!(driven, reference, "batch_size {n}");
    }
}

/// A malformed trace line must stop the drive at every batch size
/// with the same positioned diagnostic: a leading `+` is no JSON
/// number to the borrowing scanner or to the `parse_event` fallback
/// behind it.
#[test]
fn malformed_trace_line_rejects_alike_at_every_batch_size() {
    for event in [
        r#"{"ev":"fn_entry","fn":"f","args":[+5]}"#,
        r#"{"ev":"fn_exit","fn":"f","args":[],"ret":+1}"#,
        r#"{"ev":"field_store","struct":"s","field":"f","obj":+7,"op":"=","val":2}"#,
        r#"{"ev":"field_store","struct":"s","field":"f","obj":7,"op":"=","val":+2}"#,
        r#"{"ev":"msg_entry","sel":"m","recv":+3,"args":[]}"#,
        r#"{"ev":"site","class":+4,"vals":[]}"#,
    ] {
        let trace = format!("{TRACE_HEADER}\n{event}\n");
        let plus = event.find('+').expect("a signed number");
        let want = format!(
            "malformed trace line 2 (byte offset 18): invalid JSON: \
             unexpected character at byte {plus}"
        );
        for batch_size in [1, 7, Config::default().batch_size] {
            let t = Tesla::new(Config {
                batch_size,
                ..Config::default()
            });
            let err = t
                .drive(&mut JsonlSource::new(trace.as_bytes()))
                .expect_err(event);
            assert_eq!(err.to_string(), want, "batch size {batch_size}");
        }
    }
}
