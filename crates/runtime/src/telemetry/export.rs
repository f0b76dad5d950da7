//! Telemetry exporters: Prometheus text, JSON, JSONL, chrome-trace.
//!
//! All exporters are pure functions over snapshots — taking a
//! snapshot is the only interaction with live counters, so exporting
//! never blocks dispatch. The JSON emitters are hand-rolled (the
//! snapshot types are flat and the output format is part of the CLI
//! contract).

use crate::telemetry::metrics::{ClassSnapshot, HistogramSnapshot, MetricsSnapshot};
use crate::telemetry::recorder::RecordedEvent;
use std::fmt::Write as _;

/// Escape a Prometheus label value.
pub(crate) fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escape a string for embedding in a JSON string literal.
///
/// Interned names can now arrive from external replay traces, so the
/// escaper must keep *any* `&str` parseable: all C0 controls (RFC
/// 8259 requires `< 0x20` escaped), DEL and the C1 block (raw they
/// survive JSON but corrupt terminal/log pipelines), and U+2028/2029
/// (legal JSON, but unescaped they break JS consumers that eval
/// responses). Rust strings are always valid UTF-8, so these classes
/// are exactly the bytes that can make emitted JSON unsafe.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20
                || ('\u{7f}'..='\u{9f}').contains(&c)
                || c == '\u{2028}'
                || c == '\u{2029}' =>
            {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Emit one histogram family, **rescaled to estimated totals**: the
/// histogram only observed `h.count` of `calls` invocations (1-in-N
/// per-thread sampling), so every bucket and the sum are multiplied
/// by the observed sampling factor `calls / h.count`. Without this,
/// Prometheus rates computed from the buckets under-report by the
/// sampling period (~64×). `_count` equals `calls` exactly, keeping
/// the `+Inf` bucket invariant.
fn histogram(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot, calls: u64) {
    let factor = if h.count > 0 && calls > h.count {
        calls as f64 / h.count as f64
    } else {
        1.0
    };
    let scale = |n: u64| (n as f64 * factor).round() as u64;
    let total = calls.max(h.count);
    let mut cumulative = 0u64;
    for (i, b) in h.buckets.iter().enumerate() {
        if i + 1 == h.buckets.len() {
            break; // the overflow bucket is the +Inf line below
        }
        cumulative += b;
        if *b == 0 {
            continue; // keep the text compact; cumulative stays right
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}le=\"{}\"}} {}",
            1u64 << i,
            scale(cumulative)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}le=\"+Inf\"}} {total}");
    let bare = labels.trim_end_matches(',');
    let _ = writeln!(out, "{name}_sum{{{bare}}} {}", scale(h.sum_ns));
    let _ = writeln!(out, "{name}_count{{{bare}}} {total}");
}

/// Render a metrics snapshot in the Prometheus text exposition
/// format (version 0.0.4).
pub fn prometheus(s: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP tesla_events_total Lifecycle events dispatched to handlers."
    );
    let _ = writeln!(out, "# TYPE tesla_events_total counter");
    let _ = writeln!(out, "tesla_events_total {}", s.events_total);
    let _ = writeln!(
        out,
        "# HELP tesla_violations_total Assertion violations observed."
    );
    let _ = writeln!(out, "# TYPE tesla_violations_total counter");
    let _ = writeln!(out, "tesla_violations_total {}", s.violations);
    let _ = writeln!(
        out,
        "# HELP tesla_sites_elided Instrumentation sites removed by the static model checker."
    );
    let _ = writeln!(out, "# TYPE tesla_sites_elided gauge");
    let _ = writeln!(out, "tesla_sites_elided {}", s.sites_elided);
    let _ = writeln!(
        out,
        "# HELP tesla_handler_panics_total Handler panics contained by panic-safe dispatch."
    );
    let _ = writeln!(out, "# TYPE tesla_handler_panics_total counter");
    let _ = writeln!(out, "tesla_handler_panics_total {}", s.handler_panics);
    let _ = writeln!(
        out,
        "# HELP tesla_faults_absorbed_total Injected faults absorbed gracefully."
    );
    let _ = writeln!(out, "# TYPE tesla_faults_absorbed_total counter");
    let _ = writeln!(out, "tesla_faults_absorbed_total {}", s.faults_absorbed);
    let _ = writeln!(
        out,
        "# HELP tesla_lock_poison_recoveries_total Poisoned store shard locks recovered."
    );
    let _ = writeln!(out, "# TYPE tesla_lock_poison_recoveries_total counter");
    let _ = writeln!(
        out,
        "tesla_lock_poison_recoveries_total {}",
        s.lock_poison_recoveries
    );

    let _ = writeln!(
        out,
        "# HELP tesla_hook_calls_total Instrumentation hook invocations."
    );
    let _ = writeln!(out, "# TYPE tesla_hook_calls_total counter");
    for h in &s.hooks {
        let _ = writeln!(
            out,
            "tesla_hook_calls_total{{hook=\"{}\"}} {}",
            esc(&h.hook),
            h.calls
        );
    }
    let _ = writeln!(
        out,
        "# HELP tesla_hook_latency_ns Hook latency, log2 nanosecond buckets \
         (estimated: sampled 1-in-N and rescaled by the observed sampling factor)."
    );
    let _ = writeln!(out, "# TYPE tesla_hook_latency_ns histogram");
    for h in &s.hooks {
        if h.latency.count == 0 {
            continue;
        }
        histogram(
            &mut out,
            "tesla_hook_latency_ns",
            &format!("hook=\"{}\",", esc(&h.hook)),
            &h.latency,
            h.calls,
        );
    }
    for (name, q) in [
        ("tesla_hook_latency_p50_ns", 0.50),
        ("tesla_hook_latency_p95_ns", 0.95),
        ("tesla_hook_latency_p99_ns", 0.99),
    ] {
        let _ = writeln!(
            out,
            "# HELP {name} Estimated hook latency quantile (log2 bucket midpoint)."
        );
        let _ = writeln!(out, "# TYPE {name} gauge");
        for h in &s.hooks {
            if h.latency.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{name}{{hook=\"{}\"}} {}",
                esc(&h.hook),
                h.latency.quantile_ns(q)
            );
        }
    }
    let _ = writeln!(
        out,
        "# HELP tesla_hook_sample_period Latency sampling period in force (one timed call in N; adjusted by the overhead governor)."
    );
    let _ = writeln!(out, "# TYPE tesla_hook_sample_period gauge");
    for h in &s.hooks {
        let _ = writeln!(
            out,
            "tesla_hook_sample_period{{hook=\"{}\"}} {}",
            esc(&h.hook),
            h.sample_period
        );
    }

    /// Metric name, type and the class counter it reports.
    type Column = (&'static str, &'static str, fn(&ClassSnapshot) -> u64);
    let per_class: [Column; 10] = [
        ("tesla_instances_created_total", "counter", |c| c.news),
        ("tesla_instances_cloned_total", "counter", |c| c.clones),
        ("tesla_updates_total", "counter", |c| c.updates),
        ("tesla_finalise_accepted_total", "counter", |c| c.accepted),
        ("tesla_finalise_rejected_total", "counter", |c| c.rejected),
        ("tesla_overflows_total", "counter", |c| c.overflows),
        ("tesla_evictions_total", "counter", |c| c.evictions),
        ("tesla_shed_total", "counter", |c| c.shed),
        ("tesla_live_instances", "gauge", |c| c.live),
        ("tesla_live_instances_peak", "gauge", |c| c.high_watermark),
    ];
    for (name, ty, get) in per_class {
        let _ = writeln!(out, "# TYPE {name} {ty}");
        for c in &s.classes {
            let _ = writeln!(out, "{name}{{class=\"{}\"}} {}", esc(&c.name), get(c));
        }
    }
    let _ = writeln!(
        out,
        "# HELP tesla_transitions_total Automaton edge firings (fig. 9 weights)."
    );
    let _ = writeln!(out, "# TYPE tesla_transitions_total counter");
    for c in &s.classes {
        for t in &c.transitions {
            let _ = writeln!(
                out,
                "tesla_transitions_total{{class=\"{}\",from=\"{}\",symbol=\"{}\"}} {}",
                esc(&c.name),
                t.from_state,
                t.symbol,
                t.count
            );
        }
    }
    out
}

fn json_histogram(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
    format!(
        "{{\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"buckets\":[{}]}}",
        h.count,
        h.sum_ns,
        h.p50_ns(),
        h.p95_ns(),
        h.p99_ns(),
        buckets.join(",")
    )
}

/// Serialise a metrics snapshot as JSON.
pub fn json(s: &MetricsSnapshot) -> String {
    render_json(s, true)
}

/// Serialise the *deterministic* subset of a metrics snapshot as
/// JSON: everything in [`json`] except the hook latency histograms,
/// whose nanosecond timings differ between otherwise identical runs.
///
/// Two runs that observed the same event stream — e.g. a live run
/// and its recorded-trace replay — produce byte-identical output
/// from this exporter, so `tesla run --metrics` / `tesla replay
/// --metrics` files can be compared with a plain `diff`.
pub fn json_counters(s: &MetricsSnapshot) -> String {
    render_json(s, false)
}

/// The one JSON renderer behind [`json`] and [`json_counters`];
/// `latency` adds each hook's sampling period and latency histogram.
fn render_json(s: &MetricsSnapshot, latency: bool) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"events_total\": {},", s.events_total);
    let _ = writeln!(out, "  \"violations\": {},", s.violations);
    let _ = writeln!(out, "  \"sites_elided\": {},", s.sites_elided);
    let _ = writeln!(out, "  \"handler_panics\": {},", s.handler_panics);
    let _ = writeln!(out, "  \"faults_absorbed\": {},", s.faults_absorbed);
    let _ = writeln!(
        out,
        "  \"lock_poison_recoveries\": {},",
        s.lock_poison_recoveries
    );
    let _ = writeln!(out, "  \"hooks\": [");
    for (i, h) in s.hooks.iter().enumerate() {
        let sep = if i + 1 == s.hooks.len() { "" } else { "," };
        let _ = write!(
            out,
            "    {{\"hook\":\"{}\",\"calls\":{}",
            json_escape(&h.hook),
            h.calls
        );
        if latency {
            let _ = write!(
                out,
                ",\"sample_period\":{},\"latency\":{}",
                h.sample_period,
                json_histogram(&h.latency)
            );
        }
        let _ = writeln!(out, "}}{sep}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"classes\": [");
    for (i, c) in s.classes.iter().enumerate() {
        let transitions: Vec<String> = c
            .transitions
            .iter()
            .map(|t| {
                format!(
                    "{{\"from_state\":{},\"symbol\":{},\"count\":{}}}",
                    t.from_state, t.symbol, t.count
                )
            })
            .collect();
        let sep = if i + 1 == s.classes.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"class\":{},\"name\":\"{}\",\"news\":{},\"clones\":{},\"updates\":{},\
             \"accepted\":{},\"rejected\":{},\"overflows\":{},\"evictions\":{},\"shed\":{},\
             \"live\":{},\"high_watermark\":{},\"transitions\":[{}]}}{sep}",
            c.class,
            json_escape(&c.name),
            c.news,
            c.clones,
            c.updates,
            c.accepted,
            c.rejected,
            c.overflows,
            c.evictions,
            c.shed,
            c.live,
            c.high_watermark,
            transitions.join(",")
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

fn json_event(e: &RecordedEvent) -> String {
    format!(
        "{{\"ts_ns\":{},\"thread\":{},\"kind\":\"{}\",\"class\":{},\"symbol\":{},\
         \"instance\":{},\"aux\":{},\"states\":{}}}",
        e.ts_ns, e.thread, e.kind, e.class, e.symbol, e.instance, e.aux, e.states
    )
}

/// One JSON object per line, one line per recorded event.
pub fn events_jsonl(events: &[RecordedEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = writeln!(out, "{}", json_event(e));
    }
    out
}

/// chrome://tracing "JSON array format", one instant event per line
/// (the format is line-oriented, so truncated files still load).
/// Open the output via `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(events: &[RecordedEvent]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in events.iter().enumerate() {
        let sep = if i + 1 == events.len() { "" } else { "," };
        // chrome-trace timestamps are microseconds; "i" = instant.
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"tesla\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{}.{:03},\
             \"pid\":1,\"tid\":{},\"args\":{{\"class\":{},\"symbol\":{},\"instance\":{},\
             \"aux\":{},\"states\":{}}}}}{sep}",
            e.kind,
            e.ts_ns / 1000,
            e.ts_ns % 1000,
            e.thread,
            e.class,
            e.symbol,
            e.instance,
            e.aux,
            e.states
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LifecycleEvent;
    use crate::handlers::EventHandler;
    use crate::telemetry::metrics::{HookKind, MetricsRegistry};
    use crate::telemetry::recorder::FlightRecorder;
    use std::time::Duration;
    use tesla_prop::{check, prop_assert, Gen};

    const SEED: u64 = 0xe8;

    /// Minimal recursive-descent JSON syntax checker, so the tests
    /// prove the emitters produce *parseable* JSON without needing a
    /// JSON library.
    fn check_json(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        fn ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
            ws(b, i);
            match b.get(*i) {
                Some(b'{') => {
                    *i += 1;
                    ws(b, i);
                    if b.get(*i) == Some(&b'}') {
                        *i += 1;
                        return Ok(());
                    }
                    loop {
                        ws(b, i);
                        string(b, i)?;
                        ws(b, i);
                        if b.get(*i) != Some(&b':') {
                            return Err(format!("expected ':' at {i}"));
                        }
                        *i += 1;
                        value(b, i)?;
                        ws(b, i);
                        match b.get(*i) {
                            Some(b',') => *i += 1,
                            Some(b'}') => {
                                *i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected ',' or '}}' at {i}")),
                        }
                    }
                }
                Some(b'[') => {
                    *i += 1;
                    ws(b, i);
                    if b.get(*i) == Some(&b']') {
                        *i += 1;
                        return Ok(());
                    }
                    loop {
                        value(b, i)?;
                        ws(b, i);
                        match b.get(*i) {
                            Some(b',') => *i += 1,
                            Some(b']') => {
                                *i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected ',' or ']' at {i}")),
                        }
                    }
                }
                Some(b'"') => string(b, i),
                Some(_) => {
                    // number / true / false / null
                    let start = *i;
                    while *i < b.len()
                        && !matches!(b[*i], b',' | b'}' | b']')
                        && !(b[*i] as char).is_ascii_whitespace()
                    {
                        *i += 1;
                    }
                    let tok = std::str::from_utf8(&b[start..*i]).unwrap();
                    if tok == "true"
                        || tok == "false"
                        || tok == "null"
                        || tok.parse::<f64>().is_ok()
                    {
                        Ok(())
                    } else {
                        Err(format!("bad literal {tok:?} at {start}"))
                    }
                }
                None => Err("unexpected end".to_string()),
            }
        }
        fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
            if b.get(*i) != Some(&b'"') {
                return Err(format!("expected '\"' at {i}"));
            }
            *i += 1;
            while let Some(&c) = b.get(*i) {
                match c {
                    b'\\' => *i += 2,
                    b'"' => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => *i += 1,
                }
            }
            Err("unterminated string".to_string())
        }
        value(b, &mut i)?;
        ws(b, &mut i);
        if i == b.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at {i}"))
        }
    }

    fn populated() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.record_hook(HookKind::FnEntry, Duration::from_nanos(900));
        r.on_event(&LifecycleEvent::New {
            class: 0,
            instance: 0,
        });
        r.on_event(&LifecycleEvent::Finalise {
            class: 0,
            instance: 0,
            accepted: true,
        });
        r
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let text = prometheus(&populated().snapshot());
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "bad exposition line: {line}"
            );
        }
        assert!(text.contains("tesla_events_total 2"));
        assert!(text.contains("tesla_hook_calls_total{hook=\"fn_entry\"} 1"));
        assert!(text.contains("tesla_hook_latency_ns_bucket{hook=\"fn_entry\",le=\"1024\"} 1"));
        assert!(text.contains("tesla_live_instances{class=\"unregistered\"} 0"));
        assert!(text.contains("tesla_live_instances_peak{class=\"unregistered\"} 1"));
    }

    #[test]
    fn json_snapshot_parses() {
        let j = json(&populated().snapshot());
        check_json(&j).unwrap();
        assert!(j.contains("\"events_total\": 2"));
        assert!(j.contains("\"hook\":\"assertion_site\""));
    }

    #[test]
    fn jsonl_and_chrome_trace_parse() {
        let rec = FlightRecorder::new(64);
        rec.on_event(&LifecycleEvent::New {
            class: 1,
            instance: 2,
        });
        rec.on_event(&LifecycleEvent::Overflow { class: 1 });
        let events = rec.snapshot();

        let l = events_jsonl(&events);
        assert_eq!(l.lines().count(), 2);
        for line in l.lines() {
            check_json(line).unwrap();
        }
        assert!(l.contains("\"kind\":\"new\""));
        assert!(l.contains("\"kind\":\"overflow\""));

        let t = chrome_trace(&events);
        check_json(&t).unwrap();
        assert!(t.contains("\"ph\":\"i\""));
        assert!(t.contains("\"cat\":\"tesla\""));
    }

    #[test]
    fn escaping_keeps_output_parseable() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("x\"y"), "x\\\"y");
        check_json(&format!(
            "{{\"k\":\"{}\"}}",
            json_escape("quote \" slash \\ nl \n")
        ))
        .unwrap();
        // DEL, C1 controls, and the JS line separators are all forced
        // into \uXXXX form.
        assert_eq!(json_escape("\u{7f}"), "\\u007f");
        assert_eq!(json_escape("\u{85}"), "\\u0085");
        assert_eq!(json_escape("\u{2028}\u{2029}"), "\\u2028\\u2029");
        check_json(&format!("{{\"k\":\"{}\"}}", json_escape("\x00\x1f\u{9f}"))).unwrap();
    }

    #[test]
    fn json_counters_is_valid_and_latency_free() {
        let snap = populated().snapshot();
        let j = json_counters(&snap);
        check_json(&j).unwrap();
        assert!(j.contains("\"events_total\": 2"));
        assert!(!j.contains("latency"), "{j}");
        assert!(!j.contains("sum_ns"), "{j}");
        // The full document is the same bytes plus each hook's
        // sampling period and latency histogram.
        let full = json(&snap);
        assert_eq!(full.lines().count(), j.lines().count());
        for (f, c) in full.lines().zip(j.lines()) {
            if c.starts_with("    {\"hook\":") {
                let head = c.trim_end_matches(',').trim_end_matches('}');
                assert!(f.starts_with(head), "{f}");
                assert!(f[head.len()..].starts_with(",\"sample_period\":"), "{f}");
            } else {
                assert_eq!(f, c);
            }
        }
    }

    /// Build a snapshot whose every string field is attacker-chosen.
    fn hostile_snapshot(name: &str) -> MetricsSnapshot {
        use crate::telemetry::metrics::{ClassSnapshot, HookSnapshot, TransitionCount};
        MetricsSnapshot {
            events_total: 1,
            violations: 0,
            sites_elided: 0,
            handler_panics: 0,
            faults_absorbed: 0,
            lock_poison_recoveries: 0,
            hooks: vec![HookSnapshot {
                hook: name.to_string(),
                calls: 3,
                sample_period: 64,
                latency: HistogramSnapshot {
                    buckets: vec![0, 1, 0],
                    count: 1,
                    sum_ns: 7,
                },
            }],
            classes: vec![ClassSnapshot {
                class: 0,
                name: name.to_string(),
                news: 1,
                clones: 0,
                updates: 2,
                accepted: 1,
                rejected: 0,
                overflows: 0,
                evictions: 0,
                shed: 0,
                live: 0,
                high_watermark: 1,
                transitions: vec![TransitionCount {
                    from_state: 0,
                    symbol: 1,
                    count: 2,
                }],
            }],
        }
    }

    // Replay traces carry arbitrary external names; every string
    // that can reach an interned-name slot must leave the JSON
    // emitters parseable. `Gen::char` draws the control characters
    // and the astral planes as often as printable ASCII.
    #[test]
    fn arbitrary_names_keep_json_parseable() {
        check(
            256,
            SEED,
            |g| g.vec(0..48, Gen::char),
            |chars| {
                let name: String = chars.into_iter().collect();
                let snap = hostile_snapshot(&name);
                check_json(&json(&snap)).unwrap();
                check_json(&json_counters(&snap)).unwrap();
                // The escaped form must still be lossless for embedding:
                // no raw quote/backslash/control byte survives.
                let e = json_escape(&name);
                prop_assert!(!e.bytes().any(|b| b < 0x20 || b == 0x7f));
                Ok(())
            },
        );
    }

    #[test]
    fn arbitrary_names_keep_prometheus_line_oriented() {
        check(
            256,
            SEED,
            |g| g.vec(0..48, Gen::char),
            |chars| {
                let name: String = chars.into_iter().collect();
                let text = prometheus(&hostile_snapshot(&name));
                // Escaping must keep one sample per line: no label value
                // may smuggle a raw newline into the exposition text.
                for line in text.lines() {
                    prop_assert!(
                        line.starts_with('#') || line.rsplit_once(' ').is_some(),
                        "bad exposition line: {line}"
                    );
                }
                Ok(())
            },
        );
    }
}
