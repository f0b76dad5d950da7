//! End-to-end observability: the telemetry subsystem driven by the
//! three case-study substrates and the mini-C pipeline — metrics
//! registry, flight recorder, and every exporter the `tesla observe`
//! subcommand offers (Prometheus text, JSON, chrome-trace, weighted
//! DOT).

use std::sync::Arc;
use tesla::corpus::openssl_like_patched;
use tesla::pipeline::{run_with_tesla, BuildOptions, BuildSystem};
use tesla::prelude::*;
use tesla::runtime::telemetry::export;
use tesla::runtime::HookKind;
use tesla::sim_gui::appkit::GuiBugs;
use tesla::sim_gui::{GuiApp, GuiMode};
use tesla::sim_kernel::assertions::{register_sets, AssertionSet};
use tesla::sim_kernel::mac::MacFramework;
use tesla::sim_kernel::{Bugs, Kernel, KernelConfig};
use tesla::sim_ssl::SslWorld;
use tesla::workload::{oltp, xnee};

fn telemetry_engine() -> Arc<Tesla> {
    Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        telemetry: true,
        instance_capacity: 256,
        ..Config::default()
    }))
}

/// Prometheus exposition lines are comments or `name{labels} value`.
fn assert_prometheus_well_formed(text: &str) {
    assert!(!text.is_empty());
    for line in text.lines() {
        assert!(
            line.starts_with('#')
                || line
                    .rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
            "bad exposition line: {line}"
        );
    }
}

fn assert_balanced_json(text: &str) {
    for (open, close) in [('{', '}'), ('[', ']')] {
        assert_eq!(
            text.matches(open).count(),
            text.matches(close).count(),
            "unbalanced {open}{close} in output"
        );
    }
}

#[test]
fn oltp_under_full_telemetry_exports_every_format() {
    let t = telemetry_engine();
    let recorder = Arc::new(FlightRecorder::new(1 << 14));
    t.add_handler(recorder.clone());
    let reg = register_sets(&t, &[AssertionSet::All]).unwrap();
    let k = Arc::new(Kernel::new(
        KernelConfig {
            bugs: Bugs::default(),
            debug_checks: false,
        },
        MacFramework::new(),
        Some((t.clone(), reg.sites)),
    ));
    oltp::run(
        &k,
        oltp::OltpParams {
            threads: 4,
            transactions: 20,
            socket_ops: 3,
            compute: 50,
        },
    );
    assert!(t.violations().is_empty(), "{:?}", t.violations());

    let m = t.metrics();
    assert!(m.events_total() > 0, "telemetry must see the workload");
    assert!(m.hook_calls(HookKind::FnEntry) > 0);
    // Latency is sampled (one-in-N per thread), calls are exact.
    let lat = m.hook_latency(HookKind::FnEntry);
    assert!(lat.count > 0 && lat.count <= m.hook_calls(HookKind::FnEntry));

    // Prometheus text.
    let snap = m.snapshot();
    let prom = export::prometheus(&snap);
    assert_prometheus_well_formed(&prom);
    assert!(prom.contains(&format!("tesla_events_total {}", m.events_total())));
    assert!(prom.contains("tesla_hook_calls_total{hook=\"fn_entry\"}"));
    assert!(prom.contains("tesla_transitions_total{"));

    // JSON snapshot.
    let json = export::json(&snap);
    assert_balanced_json(&json);
    assert!(json.contains("\"events_total\""));
    assert!(json.contains("\"transitions\""));

    // Flight-recorder event log, JSONL + chrome-trace.
    let events = recorder.snapshot();
    assert!(!events.is_empty());
    assert!(
        events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "snapshot must be sorted"
    );
    assert!(
        recorder.thread_count() >= 4,
        "each oltp worker records into its own ring"
    );
    let jsonl = export::events_jsonl(&events);
    assert_eq!(jsonl.lines().count(), events.len());
    for line in jsonl.lines().take(32) {
        assert_balanced_json(line);
        assert!(line.starts_with("{\"ts_ns\":"), "{line}");
    }
    let trace = export::chrome_trace(&events);
    assert_balanced_json(&trace);
    assert!(trace.starts_with("[\n"));
    assert!(trace.contains("\"ph\":\"i\""));

    // Weighted fig. 9 graphs straight off the live registry.
    let mut weighted = 0;
    for (i, def) in t.class_defs().iter().enumerate() {
        let class = m.class(i as u32);
        let Some(w) = class.as_deref().and_then(|c| c.weights()) else {
            continue;
        };
        let dot = tesla::automata::dot::render(&def.automaton, w);
        assert!(dot.contains("digraph"));
        if dot.contains("×") {
            weighted += 1;
        }
    }
    assert!(
        weighted > 0,
        "at least one class must render with live edge weights"
    );
}

#[test]
fn pipeline_plumbs_static_elision_into_the_registry() {
    // The patched OpenSSL-shaped client is proved safe, so the static
    // toolchain elides its only assertion site; a run's metrics must
    // carry that build-time fact.
    let mut bs = BuildSystem::new(openssl_like_patched(4), BuildOptions::static_toolchain());
    let art = bs.build().unwrap();
    assert_eq!(art.stats.sites_elided, 1);
    let t = telemetry_engine();
    run_with_tesla(&art, &t, "main", &[7], 10_000_000).unwrap();
    assert_eq!(t.metrics().sites_elided(), 1);
    let prom = export::prometheus(&t.metrics().snapshot());
    assert!(prom.contains("tesla_sites_elided 1"), "{prom}");
}

#[test]
fn ssl_fetch_under_bounded_recording_and_metrics() {
    let t = telemetry_engine();
    let rec = Arc::new(FlightRecorder::new(8));
    t.add_handler(rec.clone());
    let w = SslWorld::new(Some(t.clone()));
    w.fetch_url(false, false).unwrap();
    assert!(rec.total_recorded() > 0);
    assert!(
        rec.snapshot().len() <= 8 * rec.thread_count(),
        "bounded recorder must cap at its capacity"
    );
    let snap = t.metrics().snapshot();
    let c = snap.classes.first().expect("figure 6 class");
    assert!(c.news > 0);
    assert_eq!(c.live, 0, "fetch must finalise everything");
    // The buggy+malicious quadrant: in log-and-continue mode the
    // fetch "succeeds" wrongly, but telemetry still counts the
    // violation the site observed.
    let w = SslWorld::new(Some(t.clone()));
    let _ = w.fetch_url(true, true);
    assert!(t.metrics().violations() > 0);
}

#[test]
fn gui_session_renders_weighted_figure8_graph() {
    let t = telemetry_engine();
    let mut app = GuiApp::new(GuiMode::Tesla(t.clone()), GuiBugs::default());
    xnee::replay(&mut app, &xnee::session(50));
    let m = t.metrics();
    assert_eq!(m.violations(), 0);
    let snap = m.snapshot();
    let c = snap.classes.first().expect("figure 8 class");
    assert!(c.updates > 100, "a 50-event session drives >100 updates");
    let defs = t.class_defs();
    let class = m.class(0).expect("a record for the registered class");
    let w = class.weights().expect("weights for the registered class");
    let dot = tesla::automata::dot::render(&defs[0].automaton, w);
    assert!(dot.contains("×"), "session traffic must weight the graph");
    assert_eq!(dot.matches('{').count(), dot.matches('}').count());
}
