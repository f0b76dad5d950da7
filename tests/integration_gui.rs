//! GNUstep-substrate integration (§3.5.3): the Xnee-like replay
//! across all four fig. 14 instrumentation tiers, trace-driven bug
//! diagnosis, and fig. 8 automaton coverage.

use std::sync::{Arc, Mutex};
use tesla::prelude::*;
use tesla::sim_gui::appkit::GuiBugs;
use tesla::sim_gui::{cursor_imbalance, GuiApp, GuiMode, TraceEvent};
use tesla::workload::xnee;

#[test]
fn replay_is_identical_across_all_tiers() {
    let script = xnee::session(40);
    let render = |mode: GuiMode| {
        let mut app = GuiApp::new(mode, GuiBugs::default());
        xnee::replay(&mut app, &script);
        app.world.framebuffer.clone()
    };
    let release = render(GuiMode::Release);
    assert_eq!(release, render(GuiMode::TracingEnabled));
    assert_eq!(release, render(GuiMode::Interposed));
    assert_eq!(
        release,
        render(GuiMode::Tesla(Arc::new(Tesla::with_defaults())))
    );
}

#[test]
fn figure8_automaton_traces_a_whole_session_without_errors() {
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Arc::new(Tesla::with_defaults());
    engine.add_handler(registry.clone());
    let mut app = GuiApp::new(GuiMode::Tesla(engine.clone()), GuiBugs::default());
    xnee::replay(&mut app, &xnee::session(50));
    assert_eq!(registry.violations(), 0);
    assert!(registry.weights().grand_total() > 100);
    // Logical coverage over the automaton's alphabet: which of the
    // ~110 instrumented methods actually ran.
    let covered = registry.weights().covered_symbols(0);
    assert!(covered.len() > 3, "covered symbols: {}", covered.len());
    let defs = engine.class_defs();
    assert!(covered.len() < defs[0].automaton.n_symbols());
}

#[test]
fn trace_diagnosis_of_the_cursor_bug_across_a_session() {
    let trace: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = trace.clone();
    let handler: Arc<dyn Fn(&TraceEvent) + Send + Sync> =
        Arc::new(move |e| sink.lock().unwrap().push(e.clone()));
    for buggy in [false, true] {
        trace.lock().unwrap().clear();
        let engine = Arc::new(Tesla::new(Config {
            fail_mode: FailMode::Log,
            ..Config::default()
        }));
        let bugs = GuiBugs {
            duplicate_cursor_push: buggy,
            ..GuiBugs::default()
        };
        let mut app = GuiApp::new(GuiMode::TeslaTracing(engine, handler.clone()), bugs);
        xnee::replay(&mut app, &xnee::session(60));
        let imbalance = cursor_imbalance(&trace.lock().unwrap());
        if buggy {
            assert!(imbalance > 0, "bug must show in the trace");
        } else {
            assert_eq!(imbalance, 0, "healthy session must balance");
        }
    }
}

#[test]
fn traces_attribute_events_to_classes() {
    // "describing exactly which view class was responsible for
    // calling each back-end method".
    let trace: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = trace.clone();
    let handler: Arc<dyn Fn(&TraceEvent) + Send + Sync> =
        Arc::new(move |e| sink.lock().unwrap().push(e.clone()));
    let engine = Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        ..Config::default()
    }));
    let mut app = GuiApp::new(GuiMode::TeslaTracing(engine, handler), GuiBugs::default());
    app.run_loop_iteration(&[tesla::sim_gui::appkit::UiEvent::Expose])
        .unwrap();
    let classes: std::collections::HashSet<String> = trace
        .lock()
        .unwrap()
        .iter()
        .map(|e| e.class.clone())
        .collect();
    assert!(classes.contains("NSView"));
    assert!(classes.contains("NSCell"));
    assert!(classes.contains("NSGraphicsContext"));
}

#[test]
fn gstate_profile_exposes_save_restore_pairs() {
    // "applications often save and restore the graphics state (a
    // comparatively expensive operation), when the only aspects of
    // the state that are changed in between are the current drawing
    // location and the colour" — the optimisation-opportunity
    // profiling of §3.5.3, from transition counts.
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Arc::new(Tesla::with_defaults());
    engine.add_handler(registry.clone());
    let mut app = GuiApp::new(GuiMode::Tesla(engine.clone()), GuiBugs::default());
    xnee::replay(&mut app, &xnee::session(25));
    let defs = engine.class_defs();
    let auto = &defs[0].automaton;
    let find = |needle: &str| {
        auto.symbols
            .iter()
            .find(|s| s.kind.to_string().contains(needle))
            .map(|s| registry.weights().symbol_count(0, s.id))
            .unwrap_or(0)
    };
    let saves = find("saveGraphicsState");
    let restores = find("restoreGraphicsState");
    let colors = find("setColor:");
    assert!(saves > 0);
    assert_eq!(saves, restores, "every save paired with a restore");
    assert!(
        colors >= saves,
        "each save/restore pair only changes colour/position"
    );
}
