//! The GNUstep case study (§2.3, §3.5.3): instrument ~110 methods via
//! message-send interposition (fig. 8), replay a user session, and
//! diagnose both UI bugs from the traces.
//!
//! ```sh
//! cargo run --example gui_trace
//! ```

use std::sync::{Arc, Mutex};
use tesla::prelude::*;
use tesla::sim_gui::appkit::GuiBugs;
use tesla::sim_gui::{cursor_imbalance, figure8_assertion, GuiApp, GuiMode, TraceEvent};
use tesla::workload::xnee;

fn main() {
    // The fig. 8 tracing assertion over a small selector list, for
    // display; the app registers it over the full ~110-method list.
    let preview = figure8_assertion(&["push".into(), "pop".into(), "drawWithFrame:inView:".into()]);
    println!("figure 8 (abridged):\n  {preview}\n");

    let trace: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = trace.clone();
    let handler: Arc<dyn Fn(&TraceEvent) + Send + Sync> =
        Arc::new(move |e| sink.lock().unwrap().push(e.clone()));

    // --- Bug 1: cursor push/pop imbalance --------------------------
    let engine = Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        ..Config::default()
    }));
    let bugs = GuiBugs {
        duplicate_cursor_push: true,
        ..GuiBugs::default()
    };
    let mut app = GuiApp::new(GuiMode::TeslaTracing(engine.clone(), handler.clone()), bugs);
    let script = xnee::session(60);
    xnee::replay(&mut app, &script);

    let t = trace.lock().unwrap().clone();
    let pushes = t.iter().filter(|e| e.entry && e.selector == "push").count();
    let pops = t.iter().filter(|e| e.entry && e.selector == "pop").count();
    println!("cursor bug session: {} trace events", t.len());
    println!("  [NSCursor push] × {pushes}");
    println!("  [NSCursor pop]  × {pops}");
    println!(
        "  imbalance: {} (cursor stack residue: {:?})",
        cursor_imbalance(&t),
        app.world.cursor_stack
    );
    println!(
        "  → mouse-entered events not paired with mouse-exited: the same\n\
         \x20   cursor was pushed multiple times and one pop cannot restore it.\n"
    );

    // First few push/pop events with class attribution, like the
    // paper's stack-trace logging.
    println!("  trace excerpt:");
    for e in t
        .iter()
        .filter(|e| {
            e.entry
                && matches!(
                    e.selector.as_str(),
                    "push" | "pop" | "mouseEntered:" | "mouseExited:"
                )
        })
        .take(8)
    {
        println!(
            "    [{} {}] (receiver #{})",
            e.class, e.selector, e.receiver
        );
    }

    // --- Bug 2: non-LIFO gstate restore ----------------------------
    trace.lock().unwrap().clear();
    let bugs = GuiBugs {
        backend_lifo_only: true,
        ..GuiBugs::default()
    };
    let mut buggy = GuiApp::new(GuiMode::TeslaTracing(engine, handler), bugs);
    let got = buggy.world.draw_non_lifo_scene().unwrap();
    let mut good = GuiApp::new(GuiMode::Release, GuiBugs::default());
    let want = good.world.draw_non_lifo_scene().unwrap();
    println!("\nnon-LIFO gstate bug:");
    println!("  expected stroke colours: {want:06x?}");
    println!("  new backend drew:        {got:06x?}");
    let sets: Vec<TraceEvent> = trace
        .lock()
        .unwrap()
        .iter()
        .filter(|e| e.entry && (e.selector == "defineGState" || e.selector == "setGState:"))
        .cloned()
        .collect();
    println!("  gstate call sequence from the trace:");
    for e in &sets {
        println!("    [{} {}]", e.class, e.selector);
    }
    println!(
        "  → define, define, set, set, set: a non-LIFO restore sequence —\n\
         \x20   \"something obvious in traces of even simple application\"."
    );

    // --- Healthy app: everything balances ---------------------------
    let engine = Arc::new(Tesla::with_defaults());
    let registry = Arc::new(MetricsRegistry::new());
    engine.add_handler(registry.clone());
    let mut clean = GuiApp::new(GuiMode::Tesla(engine.clone()), GuiBugs::default());
    xnee::replay(&mut clean, &xnee::session(60));
    let defs = engine.class_defs();
    println!(
        "\nhealthy session: {} automaton updates across {} instrumented selectors, 0 errors",
        registry.updates(),
        defs[0].automaton.n_symbols() - 3,
    );
    assert_eq!(registry.violations(), 0);
}
