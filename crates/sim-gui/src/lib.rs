//! # tesla-sim-gui — the GNUstep case-study substrate
//!
//! Reproduces the stateful-API exploration of §2.3/§3.5.3 (see
//! DESIGN.md): an Objective-C-like runtime whose `objc_msgSend`
//! consults a global interposition table ([`objc`], §4.3), an
//! AppKit-like library with cells, gstates, cursors and tracking
//! rectangles ([`appkit`]), the fig. 8 tracing assertion over ~110
//! selectors, and both investigated bugs behind flags.
//!
//! Unlike the C substrates, "we only need to run the instrumenter on
//! a single compilation unit … instrumentation spans two libraries
//! and multiple classes but is all inserted via interposition"
//! (§5.3) — here the [`TeslaInterposer`] installed into the runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appkit;
pub mod objc;
pub mod scenario;

use appkit::{GuiBugs, GuiWorld, UiEvent};
use objc::{Interposer, ObjId, TraceMode};
use std::sync::Arc;
use tesla_runtime::{ClassId as RtClassId, NameId, Tesla};
use tesla_spec::{atleast, msg_send, AssertionBuilder, ExprBuilder, Value};

/// The instrumentation tier, matching fig. 14's four bars.
#[derive(Clone, Default)]
pub enum GuiMode {
    /// "normal release build".
    #[default]
    Release,
    /// "linked against the Objective-C runtime with tracing enabled"
    /// (table consulted, nothing registered).
    TracingEnabled,
    /// "a trivial interposition function on the message send".
    Interposed,
    /// "a TESLA automaton processing the events".
    Tesla(Arc<Tesla>),
    /// TESLA plus a custom event handler printing traces (the §3.5.3
    /// investigation mode).
    TeslaTracing(Arc<Tesla>, Arc<dyn Fn(&TraceEvent) + Send + Sync>),
}

/// One interposed message, as handed to custom handlers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// `true` for entry (send), `false` for return.
    pub entry: bool,
    /// Receiver.
    pub receiver: u32,
    /// Receiver's class name.
    pub class: String,
    /// Selector.
    pub selector: String,
}

/// The trivial interposer: counts sends (fig. 14a's third bar).
#[derive(Default)]
pub struct TrivialInterposer {
    count: std::sync::atomic::AtomicU64,
}

impl TrivialInterposer {
    /// Messages observed.
    pub fn count(&self) -> u64 {
        self.count.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Interposer<GuiWorld> for TrivialInterposer {
    fn pre(&self, _w: &GuiWorld, _r: ObjId, _s: &str, _a: &[i64]) -> Result<(), String> {
        self.count
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
    fn post(
        &self,
        _w: &GuiWorld,
        _r: ObjId,
        _s: &str,
        _a: &[i64],
        _ret: i64,
    ) -> Result<(), String> {
        Ok(())
    }
}

/// A per-event observer of the interposer's trace.
type TraceHandler = Arc<dyn Fn(&TraceEvent) + Send + Sync>;

/// The TESLA interposer: converts message sends/returns into libtesla
/// events (§4.3) and optionally forwards them to a custom handler
/// (§3.5.3's trace investigation).
pub struct TeslaInterposer {
    engine: Arc<Tesla>,
    handler: Option<TraceHandler>,
}

impl TeslaInterposer {
    /// Wrap an engine.
    pub fn new(engine: Arc<Tesla>, handler: Option<TraceHandler>) -> TeslaInterposer {
        TeslaInterposer { engine, handler }
    }

    fn emit(&self, w: &GuiWorld, entry: bool, recv: ObjId, sel: &str) {
        if let Some(h) = &self.handler {
            let class = w.rt.class_name(w.rt.class_of(recv)).to_string();
            h(&TraceEvent {
                entry,
                receiver: recv.0,
                class,
                selector: sel.to_string(),
            });
        }
    }
}

impl Interposer<GuiWorld> for TeslaInterposer {
    fn pre(&self, w: &GuiWorld, recv: ObjId, sel: &str, args: &[i64]) -> Result<(), String> {
        self.emit(w, true, recv, sel);
        let id = self.engine.intern_selector(sel);
        let vals: Vec<Value> = args.iter().map(|a| Value(*a as u64)).collect();
        self.engine
            .msg_entry(id, Value(u64::from(recv.0)), &vals)
            .map_err(|v| v.to_string())
    }

    fn post(
        &self,
        w: &GuiWorld,
        recv: ObjId,
        sel: &str,
        args: &[i64],
        ret: i64,
    ) -> Result<(), String> {
        self.emit(w, false, recv, sel);
        let id = self.engine.intern_selector(sel);
        let vals: Vec<Value> = args.iter().map(|a| Value(*a as u64)).collect();
        self.engine
            .msg_exit(id, Value(u64::from(recv.0)), &vals, Value(ret as u64))
            .map_err(|v| v.to_string())
    }
}

/// The fig. 8 assertion: within a run-loop iteration ("startDrawing"
/// bounds in the paper), some (or none) of the instrumented API
/// methods should have been called — a pure tracing automaton over
/// the full selector list.
pub fn figure8_assertion(selectors: &[String]) -> tesla_spec::Assertion {
    let alts: Vec<ExprBuilder> = selectors.iter().map(|s| msg_send(s).into()).collect();
    AssertionBuilder::within("run_loop_iteration")
        .named("gui/trace")
        .previously(atleast(0, alts))
        .build()
        .expect("figure 8 assertion is valid")
}

/// The application under investigation: a GuiWorld plus TESLA
/// plumbing and a scene.
pub struct GuiApp {
    /// The world.
    pub world: GuiWorld,
    tesla: Option<(Arc<Tesla>, RtClassId, NameId)>,
}

impl GuiApp {
    /// Build the app in the given instrumentation tier, with a small
    /// dialog-like scene: a grid of cell-backed views and one
    /// cursor-tracking view.
    pub fn new(mode: GuiMode, bugs: GuiBugs) -> GuiApp {
        let trace_mode = match mode {
            GuiMode::Release => TraceMode::Release,
            _ => TraceMode::TracingEnabled,
        };
        let mut world = GuiWorld::new(trace_mode, bugs);
        // The scene: 6 plain views and one tracking view.
        for i in 0..6 {
            world.add_view((i * 20, 0, 15, 15), 0);
        }
        world.add_view((0, 40, 20, 20), 1);

        let tesla = match mode {
            GuiMode::Release | GuiMode::TracingEnabled => None,
            GuiMode::Interposed => {
                world
                    .rt
                    .set_interposer(Arc::new(TrivialInterposer::default()));
                None
            }
            GuiMode::Tesla(engine) => Some((engine, None)),
            GuiMode::TeslaTracing(engine, handler) => Some((engine, Some(handler))),
        }
        .map(|(engine, handler)| {
            // Register the fig. 8 automaton over every selector.
            let selectors: Vec<String> = (0..world.rt.n_selectors() as u32)
                .map(|i| world.rt.sel_name(objc::Sel(i)).to_string())
                .collect();
            let auto =
                tesla_automata::compile(&figure8_assertion(&selectors)).expect("figure 8 compiles");
            let class = engine.register(auto).expect("registration succeeds");
            let bound = engine.intern_fn("run_loop_iteration");
            world
                .rt
                .set_interposer(Arc::new(TeslaInterposer::new(engine.clone(), handler)));
            (engine, class, bound)
        });
        GuiApp { world, tesla }
    }

    /// One run-loop iteration: deliver the events, then redraw. The
    /// iteration is the temporal bound; the assertion site sits at
    /// its end, as the paper placed its instrumentation points "at
    /// the start and end of a run-loop iteration".
    ///
    /// # Errors
    ///
    /// Propagates TESLA fail-stops from interposition.
    pub fn run_loop_iteration(&mut self, events: &[UiEvent]) -> Result<(), String> {
        if let Some((engine, _, bound)) = &self.tesla {
            engine.fn_entry(*bound, &[]).map_err(|v| v.to_string())?;
        }
        let mut result = Ok(());
        for ev in events {
            result = self.world.deliver(*ev);
            if result.is_err() {
                break;
            }
        }
        if result.is_ok() {
            result = self.world.redraw();
        }
        if let Some((engine, class, bound)) = &self.tesla {
            if result.is_ok() {
                engine
                    .assertion_site(*class, &[])
                    .map_err(|v| v.to_string())?;
            }
            engine
                .fn_exit(*bound, &[], Value(0))
                .map_err(|v| v.to_string())?;
        }
        result
    }
}

/// Offline analysis of a collected trace: detect unbalanced cursor
/// push/pop — "the same cursors were pushed onto the cursor stack
/// multiple times" (§3.5.3).
pub fn cursor_imbalance(trace: &[TraceEvent]) -> i64 {
    let mut depth: i64 = 0;
    let mut entered: i64 = 0;
    for ev in trace {
        if !ev.entry {
            continue;
        }
        match ev.selector.as_str() {
            "push" => depth += 1,
            "pop" => depth -= 1,
            "mouseEntered:" => entered += 1,
            "mouseExited:" => entered -= 1,
            _ => {}
        }
    }
    // A healthy session returns to zero; the bug leaves residue.
    depth.max(entered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use tesla_runtime::{Config, FailMode};

    fn drive(app: &mut GuiApp) {
        // An Xnee-ish little session: move over the tracking view,
        // invalidate, move again, leave, expose.
        app.run_loop_iteration(&[UiEvent::MouseMoved(5, 45)])
            .unwrap();
        app.run_loop_iteration(&[UiEvent::InvalidateTracking])
            .unwrap();
        app.run_loop_iteration(&[UiEvent::MouseMoved(6, 46)])
            .unwrap();
        app.run_loop_iteration(&[UiEvent::MouseMoved(500, 500)])
            .unwrap();
        app.run_loop_iteration(&[UiEvent::Expose]).unwrap();
    }

    #[test]
    fn all_modes_render_identically() {
        let fb = |mode: GuiMode| {
            let mut app = GuiApp::new(mode, GuiBugs::default());
            drive(&mut app);
            app.world.framebuffer.clone()
        };
        let engine = Arc::new(Tesla::with_defaults());
        let release = fb(GuiMode::Release);
        assert_eq!(release, fb(GuiMode::TracingEnabled));
        assert_eq!(release, fb(GuiMode::Interposed));
        assert_eq!(release, fb(GuiMode::Tesla(engine)));
        assert!(!release.is_empty());
    }

    #[test]
    fn tesla_traces_reveal_the_cursor_bug() {
        let trace = Arc::new(Mutex::new(Vec::new()));
        let sink = trace.clone();
        let engine = Arc::new(Tesla::new(Config {
            fail_mode: FailMode::Log,
            ..Config::default()
        }));
        let handler: Arc<dyn Fn(&TraceEvent) + Send + Sync> =
            Arc::new(move |ev| sink.lock().unwrap().push(ev.clone()));

        // Healthy app: balanced.
        let mut app = GuiApp::new(
            GuiMode::TeslaTracing(engine.clone(), handler.clone()),
            GuiBugs::default(),
        );
        drive(&mut app);
        assert_eq!(cursor_imbalance(&trace.lock().unwrap()), 0);
        assert!(app.world.cursor_stack.is_empty());

        // Buggy app: the trace shows unpaired pushes.
        trace.lock().unwrap().clear();
        let bugs = GuiBugs {
            duplicate_cursor_push: true,
            ..GuiBugs::default()
        };
        let mut app = GuiApp::new(GuiMode::TeslaTracing(engine, handler), bugs);
        drive(&mut app);
        assert!(cursor_imbalance(&trace.lock().unwrap()) > 0);
        assert!(!app.world.cursor_stack.is_empty());
    }

    #[test]
    fn tesla_traces_reveal_the_non_lifo_backend_bug() {
        let trace = Arc::new(Mutex::new(Vec::new()));
        let sink = trace.clone();
        let engine = Arc::new(Tesla::new(Config {
            fail_mode: FailMode::Log,
            ..Config::default()
        }));
        let handler: Arc<dyn Fn(&TraceEvent) + Send + Sync> =
            Arc::new(move |ev| sink.lock().unwrap().push(ev.clone()));
        let bugs = GuiBugs {
            backend_lifo_only: true,
            ..GuiBugs::default()
        };
        let mut app = GuiApp::new(GuiMode::TeslaTracing(engine, handler), bugs);
        let colors = app.world.draw_non_lifo_scene().unwrap();
        // Wrong rendering...
        assert_ne!(colors, vec![0xff0000, 0x0000ff, 0xff0000]);
        // ...and the trace shows exactly the non-LIFO setGState:
        // sequence that the backend author "was not aware … was a
        // valid sequence of operations".
        let sets: Vec<String> = trace
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.entry && e.selector == "setGState:")
            .map(|e| e.selector.clone())
            .collect();
        assert_eq!(sets.len(), 3);
    }

    #[test]
    fn figure8_automaton_counts_method_events() {
        let registry = Arc::new(tesla_runtime::MetricsRegistry::new());
        let engine = Arc::new(Tesla::with_defaults());
        engine.add_handler(registry.clone());
        let mut app = GuiApp::new(GuiMode::Tesla(engine), GuiBugs::default());
        drive(&mut app);
        // The tracing automaton consumed plenty of events.
        let updates = registry.weights().grand_total();
        assert!(updates > 10, "updates: {updates}");
        assert_eq!(registry.violations(), 0);
    }

    #[test]
    fn message_send_counts_scale_with_tier() {
        let mut release = GuiApp::new(GuiMode::Release, GuiBugs::default());
        drive(&mut release);
        let engine = Arc::new(Tesla::with_defaults());
        let mut tesla = GuiApp::new(GuiMode::Tesla(engine), GuiBugs::default());
        drive(&mut tesla);
        // Same dispatch count regardless of tier — the overhead is in
        // the per-send work, not the message mix.
        assert_eq!(release.world.rt.sends, tesla.world.rt.sends);
    }
}
