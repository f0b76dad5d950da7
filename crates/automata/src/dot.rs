//! Graphviz rendering of automata (fig. 9).
//!
//! "TESLA can combine observations of dynamic behaviour with static
//! automata descriptions, producing weighted graphs … the programmer
//! can visually inspect the portions of the state graph that are
//! executed in practice, as well as their relative frequencies"
//! (§4.4.2). The weight source is `tesla-runtime`'s counting handler;
//! this module only needs a `(state, symbol) → count` lookup.

use crate::automaton::Automaton;
use crate::dfa::Dfa;
use crate::symbol::{SymbolId, SymbolKind};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Per-transition run-time weights for rendering.
pub trait WeightSource {
    /// How many times `from --sym-->` fired at run time.
    fn weight(&self, from: u32, sym: u32) -> u64;
}

/// No weights: uniform pen width.
pub struct Unweighted;

impl WeightSource for Unweighted {
    fn weight(&self, _from: u32, _sym: u32) -> u64 {
        0
    }
}

impl<F: Fn(u32, u32) -> u64> WeightSource for F {
    fn weight(&self, from: u32, sym: u32) -> u64 {
        self(from, sym)
    }
}

/// A dense `(state, symbol) → count` snapshot, decoupled from
/// whatever live counter structure produced it. The runtime's
/// telemetry registry exports its per-class transition tables in this
/// shape (state ids follow [`Dfa::from_automaton`]'s deterministic
/// BFS order, the same order `render` uses), so weighted fig. 9
/// graphs can be drawn from a frozen snapshot while dispatch
/// continues.
pub struct DenseWeights {
    n_symbols: usize,
    cells: Vec<u64>,
}

impl DenseWeights {
    /// Build from sparse `(from_state, symbol, count)` triples.
    pub fn from_triples(
        n_states: u32,
        n_symbols: usize,
        triples: impl IntoIterator<Item = (u32, u32, u64)>,
    ) -> Self {
        let mut cells = vec![0u64; n_states as usize * n_symbols];
        for (from, sym, count) in triples {
            if (from as usize) < n_states as usize && (sym as usize) < n_symbols {
                cells[from as usize * n_symbols + sym as usize] += count;
            }
        }
        DenseWeights { n_symbols, cells }
    }

    /// Total firings across all transitions.
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }
}

impl WeightSource for DenseWeights {
    fn weight(&self, from: u32, sym: u32) -> u64 {
        self.cells
            .get(from as usize * self.n_symbols + sym as usize)
            .copied()
            .unwrap_or(0)
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render the automaton body as a Graphviz digraph, in the style of
/// figure 9: a synthetic entry node for «init», cleanup edges from
/// every cleanup-safe state, and transitions weighted (pen width and
/// count labels) by run-time occurrence.
pub fn render(automaton: &Automaton, weights: &dyn WeightSource) -> String {
    render_inner(automaton, weights, None, &[])
}

/// Palette for merge-group fills: one colour per group, cycled.
const GROUP_COLORS: &[&str] = &[
    "lightsalmon",
    "lightskyblue",
    "palegreen",
    "plum",
    "khaki",
    "lightpink",
];

/// Render the automaton with the linter's mergeable-state groups
/// highlighted: every state in the same group (indistinguishable
/// under Hopcroft minimisation of the determinised automaton) is
/// filled with the same colour, so the redundancy is visible at a
/// glance. `groups` uses [`Dfa::from_automaton`] state indices — the
/// same deterministic BFS order `render` draws — as produced by
/// `analysis::merge_groups`.
pub fn render_with_merge_groups(automaton: &Automaton, groups: &[Vec<u32>]) -> String {
    render_inner(automaton, &Unweighted, None, groups)
}

/// The replayed counterexample path through the determinised
/// automaton, precomputed for highlighting.
struct Highlight {
    /// `(state, symbol)` body edges on the error path.
    hot: HashSet<(u32, u32)>,
    /// The «init» edge is on the path.
    init_hot: bool,
    /// The violating final step: source DFA state and edge label.
    violation: Option<(u32, String)>,
}

/// Render the automaton with a counterexample event trace (from the
/// flow-sensitive model checker) highlighted in red: every edge the
/// trace takes is bold, and the final — violating — step is drawn
/// into a synthetic `violation` node, since by definition the
/// automaton has no legal transition for it.
///
/// `trace` is the symbol sequence of the counterexample, starting
/// with the automaton's «init» symbol; symbols with no transition
/// from the current state are rendered as the violation and end the
/// walk.
pub fn render_with_trace(automaton: &Automaton, trace: &[SymbolId]) -> String {
    let dfa = Dfa::from_automaton(automaton);
    let mut hl = Highlight {
        hot: HashSet::new(),
        init_hot: false,
        violation: None,
    };
    let mut state = dfa.start;
    for (i, sym) in trace.iter().enumerate() {
        let last = i + 1 == trace.len();
        if *sym == automaton.init_sym {
            hl.init_hot = true;
            state = dfa.start;
            continue;
        }
        let label = if *sym == automaton.cleanup_sym {
            "«cleanup»".to_string()
        } else {
            match &automaton.symbols[sym.0 as usize].kind {
                SymbolKind::Site => "«assertion»".to_string(),
                k => k.to_string(),
            }
        };
        // «cleanup» has no body transition, so it too ends the walk.
        match dfa.next(state, *sym) {
            // The last trace step is the violation even when a
            // state-level transition exists (the failure may be at
            // the binding level: no instance can accept it).
            Some(next) if !last => {
                hl.hot.insert((state, sym.0));
                state = next;
            }
            _ => {
                hl.violation = Some((state, label));
                break;
            }
        }
    }
    render_inner(automaton, &Unweighted, Some(&hl), &[])
}

fn render_inner(
    automaton: &Automaton,
    weights: &dyn WeightSource,
    highlight: Option<&Highlight>,
    merge_groups: &[Vec<u32>],
) -> String {
    let dfa = Dfa::from_automaton(automaton);
    // state → merge-group colour, for the linter's redundancy view.
    let mut group_color = vec![None; dfa.states.len()];
    for (gi, group) in merge_groups.iter().enumerate() {
        for &s in group {
            if let Some(slot) = group_color.get_mut(s as usize) {
                *slot = Some(GROUP_COLORS[gi % GROUP_COLORS.len()]);
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", esc(&automaton.name));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=ellipse, fontname=\"Helvetica\"];");
    let _ = writeln!(
        out,
        "  entry [label=\"{}\\n(Entry)\", shape=box];",
        esc(&format!("{}({})", automaton.bound.start_fn, ""))
    );
    let _ = writeln!(
        out,
        "  exit [label=\"{}\\n(Exit)\", shape=box];",
        esc(&automaton.bound.end_fn)
    );
    for (i, set) in dfa.states.iter().enumerate() {
        let style = if automaton.accepting.intersects(set) {
            ", peripheries=2"
        } else {
            ""
        };
        let fill = match group_color[i] {
            Some(color) => format!(", style=filled, fillcolor={color}"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "  s{i} [label=\"state {i}\\n\\\"{}\\\"\"{style}{fill}];",
            esc(&dfa.label(i as u32))
        );
    }
    // «init» edge.
    let init_hot = highlight.map(|h| h.init_hot).unwrap_or(false);
    if init_hot {
        let _ = writeln!(
            out,
            "  entry -> s0 [label=\"«init»\", style=dashed, color=red, penwidth=3.00];"
        );
    } else {
        let _ = writeln!(out, "  entry -> s0 [label=\"«init»\", style=dashed];");
    }
    // Body transitions.
    let max_w = dfa
        .edges()
        .map(|(i, sym, _)| weights.weight(i, sym.0))
        .fold(1, u64::max);
    for (i, sym, tgt) in dfa.edges() {
        let label = match &automaton.symbols[sym.0 as usize].kind {
            SymbolKind::Site => "«assertion»".to_string(),
            k => k.to_string(),
        };
        let w = weights.weight(i, sym.0);
        let hot = highlight
            .map(|h| h.hot.contains(&(i, sym.0)))
            .unwrap_or(false);
        let pen = if hot {
            3.0
        } else {
            1.0 + 4.0 * (w as f64) / (max_w as f64)
        };
        let color = if hot { ", color=red" } else { "" };
        let wl = if w > 0 {
            format!(" ({w}×)")
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  s{i} -> s{tgt} [label=\"{}{}\", penwidth={pen:.2}{color}];",
            esc(&label),
            wl
        );
    }
    // «cleanup» edges from cleanup-safe states.
    for (i, set) in dfa.states.iter().enumerate() {
        if automaton.finalise_ok(set) {
            let _ = writeln!(out, "  s{i} -> exit [label=\"«cleanup»\", style=dashed];");
        }
    }
    // The violating step of a highlighted counterexample trace: by
    // construction the automaton cannot accept it, so it targets a
    // synthetic error node.
    if let Some((from, label)) = highlight.and_then(|h| h.violation.as_ref()) {
        let _ = writeln!(
            out,
            "  violation [label=\"violation\", shape=octagon, color=red, fontcolor=red];"
        );
        let _ = writeln!(
            out,
            "  s{from} -> violation [label=\"{}\", color=red, penwidth=3.00, style=bold];",
            esc(label)
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::compile;
    use tesla_spec::{call, AssertionBuilder, ExprBuilder};

    fn mac_poll() -> Automaton {
        let a = AssertionBuilder::syscall()
            .named("figure9")
            .previously(
                call("mac_socket_check_poll")
                    .any_ptr()
                    .arg_var("so")
                    .returns(0),
            )
            .build()
            .unwrap();
        compile(&a).unwrap()
    }

    #[test]
    fn renders_figure9_structure() {
        let dot = render(&mac_poll(), &Unweighted);
        assert!(dot.contains("digraph \"figure9\""));
        assert!(dot.contains("«init»"));
        assert!(dot.contains("«cleanup»"));
        assert!(dot.contains("«assertion»"));
        assert!(dot.contains("mac_socket_check_poll"));
        assert!(dot.contains("NFA:"));
        assert!(dot.contains("amd64_syscall"));
        // Balanced braces — parseable by graphviz.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn weights_scale_pen_width() {
        let weigher = |from: u32, _sym: u32| if from == 0 { 100u64 } else { 1 };
        let dot = render(&mac_poll(), &weigher);
        assert!(dot.contains("(100×)"));
        assert!(dot.contains("penwidth=5.00"));
    }

    #[test]
    fn dense_weights_snapshot_renders_like_closure() {
        let a = mac_poll();
        let dfa = Dfa::from_automaton(&a);
        // Weight 100 on every symbol out of state 0, mirroring the
        // closure in `weights_scale_pen_width`; out-of-range triples
        // are dropped rather than panicking.
        let triples = (0..a.n_symbols() as u32)
            .map(|sym| (0u32, sym, 100u64))
            .chain([(u32::MAX, 0, 5), (0, u32::MAX, 5)]);
        let dense = DenseWeights::from_triples(dfa.states.len() as u32, a.n_symbols(), triples);
        assert_eq!(dense.weight(0, 0), 100);
        assert_eq!(dense.weight(u32::MAX, 0), 0);
        assert_eq!(dense.total(), 100 * a.n_symbols() as u64);
        let dot = render(&mac_poll(), &dense);
        assert!(dot.contains("(100×)"));
        assert!(dot.contains("penwidth=5.00"));
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn trace_highlights_error_path() {
        let a = mac_poll();
        // «init» straight to the assertion site with no prior check:
        // the site step is the violation.
        let dot = render_with_trace(&a, &[a.init_sym, a.site_sym]);
        assert!(dot.contains("entry -> s0 [label=\"«init»\", style=dashed, color=red"));
        assert!(dot.contains("violation [label=\"violation\", shape=octagon"));
        assert!(dot.contains("-> violation [label=\"«assertion»\", color=red"));
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn matched_trace_steps_are_bold_red() {
        let a = mac_poll();
        let check = a
            .symbols
            .iter()
            .find(|s| s.kind.to_string().contains("mac_socket_check_poll"))
            .expect("check symbol")
            .id;
        let dot = render_with_trace(&a, &[a.init_sym, check, a.site_sym]);
        // The check edge is walked (red, bold), and the final site
        // step still ends in the violation node: a site event can
        // fail at the binding level even where a state transition
        // exists.
        assert!(dot.contains("penwidth=3.00, color=red"));
        assert!(dot.contains("-> violation [label=\"«assertion»\""));
    }

    #[test]
    fn plain_render_is_unchanged_by_highlight_machinery() {
        let dot = render(&mac_poll(), &Unweighted);
        assert!(!dot.contains("violation ["));
        assert!(!dot.contains("color=red"));
        assert!(!dot.contains("fillcolor"));
    }

    #[test]
    fn merge_groups_share_a_fill_color() {
        // An exclusive-or of two one-event branches determinises into
        // two indistinguishable post-event states — the linter's
        // dead-state pathology.
        let a = AssertionBuilder::within("f")
            .named("xor")
            .previously(
                ExprBuilder::from(call("push").any("int").returns(1))
                    .xor(call("pop").any("int").returns(1)),
            )
            .build()
            .unwrap();
        let auto = compile(&a).unwrap();
        let dfa = Dfa::from_automaton(&auto);
        let groups = crate::analysis::merge_groups(&auto, &dfa);
        assert!(!groups.is_empty(), "xor shape should have mergeable states");
        let dot = render_with_merge_groups(&auto, &groups);
        // Every state in the first group carries the same fill.
        let color = GROUP_COLORS[0];
        for &s in &groups[0] {
            assert!(
                dot.contains(&format!("s{s} [label=")) && dot.contains(color),
                "state s{s} should be filled {color}"
            );
        }
        assert_eq!(
            dot.matches(&format!("fillcolor={color}")).count(),
            groups[0].len()
        );
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
