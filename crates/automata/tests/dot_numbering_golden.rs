//! Golden files pinning DFA state numbering on non-chain shapes.
//!
//! The `s{i}` node ids of the fig. 9 rendering are the determiniser's
//! breadth-first discovery order. Transition-weight rows, lint L004's
//! mergeable state groups and fuzz coverage cells all cite the same
//! ids, so the order must not drift. A chain automaton numbers its
//! states the same way under any traversal; an `||` cross-product and
//! an `^` with mergeable states do not. Regenerate with the snippets
//! below only if the numbering is meant to change:
//!
//! ```ignore
//! std::fs::write("tests/golden/or3_product.dot", dot::render(&or3(), &Unweighted)).unwrap();
//! let groups = merge_groups(&xor(), &Dfa::from_automaton(&xor()));
//! std::fs::write("tests/golden/xor_merge_groups.dot", dot::render_with_merge_groups(&xor(), &groups)).unwrap();
//! ```

use tesla_automata::dot::{self, Unweighted};
use tesla_automata::{compile, merge_groups, Automaton, Dfa};
use tesla_spec::{call, AssertionBuilder, ExprBuilder};

fn or3() -> Automaton {
    let a = AssertionBuilder::syscall()
        .named("or3")
        .previously(
            ExprBuilder::from(call("a").returns(0))
                .or(call("b").returns(0))
                .or(call("c").returns(0)),
        )
        .build()
        .unwrap();
    compile(&a).unwrap()
}

fn xor() -> Automaton {
    let a = AssertionBuilder::within("f")
        .named("xor")
        .previously(
            ExprBuilder::from(call("push").any("int").returns(1))
                .xor(call("pop").any("int").returns(1)),
        )
        .build()
        .unwrap();
    compile(&a).unwrap()
}

#[test]
fn or_cross_product_dot_matches_golden() {
    let dot = dot::render(&or3(), &Unweighted);
    let golden = include_str!("golden/or3_product.dot");
    assert_eq!(dot, golden, "a || b || c state numbering drifted");
}

#[test]
fn xor_merge_groups_dot_matches_golden() {
    let a = xor();
    let groups = merge_groups(&a, &Dfa::from_automaton(&a));
    assert_eq!(groups, vec![vec![1, 2]]);
    let dot = dot::render_with_merge_groups(&a, &groups);
    let golden = include_str!("golden/xor_merge_groups.dot");
    assert_eq!(dot, golden, "xor merge-group rendering drifted");
}
