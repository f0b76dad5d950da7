//! Property tests: every assertion the builder can construct prints
//! to surface syntax that re-parses to the identical assertion
//! (expression tree, variable table, bounds, context), from shallow
//! trees to spines at the parser's depth bound and constants at the
//! ends of their types; one nested past that bound is refused by the
//! builder instead.

#[path = "support/assertion_gen.rs"]
mod assertion_gen;

use assertion_gen::{
    build, build_expr, build_previously, expr_gen, recipe, EventRecipe, ExprRecipe, Reach,
};
use std::cell::RefCell;
use tesla_prop::{check, prop_assert, prop_assert_eq};
use tesla_spec::{parse_assertion, Assertion, AssertionBuilder};

const SEED: u64 = 0x5bec;

fn print_parse_roundtrips(a: &Assertion) -> Result<(), String> {
    let printed = a.to_string();
    let back =
        parse_assertion(&printed).unwrap_or_else(|e| panic!("re-parse of `{printed}` failed: {e}"));
    prop_assert_eq!(&a.expr, &back.expr, "printed: {}", printed);
    prop_assert_eq!(&a.variables, &back.variables, "printed: {}", printed);
    prop_assert_eq!(a.bounds, back.bounds);
    prop_assert_eq!(a.context, back.context);
    Ok(())
}

#[test]
fn print_parse_roundtrip() {
    let reach = RefCell::new(Reach::default());
    check(256, SEED, recipe, |r| {
        let built = build(&r)?;
        reach.borrow_mut().note(&built);
        match built {
            Ok(a) => print_parse_roundtrips(&a),
            Err(_) => Ok(()),
        }
    });
    reach.into_inner().assert_complete();
}

/// A failure `print_parse_roundtrip` once found and shrank: an `||`
/// of a bare call and a message send without arguments.
#[test]
fn print_parse_roundtrip_or_of_call_and_msg() {
    let recipe = ExprRecipe::Or(vec![
        ExprRecipe::Event(EventRecipe::Call {
            f: 0,
            args: vec![],
            ret: None,
            entry: false,
        }),
        ExprRecipe::Event(EventRecipe::Msg { s: 2, n_args: 0 }),
    ]);
    print_parse_roundtrips(&build_previously(build_expr(&recipe), false).unwrap()).unwrap();
}

/// Every builder-produced assertion validates and (state-cap
/// permitting) compiles to an automaton whose symbol patterns
/// reference only declared variables.
#[test]
fn built_assertions_validate() {
    check(
        256,
        SEED,
        |g| expr_gen(g, 3),
        |recipe| {
            let a = AssertionBuilder::within("f")
                .previously(build_expr(&recipe))
                .build()
                .unwrap();
            prop_assert!(a.validate().is_ok());
            let n_vars = a.variables.len();
            a.expr.for_each_event(&mut |e| {
                for v in e.referenced_vars() {
                    assert!(v < n_vars, "variable index {v} out of range {n_vars}");
                }
            });
            Ok(())
        },
    );
}
