//! Cross-crate integration: the full TESLA toolchain — mini-C source
//! with `TESLA_*` macros → analyser → `.tesla` manifests → merged
//! instrumentation plan → woven TIR → interpreter + libtesla — on
//! multi-unit programs, including the §4.2 instrument-before-optimise
//! ordering requirement.

use tesla::pipeline::{run_with_tesla, BuildOptions, BuildSystem, Project};
use tesla_ir::opt::optimise;
use tesla_runtime::Tesla;

/// A three-unit program shaped like the paper's MAC scenario: the
/// syscall layer, the socket layer with the assertion, and a check
/// function — events and assertions spread across units.
fn mac_project(do_check: bool) -> Project {
    let check_call = if do_check {
        "mac_socket_check_poll(cred, so);"
    } else {
        ""
    };
    Project::from_sources(&[
        (
            "mac.c",
            "struct socket { int so_state; };\n\
             int mac_socket_check_poll(int cred, struct socket *so) { return 0; }",
        ),
        (
            "uipc_socket.c",
            "struct socket { int so_state; };\n\
             int sopoll_generic(int cred, struct socket *so) {\n\
                 TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(ANY(int), so) == 0);\n\
                 so->so_state = 1;\n\
                 return 0;\n\
             }",
        ),
        (
            "syscall.c",
            &format!(
                "struct socket {{ int so_state; }};\n\
                 int mac_socket_check_poll(int cred, struct socket *so);\n\
                 int sopoll_generic(int cred, struct socket *so);\n\
                 int amd64_syscall(int cred) {{\n\
                     struct socket *so = malloc(sizeof(struct socket));\n\
                     {check_call}\n\
                     return sopoll_generic(cred, so);\n\
                 }}"
            ),
        ),
    ])
}

#[test]
fn checked_program_passes_unchecked_fails() {
    for (do_check, ok) in [(true, true), (false, false)] {
        let mut bs = BuildSystem::new(mac_project(do_check), BuildOptions::tesla_toolchain());
        let art = bs.build().unwrap();
        let t = Tesla::with_defaults();
        let r = run_with_tesla(&art, &t, "amd64_syscall", &[7], 1_000_000);
        assert_eq!(r.is_ok(), ok, "do_check={do_check}: {r:?}");
        if !ok {
            assert!(r.unwrap_err().contains("uipc_socket.c"));
        }
    }
}

#[test]
fn default_toolchain_ignores_assertions_entirely() {
    // The same buggy program, built without TESLA: runs fine (the
    // vulnerability ships silently).
    let mut bs = BuildSystem::new(mac_project(false), BuildOptions::default_toolchain());
    let art = bs.build().unwrap();
    let mut i = tesla_ir::Interp::new(&art.program, 1_000_000);
    assert_eq!(
        i.run_named("amd64_syscall", &[7], &mut tesla_ir::NullSink)
            .unwrap(),
        0
    );
}

#[test]
fn instrument_then_optimise_keeps_events_optimise_first_loses_them() {
    // §4.2: "Instrumentation is not robust in the presence of
    // function inlining ... so we run the TESLA instrumenter before
    // optimisation." Demonstrate both orders on a unit whose check
    // function is small enough to inline.
    let out = tesla_cc::compile_unit(
        "int check(int x) { return 0; }\n\
         int main(int x) {\n\
             check(x);\n\
             TESLA_WITHIN(main, previously(check(x) == 0));\n\
             return 0;\n\
         }",
        "order.c",
    )
    .unwrap();
    let manifest = tesla_automata::Manifest::merge(std::slice::from_ref(&out.manifest));

    // optimise-then-instrument: inlining erases the check call before
    // hooks exist; the woven program misses the event and the
    // assertion fires spuriously.
    let mut wrong = out.module.clone();
    optimise(&mut wrong);
    tesla_instrument::instrument(&mut wrong, &manifest).unwrap();
    let t = Tesla::with_defaults();
    tesla_instrument::register_manifest(&t, &manifest).unwrap();
    let mut sink = tesla_instrument::RuntimeSink::new(&t);
    let mut i = tesla_ir::Interp::new(&wrong, 1_000_000);
    let r = i.run_named("main", &[3], &mut sink);
    assert!(
        r.is_err(),
        "optimise-first should lose the check event and violate"
    );

    // instrument-then-optimise (the pipeline's order): all events
    // observed, assertion satisfied — and the instrumented callee was
    // protected from inlining.
    let mut right = out.module;
    tesla_instrument::instrument(&mut right, &manifest).unwrap();
    optimise(&mut right);
    let t = Tesla::with_defaults();
    tesla_instrument::register_manifest(&t, &manifest).unwrap();
    let mut sink = tesla_instrument::RuntimeSink::new(&t);
    let mut i = tesla_ir::Interp::new(&right, 1_000_000);
    i.run_named("main", &[3], &mut sink).unwrap();
}

#[test]
fn manifests_link_across_units_like_tesla_files() {
    // The .tesla interchange: write per-unit manifests to text, merge
    // the parsed forms, derive the program-wide instrumentation plan.
    let project = mac_project(true);
    let mut outs = Vec::new();
    for u in &project.units {
        outs.push(tesla_cc::compile_unit(&u.source, &u.file).unwrap());
    }
    let texts: Vec<String> = outs
        .iter()
        .map(|o| tesla::manifest::to_tesla(&o.manifest))
        .collect();
    let parsed: Vec<tesla_automata::Manifest> = texts
        .iter()
        .map(|t| tesla::manifest::from_tesla(t).unwrap())
        .collect();
    let merged = tesla_automata::Manifest::merge(&parsed);
    assert_eq!(merged.entries.len(), 1);
    let plan = merged.instrumentation_plan().unwrap();
    assert!(plan.contains_key("mac_socket_check_poll"));
    assert!(plan.contains_key("amd64_syscall"));
}

/// The toolchain's hand-off formats round-trip on every corpus: each
/// unit's TIR module through the IR codec, and each unit's and each
/// program's manifest through the `.tesla` text.
#[test]
fn corpus_manifests_and_modules_roundtrip() {
    use tesla::corpus;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/minic");
    let mut examples: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .map(|p| {
            let source = std::fs::read_to_string(&p).unwrap();
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                source,
            )
        })
        .collect();
    examples.sort();
    let examples: Vec<(&str, &str)> = examples
        .iter()
        .map(|(f, s)| (f.as_str(), s.as_str()))
        .collect();
    let projects = [
        corpus::openssl_like(4),
        corpus::openssl_like_patched(4),
        corpus::openssl_like_buggy(4),
        corpus::kernel_like(20, 85),
        Project::from_sources(&examples),
    ];
    let roundtrip = |m: &tesla_automata::Manifest| {
        let text = tesla::manifest::to_tesla(m);
        assert_eq!(&tesla::manifest::from_tesla(&text).unwrap(), m, "{text}");
    };
    let mut assertions = 0;
    for project in &projects {
        let mut manifests = Vec::new();
        for u in &project.units {
            let out = tesla_cc::compile_unit(&u.source, &u.file).unwrap();
            let back = tesla_ir::decode(&tesla_ir::encode(&out.module));
            assert_eq!(back.as_ref(), Ok(&out.module), "{}", u.file);
            roundtrip(&out.manifest);
            assertions += out.manifest.entries.len();
            manifests.push(out.manifest);
        }
        roundtrip(&tesla_automata::Manifest::merge(&manifests));
    }
    // One per OpenSSL-shaped client, 85 in the kernel corpus and 7 in
    // the examples.
    assert_eq!(assertions, 95);
}

#[test]
fn figure9_dot_graph_renders_with_runtime_weights() {
    use std::sync::Arc;
    use tesla_runtime::MetricsRegistry;
    let mut bs = BuildSystem::new(mac_project(true), BuildOptions::tesla_toolchain());
    let art = bs.build().unwrap();
    let t = Tesla::with_defaults();
    let registry = Arc::new(MetricsRegistry::new());
    t.add_handler(registry.clone());
    for _ in 0..5 {
        run_with_tesla(&art, &t, "amd64_syscall", &[7], 1_000_000).unwrap();
    }
    let defs = t.class_defs();
    let auto = &defs[0].automaton;
    let weights = registry.weight_source(0).expect("weights for class 0");
    let dot = tesla_automata::dot::render(auto, &*weights);
    assert!(dot.contains("mac_socket_check_poll"));
    assert!(dot.contains("×)"), "weights rendered: {dot}");
}

#[test]
fn incremental_rebuild_shape_default_vs_tesla() {
    // The fig. 10 asymmetry as a correctness property: after touching
    // one of N files, the default toolchain recompiles 1 unit and
    // instruments 0; the TESLA toolchain recompiles 1 but
    // re-instruments all N.
    let project = tesla::corpus::openssl_like(10);
    let mut default_bs = BuildSystem::new(project.clone(), BuildOptions::default_toolchain());
    let mut tesla_bs = BuildSystem::new(project, BuildOptions::tesla_toolchain());
    default_bs.build().unwrap();
    tesla_bs.build().unwrap();
    default_bs.touch("ssl/layer3.c");
    tesla_bs.touch("ssl/layer3.c");
    let d = default_bs.build().unwrap();
    let t = tesla_bs.build().unwrap();
    assert_eq!(d.stats.compiled_units, 1);
    assert_eq!(d.stats.instrumented_units, 0);
    assert_eq!(t.stats.compiled_units, 1);
    assert_eq!(t.stats.instrumented_units, 10);
}

/// Every assertion the builder builds is readable from both hand-off
/// formats. Nested deeper than the spec parser's 64 levels, it is
/// refused at `build`, before a `.tesla` manifest or an IR file can
/// hold it. Each nesting combinator is driven across that bound.
#[test]
fn deep_assertions_are_refused_where_they_are_built() {
    use tesla_spec::{atleast, call, AssertionBuilder, ExprBuilder, SpecError};
    type Wrap = fn(ExprBuilder) -> ExprBuilder;
    let combinators: [(&str, Wrap); 9] = [
        ("optional", |e| e.optional()),
        ("strict", |e| e.strict()),
        ("caller", |e| e.caller()),
        ("callee", |e| e.callee()),
        ("conditional", |e| e.conditional()),
        ("then", |e| ExprBuilder::from(call("g")).then(e)),
        ("or", |e| ExprBuilder::from(call("g")).or(e)),
        ("xor", |e| ExprBuilder::from(call("g")).xor(e)),
        ("atleast", |e| atleast(1, vec![e])),
    ];
    let build = |wrap: Wrap, levels: usize| {
        let mut e = ExprBuilder::from(call("check").arg_var("x").returns(0));
        for _ in 0..levels {
            e = wrap(e);
        }
        AssertionBuilder::within("req")
            .named("deep")
            .previously(e)
            .build()
    };
    // `previously` is level 1 and the call sits below the wrappers:
    // 62 of them reach the parser's 64 levels, 63 go one past.
    assert!(build(combinators[0].1, 62).is_ok());
    assert_eq!(
        build(combinators[0].1, 63).err(),
        Some(SpecError::TooDeep(65))
    );
    for (name, wrap) in combinators {
        let mut refused = false;
        for levels in 60..=66 {
            match build(wrap, levels) {
                Ok(a) => {
                    assert!(
                        !refused,
                        "{name} x{levels} built after a shallower one was refused"
                    );
                    let mut manifest = tesla_automata::Manifest::new();
                    manifest.push("deep.c", a.clone());
                    let text = tesla::manifest::to_tesla(&manifest);
                    assert_eq!(
                        tesla::manifest::from_tesla(&text).as_ref(),
                        Ok(&manifest),
                        "{name} x{levels}"
                    );
                    let module = tesla_ir::Module {
                        name: "deep.c".into(),
                        assertions: vec![tesla_ir::module::ModuleAssertion {
                            assertion: std::sync::Arc::new(a),
                        }],
                        ..tesla_ir::Module::default()
                    };
                    let back = tesla_ir::decode(&tesla_ir::encode(&module));
                    assert_eq!(back.as_ref(), Ok(&module), "{name} x{levels}");
                }
                Err(e) => {
                    assert!(
                        matches!(e, SpecError::TooDeep(65..)),
                        "{name} x{levels}: {e}"
                    );
                    refused = true;
                }
            }
        }
        assert!(refused, "{name}: 66 levels must cross the bound");
    }
}
