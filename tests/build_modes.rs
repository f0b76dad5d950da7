//! Differential tests for the two re-instrumentation policies.
//!
//! `Delta` exists purely as a build *optimisation*: for any sequence
//! of edits it must be observationally equivalent to the paper's
//! `Naive` toolchain — identical linked program, manifest,
//! model-checker verdicts, and runtime behaviour — while re-weaving
//! strictly fewer units. These tests drive both policies through
//! identical randomized edit scripts and compare everything that is
//! observable, then pin the delta-invalidation rule down exactly:
//! an assertion edit re-weaves the units the changed plan slice can
//! touch, and nothing else.

use std::sync::Arc;
use tesla::pipeline::{
    run_with_tesla, BuildArtifacts, BuildOptions, BuildSystem, Project, ReinstrumentPolicy,
};
use tesla::runtime::Tesla;
use tesla_prop::Rng;

const N_SUBSYS: usize = 5;

/// The syscall-dispatch unit: defines the assertion bound
/// (`amd64_syscall`) and two MAC entry points assertions can name.
fn kern_src() -> String {
    let mut src = String::from(
        "struct socket { int so_state; };\n\
         int mac_check(int cred, struct socket *so) { return 0; }\n\
         int other_check(int cred, struct socket *so) { return 0; }\n",
    );
    for s in 0..N_SUBSYS {
        src.push_str(&format!(
            "int subsys_{s}_entry(int cred, struct socket *so);\n"
        ));
    }
    src.push_str(
        "int amd64_syscall(int cred, int nr) {\n\
             struct socket *so = malloc(sizeof(struct socket));\n\
             mac_check(cred, so);\n\
             other_check(cred, so);\n",
    );
    for s in 0..N_SUBSYS {
        src.push_str(&format!("    subsys_{s}_entry(cred, so);\n"));
    }
    src.push_str("    return 0;\n}\n");
    src
}

/// One subsystem unit carrying `asserts` TESLA lines. `checker` and
/// `expect` parameterize the assertion so edits can change its
/// content, and `salt` lets a "touch" change the source without
/// changing assertions.
fn subsys_src(s: usize, asserts: usize, checker: &str, expect: i64, salt: u64) -> String {
    let mut src = format!(
        "struct socket {{ int so_state; }};\n\
         int {checker}(int cred, struct socket *so);\n\
         // salt {salt}\n\
         int subsys_{s}_entry(int cred, struct socket *so) {{\n\
             so->so_state = {s};\n"
    );
    for _ in 0..asserts {
        src.push_str(&format!(
            "    TESLA_SYSCALL_PREVIOUSLY({checker}(ANY(int), so) == {expect});\n"
        ));
    }
    src.push_str("    return 0;\n}\n");
    src
}

/// Per-unit edit state for the generator above.
#[derive(Clone, Copy)]
struct UnitState {
    asserts: usize,
    checker: &'static str,
    expect: i64,
    salt: u64,
}

fn project_for(states: &[UnitState]) -> Project {
    let mut sources = vec![("kern/syscall.c".to_string(), kern_src())];
    for (s, st) in states.iter().enumerate() {
        sources.push((
            format!("subsys/unit{s}.c"),
            subsys_src(s, st.asserts, st.checker, st.expect, st.salt),
        ));
    }
    Project {
        units: sources
            .into_iter()
            .map(|(file, source)| tesla::pipeline::SourceUnit { file, source })
            .collect(),
    }
}

fn options_for(policy: ReinstrumentPolicy) -> BuildOptions {
    BuildOptions {
        reinstrument: policy,
        ..BuildOptions::tesla_toolchain()
    }
}

/// Everything observable about a build + run, for cross-policy
/// comparison.
fn observe(art: &BuildArtifacts) -> (Result<i64, String>, Vec<tesla::runtime::Violation>) {
    let t = Tesla::with_defaults();
    let run = run_with_tesla(art, &t, "amd64_syscall", &[7, 3], 1_000_000);
    (run, t.violations())
}

fn assert_equivalent(a: &BuildArtifacts, b: &BuildArtifacts, ctx: &str) {
    assert_eq!(a.program, b.program, "linked programs diverge: {ctx}");
    assert_eq!(a.manifest, b.manifest, "manifests diverge: {ctx}");
    assert_eq!(a.verdicts, b.verdicts, "verdicts diverge: {ctx}");
    assert_eq!(a.findings, b.findings, "findings diverge: {ctx}");
    let (run_a, viol_a) = observe(a);
    let (run_b, viol_b) = observe(b);
    assert_eq!(run_a, run_b, "run results diverge: {ctx}");
    assert_eq!(viol_a, viol_b, "violation traces diverge: {ctx}");
}

/// Drive Naive and Delta through one randomized edit script and
/// require observational equivalence after every build. Both keep
/// program-wide state across builds (DESIGN.md §10.5),
/// so every step is also built from scratch on a fresh `Delta` build
/// system, and the incremental `Delta` build must equal that clean one.
fn differential_run(seed: u64, steps: usize) {
    let mut rng = Rng::new(seed);
    let mut states = vec![
        UnitState {
            asserts: 1,
            checker: "mac_check",
            expect: 0,
            salt: 0
        };
        N_SUBSYS
    ];
    let initial = project_for(&states);
    let mut naive = BuildSystem::new(initial.clone(), options_for(ReinstrumentPolicy::Naive));
    let mut delta = BuildSystem::new(initial, options_for(ReinstrumentPolicy::Delta));

    let a = naive.build().unwrap();
    let c = delta.build().unwrap();
    assert_equivalent(&a, &c, "initial naive vs delta");

    for step in 0..steps {
        let s = rng.below(N_SUBSYS);
        let kind = rng.below(5);
        match kind {
            // Touch: source changes, assertions don't.
            0 => states[s].salt = rng.next_u64(),
            // Add an assertion.
            1 => states[s].asserts = (states[s].asserts + 1).min(4),
            // Remove an assertion.
            2 => states[s].asserts = states[s].asserts.saturating_sub(1),
            // Edit assertion content (expected return value).
            3 => states[s].expect = rng.below(3) as i64,
            // Re-point the assertion at the other checker.
            _ => {
                states[s].checker = if states[s].checker == "mac_check" {
                    "other_check"
                } else {
                    "mac_check"
                }
            }
        }
        let file = format!("subsys/unit{s}.c");
        let st = states[s];
        let src = subsys_src(s, st.asserts, st.checker, st.expect, st.salt);
        naive.edit(&file, &src);
        delta.edit(&file, &src);

        let a = naive.build().unwrap();
        let c = delta.build().unwrap();
        let clean = BuildSystem::new(project_for(&states), options_for(ReinstrumentPolicy::Delta))
            .build()
            .unwrap();
        let ctx = format!("seed {seed} step {step} kind {kind} unit {s}");
        assert_equivalent(&a, &c, &format!("naive vs delta: {ctx}"));
        assert_equivalent(&clean, &c, &format!("clean vs incremental delta: {ctx}"));
        // Delta must never weave more than the naive toolchain.
        assert!(
            c.stats.instrumented_units <= a.stats.instrumented_units,
            "delta wove more units than naive: {ctx}"
        );
    }
}

#[test]
fn delta_is_observationally_equivalent_under_random_edits() {
    differential_run(0xA11CE, 12);
    differential_run(0xB0B, 12);
}

/// Elision-verdict changes (model checker on) must also invalidate
/// delta-cached objects: cycle the openssl client through patched /
/// buggy / unchecked shapes and compare against the naive toolchain.
#[test]
fn delta_tracks_elision_verdict_changes() {
    use tesla::corpus::{openssl_like, openssl_like_buggy, openssl_like_patched};

    let client = |p: &Project| {
        p.units
            .iter()
            .find(|u| u.file == "fetch/main.c")
            .unwrap()
            .source
            .clone()
    };
    let base = openssl_like(4);
    let clients = [
        client(&openssl_like_patched(4)),
        client(&openssl_like_buggy(4)),
        client(&openssl_like(4)),
        client(&openssl_like_patched(4)),
    ];

    let static_opts = |policy| BuildOptions {
        reinstrument: policy,
        ..BuildOptions::static_toolchain()
    };
    let mut naive = BuildSystem::new(base.clone(), static_opts(ReinstrumentPolicy::Naive));
    let mut delta = BuildSystem::new(base, static_opts(ReinstrumentPolicy::Delta));
    let a = naive.build().unwrap();
    let c = delta.build().unwrap();
    assert_eq!(a.program, c.program);
    assert_eq!(a.verdicts, c.verdicts);

    for (i, src) in clients.iter().enumerate() {
        naive.edit("fetch/main.c", src);
        delta.edit("fetch/main.c", src);
        let a = naive.build().unwrap();
        let c = delta.build().unwrap();
        assert_eq!(a.program, c.program, "client shape {i}");
        assert_eq!(a.verdicts, c.verdicts, "client shape {i}");
        assert_eq!(a.findings, c.findings, "client shape {i}");
    }
}

/// A verdict change with no manifest change: editing the checker's
/// unit flips the model checker's verdict on an assertion written
/// elsewhere. The merged manifest is kept, but the weave plan must be
/// rebuilt for the new elision set (DESIGN.md §10.5).
#[test]
fn elision_change_without_manifest_change_rebuilds_the_plan() {
    let lib = |ret: i64| format!("int check(int x) {{ return {ret}; }}\n");
    let main = "int check(int x);\n\
                int main(int x) {\n\
                    check(x);\n\
                    TESLA_WITHIN(main, previously(check(x) == 0));\n\
                    return 0;\n\
                }\n";
    let project = |ret: i64| Project::from_sources(&[("lib.c", &lib(ret)), ("main.c", main)]);
    let static_opts = |policy| BuildOptions {
        reinstrument: policy,
        ..BuildOptions::static_toolchain()
    };
    let mut delta = BuildSystem::new(project(0), static_opts(ReinstrumentPolicy::Delta));
    let first = delta.build().unwrap();
    assert!(first.verdicts[0].verdict.elidable(), "{:?}", first.verdicts);

    for ret in [1, 0] {
        delta.edit("lib.c", &lib(ret));
        let incremental = delta.build().unwrap();
        let clean = BuildSystem::new(project(ret), static_opts(ReinstrumentPolicy::Naive))
            .build()
            .unwrap();
        assert_eq!(
            incremental.verdicts[0].verdict.elidable(),
            ret == 0,
            "{:?}",
            incremental.verdicts
        );
        assert!(
            Arc::ptr_eq(&first.manifest, &incremental.manifest),
            "no manifest changed"
        );
        assert_eq!(incremental.program, clean.program, "check returns {ret}");
        assert_eq!(incremental.verdicts, clean.verdicts, "check returns {ret}");
    }
}

/// The regression pinning the invalidation rule: editing one unit's
/// assertion *content* (same event set) re-weaves exactly that unit.
#[test]
fn assertion_edit_invalidates_exactly_the_affected_unit() {
    let mut states = vec![
        UnitState {
            asserts: 1,
            checker: "mac_check",
            expect: 0,
            salt: 0
        };
        N_SUBSYS
    ];
    let mut bs = BuildSystem::new(project_for(&states), BuildOptions::delta_toolchain());
    let first = bs.build().unwrap();
    assert_eq!(first.stats.instrumented_units, N_SUBSYS + 1);

    // `== 0` → `== 1` in unit 1: the plan still instruments the same
    // functions, so only unit 1's own site changed.
    states[1].expect = 1;
    let st = states[1];
    bs.edit(
        "subsys/unit1.c",
        &subsys_src(1, st.asserts, st.checker, st.expect, st.salt),
    );
    let art = bs.build().unwrap();
    assert_eq!(art.stats.compiled_units, 1);
    assert_eq!(
        art.stats.instrumented_units, 1,
        "only the edited unit re-weaves"
    );

    // And the edit is semantically live: mac_check returns 0, the
    // assertion now demands 1, so the run violates.
    let t = Tesla::with_defaults();
    let err = run_with_tesla(&art, &t, "amd64_syscall", &[7, 3], 1_000_000).unwrap_err();
    assert!(err.contains("TESLA"), "{err}");
}

/// Re-pointing an assertion at a function defined elsewhere re-weaves
/// the edited unit *and* the unit whose instrumentation plan slice
/// gained the new callee — and nothing else.
#[test]
fn assertion_retarget_invalidates_the_defining_unit_too() {
    let mut states = vec![
        UnitState {
            asserts: 1,
            checker: "mac_check",
            expect: 0,
            salt: 0
        };
        N_SUBSYS
    ];
    let mut bs = BuildSystem::new(project_for(&states), BuildOptions::delta_toolchain());
    bs.build().unwrap();

    // unit 2's assertion now names `other_check`: the plan gains a
    // callee-side entry for it, which touches kern/syscall.c (defines
    // and calls it). Other subsystem units neither define nor call
    // either checker, so they stay cached.
    states[2].checker = "other_check";
    let st = states[2];
    bs.edit(
        "subsys/unit2.c",
        &subsys_src(2, st.asserts, st.checker, st.expect, st.salt),
    );
    let art = bs.build().unwrap();
    assert_eq!(art.stats.compiled_units, 1);
    assert_eq!(
        art.stats.instrumented_units, 2,
        "edited unit + the unit defining the newly watched function"
    );
}

/// A plain touch of a unit with no assertions under Delta re-weaves
/// only that unit even though the merged `.tesla` text (with its
/// provenance paths) is regenerated, where a key over the whole
/// manifest would re-weave every unit.
#[test]
fn touch_under_delta_reweaves_one_unit() {
    let states = vec![
        UnitState {
            asserts: 1,
            checker: "mac_check",
            expect: 0,
            salt: 0
        };
        N_SUBSYS
    ];
    let mut bs = BuildSystem::new(project_for(&states), BuildOptions::delta_toolchain());
    bs.build().unwrap();
    bs.touch("kern/syscall.c");
    let art = bs.build().unwrap();
    assert_eq!(art.stats.compiled_units, 1);
    assert_eq!(art.stats.instrumented_units, 1);
}
