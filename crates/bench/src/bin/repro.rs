//! `repro` — regenerate every table and figure of the paper's
//! evaluation (§5) against the simulated substrates.
//!
//! ```sh
//! cargo run --release -p tesla-bench --bin repro            # everything
//! cargo run --release -p tesla-bench --bin repro -- fig11a  # one experiment
//! ```
//!
//! Absolute numbers are laptop-and-simulator numbers; the *shapes*
//! (who is slower, by roughly what factor) are the reproduction
//! targets — see EXPERIMENTS.md.

use std::sync::Arc;
use std::time::Duration;
use tesla::pipeline::{BuildOptions, BuildSystem, ReinstrumentPolicy, StageTimings};
use tesla::prelude::*;
use tesla::sim_kernel::assertions::{register_sets, AssertionSet};
use tesla::workload::{buildload, lmbench, oltp, xnee};
use tesla_bench::{
    fmt_duration, gui_tiers, make_kernel, make_kernel_governed, make_kernel_in,
    make_kernel_telemetry, ratio, time_runs, KernelCfg,
};

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let all = which.is_empty() || which.iter().any(|w| w == "all");
    let want = |k: &str| all || which.iter().any(|w| w == k);

    if want("table1") {
        table1();
    }
    if want("fig9") {
        fig9();
    }
    if want("fig10") {
        fig10();
    }
    if want("build-kernel") {
        build_kernel();
    }
    if want("fig11a") {
        fig11a();
    }
    if want("fig11b") {
        fig11b();
    }
    if want("fig12") {
        fig12();
    }
    if want("fig13") {
        fig13();
    }
    if want("scaling") {
        scaling();
    }
    if want("fig14a") {
        fig14a();
    }
    if want("fig14b") {
        fig14b();
    }
    if want("telemetry") {
        telemetry();
    }
    if want("build-modes") {
        build_modes();
    }
    // CI smoke, not part of `all`: run it by name and it exits nonzero
    // if the delta build re-instruments more than the edited slice.
    if which.iter().any(|w| w == "delta-smoke") && !delta_smoke() {
        std::process::exit(1);
    }
    // CI chaos smoke, not part of `all`: seeded fault-injection sweep;
    // exits nonzero on any panic, quota breach, unreported absorbed
    // fault, or nondeterministic ledger.
    if which.iter().any(|w| w == "chaos") && !chaos() {
        std::process::exit(1);
    }
    // Governance smoke, not part of `all`: the adaptive overhead
    // governor must keep the violation list byte-identical to an
    // ungoverned run while holding its overhead SLO; exits nonzero on
    // any mismatch.
    if which.iter().any(|w| w == "governance") && !governance() {
        std::process::exit(1);
    }
    // Saturation smoke, not part of `all`: multi-producer dispatch
    // throughput, direct per-event hooks vs ring-buffered batched
    // drain, against the 96-assertion corpus; exits nonzero if the
    // 8-producer batched path is less than 2x the per-event baseline.
    if which.iter().any(|w| w == "saturation") && !saturation() {
        std::process::exit(1);
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Table 1: assertion sets.
fn table1() {
    header("Table 1: assertion sets");
    println!("{:<8} {:<28} {:>10}", "Symbol", "Description", "Assertions");
    let rows: [(&str, &str, &[AssertionSet]); 6] = [
        ("MF", "MAC (filesystem)", &[AssertionSet::MF]),
        ("MS", "MAC (sockets)", &[AssertionSet::MS]),
        ("MP", "MAC (processes)", &[AssertionSet::MP]),
        ("M", "All MAC assertions", &[AssertionSet::M]),
        ("P", "Process lifetimes", &[AssertionSet::P]),
        ("All", "All TESLA assertions", &[AssertionSet::All]),
    ];
    for (sym, desc, sets) in rows {
        let t = Arc::new(Tesla::with_defaults());
        let reg = register_sets(&t, sets).unwrap();
        println!("{sym:<8} {desc:<28} {:>10}", reg.total);
    }
}

/// Figure 9: the MAC-check automaton, weighted by a real run.
fn fig9() {
    header("Figure 9: weighted automaton for the fig. 4 assertion");
    let (k, t) = make_kernel(KernelCfg::MpMs, InitMode::Lazy);
    let t = t.unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    t.add_handler(registry.clone());
    lmbench::setup(&k);
    lmbench::poll_loop(&k, k.init_pid(), 200).unwrap();
    // The socket/poll class: find it by name.
    let defs = t.class_defs();
    let (idx, def) = defs
        .iter()
        .enumerate()
        .find(|(_, d)| d.automaton.name == "socket/poll")
        .expect("class registered");
    let weights = registry
        .weight_source(idx as u32)
        .expect("weights for the registered class");
    let dot = tesla::automata::dot::render(&def.automaton, &*weights);
    let _ = std::fs::create_dir_all("target");
    let path = "target/fig9.dot";
    std::fs::write(path, &dot).expect("write dot");
    println!("{dot}");
    println!("(written to {path}; render with `dot -Tpdf {path}`)");
}

/// Figure 10: OpenSSL-shaped build times, clean and incremental.
fn fig10() {
    header("Figure 10: build-time overhead (OpenSSL-shaped corpus, 30 units)");
    let project = tesla::corpus::openssl_like(40);
    let noverify = |mut o: BuildOptions| {
        o.verify = false;
        o
    };
    let clean = |opts: BuildOptions| {
        let project = project.clone();
        move || {
            let mut bs = BuildSystem::new(project.clone(), opts);
            bs.build().unwrap();
        }
    };
    let clean_default = time_runs(3, clean(noverify(BuildOptions::default_toolchain())));
    let clean_tesla = time_runs(3, clean(noverify(BuildOptions::tesla_toolchain())));

    let incr = |opts: BuildOptions| {
        let mut bs = BuildSystem::new(project.clone(), opts);
        bs.build().unwrap();
        let mut n = 0u32;
        time_runs(3, move || {
            bs.touch(&format!("ssl/layer{}.c", 1 + n % 5));
            n += 1;
            bs.build().unwrap();
        })
    };
    let incr_default = incr(noverify(BuildOptions::default_toolchain()));
    let incr_tesla = incr(noverify(BuildOptions::tesla_toolchain()));

    println!(
        "{:<22} {:>12} {:>12} {:>9}",
        "", "Default", "TESLA", "slowdown"
    );
    println!(
        "{:<22} {:>12} {:>12} {:>9}",
        "Clean build",
        fmt_duration(clean_default),
        fmt_duration(clean_tesla),
        ratio(clean_tesla, clean_default)
    );
    println!(
        "{:<22} {:>12} {:>12} {:>9}",
        "Incremental build",
        fmt_duration(incr_default),
        fmt_duration(incr_tesla),
        ratio(incr_tesla, incr_default)
    );
    println!("(paper: clean ≈2.5×; incremental ≈500× — one edited file re-instruments every unit)");
}

/// §5.2.1: kernel-shaped corpus build times.
fn build_kernel() {
    header("§5.2.1: kernel build overhead (kernel-shaped corpus, 20 units, 85 assertions)");
    let with_asserts = tesla::corpus::kernel_like(20, 85);
    let without_asserts = tesla::corpus::kernel_like(20, 0);
    // Each ratio divides two builds of one corpus.

    let clean = |p: &tesla::pipeline::Project, opts: BuildOptions| {
        let p = p.clone();
        time_runs(3, move || {
            let mut bs = BuildSystem::new(p.clone(), opts);
            bs.build().unwrap();
        })
    };
    let nv = |mut o: BuildOptions| {
        o.verify = false;
        o
    };
    let c_default = clean(&with_asserts, nv(BuildOptions::default_toolchain()));
    let c_tesla = clean(&with_asserts, nv(BuildOptions::tesla_toolchain()));

    let incr = |p: &tesla::pipeline::Project, opts: BuildOptions| {
        let mut bs = BuildSystem::new(p.clone(), opts);
        bs.build().unwrap();
        time_runs(3, move || {
            bs.touch("subsys/unit1.c");
            bs.build().unwrap();
        })
    };
    let i_default_none = incr(&without_asserts, nv(BuildOptions::default_toolchain()));
    let i_none = incr(&without_asserts, nv(BuildOptions::tesla_toolchain()));
    let i_default = incr(&with_asserts, nv(BuildOptions::default_toolchain()));
    let i_full = incr(&with_asserts, nv(BuildOptions::tesla_toolchain()));

    println!(
        "clean, kernel_like(20, 85): default {} vs TESLA {} ({})",
        fmt_duration(c_default),
        fmt_duration(c_tesla),
        ratio(c_tesla, c_default)
    );
    println!(
        "incremental, kernel_like(20, 0): default {} vs TESLA no assertions {} ({})",
        fmt_duration(i_default_none),
        fmt_duration(i_none),
        ratio(i_none, i_default_none)
    );
    println!(
        "incremental, kernel_like(20, 85): default {} vs TESLA 85 assertions {} ({})",
        fmt_duration(i_default),
        fmt_duration(i_full),
        ratio(i_full, i_default)
    );
    println!("(paper: 2.2× clean; 3.5× incremental w/o assertions; 37× with 85)");
}

/// Figure 11a: lmbench open/close across kernel configurations.
fn fig11a() {
    header("Figure 11a: open/close microbenchmark across kernel configurations");
    const ITERS: usize = 3_000;
    let mut base = Duration::ZERO;
    println!("{:<16} {:>12} {:>9}", "Config", "per op", "vs Release");
    for cfg in KernelCfg::ALL {
        let (k, _t) = make_kernel(cfg, InitMode::Lazy);
        lmbench::setup(&k);
        let pid = k.init_pid();
        // Warm up.
        lmbench::open_close_loop(&k, pid, 100).unwrap();
        let d = time_runs(3, || lmbench::open_close_loop(&k, pid, ITERS).unwrap());
        let per_op = d / ITERS as u32;
        if cfg == KernelCfg::Release {
            base = per_op;
        }
        println!(
            "{:<16} {:>12} {:>9}",
            cfg.label(),
            fmt_duration(per_op),
            ratio(per_op, base)
        );
    }
    println!("(paper: TESLA microbenchmark overhead measurable; Debug ≈3× on micro)");
}

/// Figure 11b: macrobenchmarks, normalised.
fn fig11b() {
    header("Figure 11b: macrobenchmarks (normalised run time)");
    let configs = [
        KernelCfg::Release,
        KernelCfg::Debug,
        KernelCfg::Infrastructure,
        KernelCfg::MpMsMf,
        KernelCfg::M,
        KernelCfg::All,
    ];
    println!(
        "{:<16} {:>14} {:>14}",
        "Config", "OLTP (socket)", "Build (FS/CPU)"
    );
    let mut oltp_base = Duration::ZERO;
    let mut build_base = Duration::ZERO;
    for cfg in configs {
        let (k, _t) = make_kernel(cfg, InitMode::Lazy);
        let params = oltp::OltpParams {
            threads: 4,
            transactions: 60,
            socket_ops: 3,
            compute: 4000,
        };
        let oltp_d = time_runs(3, || {
            oltp::run(&k, params);
        });
        let (k2, _t2) = make_kernel(cfg, InitMode::Lazy);
        let bp = buildload::BuildParams {
            files: 40,
            compute: 400,
        };
        let build_d = time_runs(3, || {
            buildload::run(&k2, bp);
        });
        if cfg == KernelCfg::Release {
            oltp_base = oltp_d;
            build_base = build_d;
        }
        println!(
            "{:<16} {:>14} {:>14}",
            cfg.label(),
            ratio(oltp_d, oltp_base),
            ratio(build_d, build_base)
        );
    }
    println!("(paper: macro overhead ≲1.35×, comparable to accepted debug aids)");
}

/// Figure 12: per-thread vs global context cost.
fn fig12() {
    header("Figure 12: per-thread vs global context (explicit synchronisation)");
    const THREADS: usize = 8;
    const EVENTS: usize = 40_000;
    let mut results = Vec::new();
    for (label, global) in [("Per-thread", false), ("Global", true)] {
        let d = time_runs(3, || {
            let t = Arc::new(Tesla::new(Config {
                fail_mode: FailMode::Log,
                instance_capacity: 256,
                ..Config::default()
            }));
            let mut b = AssertionBuilder::bounded(
                tesla::spec::StaticEvent::Call("job".into()),
                tesla::spec::StaticEvent::ReturnFrom("job".into()),
            )
            .named("ctx");
            if global {
                b = b.global();
            }
            let a = b
                .previously(call("produce").arg_var("item").returns(0))
                .build()
                .unwrap();
            let id = t.register(compile(&a).unwrap()).unwrap();
            let job = t.intern_fn("job");
            let produce = t.intern_fn("produce");
            let mut handles = Vec::new();
            for th in 0..THREADS as u64 {
                let t = t.clone();
                handles.push(std::thread::spawn(move || {
                    t.fn_entry(job, &[]).unwrap();
                    for i in 0..(EVENTS / THREADS) as u64 {
                        let item = th * 1_000_000 + (i % 192);
                        let args = [Value(item)];
                        t.fn_entry(produce, &args).unwrap();
                        t.fn_exit(produce, &args, Value(0)).unwrap();
                        t.assertion_site(id, &[Value(item)]).unwrap();
                    }
                    t.fn_exit(job, &[], Value(0)).unwrap();
                    tesla::runtime::engine::reset_thread_state();
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
        println!(
            "{label:<12} {:>12} ({EVENTS} events, {THREADS} threads)",
            fmt_duration(d)
        );
        results.push(d);
    }
    println!("global/per-thread: {}", ratio(results[1], results[0]));
    println!("(paper: global assertions pay for explicit serialisation)");
}

/// Figure 13: naive vs lazy initialisation.
fn fig13() {
    header("Figure 13: lazy-initialisation optimisation (pre vs post)");
    const ITERS: usize = 2_000;
    // Microbenchmark: open/close under MAC and all sets.
    println!(
        "{:<22} {:>12} {:>12} {:>9}",
        "Microbenchmark", "Pre (naive)", "Post (lazy)", "speedup"
    );
    for (label, cfg) in [
        ("MAC (M)", KernelCfg::M),
        ("All assertions", KernelCfg::All),
    ] {
        let mut per = Vec::new();
        for init in [InitMode::Naive, InitMode::Lazy] {
            let (k, _t) = make_kernel(cfg, init);
            lmbench::setup(&k);
            let pid = k.init_pid();
            lmbench::open_close_loop(&k, pid, 100).unwrap();
            per.push(
                time_runs(3, || lmbench::open_close_loop(&k, pid, ITERS).unwrap()) / ITERS as u32,
            );
        }
        println!(
            "{:<22} {:>12} {:>12} {:>9}",
            label,
            fmt_duration(per[0]),
            fmt_duration(per[1]),
            ratio(per[0], per[1])
        );
    }
    // Macrobenchmarks.
    println!(
        "{:<22} {:>12} {:>12} {:>9}",
        "Macrobenchmark", "Pre (naive)", "Post (lazy)", "speedup"
    );
    for (label, which) in [("OLTP", 0), ("Clang-ish build", 1)] {
        let mut per = Vec::new();
        for init in [InitMode::Naive, InitMode::Lazy] {
            let (k, _t) = make_kernel(KernelCfg::All, init);
            let d = if which == 0 {
                let params = oltp::OltpParams {
                    threads: 4,
                    transactions: 40,
                    socket_ops: 3,
                    compute: 4000,
                };
                time_runs(3, || {
                    oltp::run(&k, params);
                })
            } else {
                let bp = buildload::BuildParams {
                    files: 30,
                    compute: 300,
                };
                time_runs(3, || {
                    buildload::run(&k, bp);
                })
            };
            per.push(d);
        }
        println!(
            "{:<22} {:>12} {:>12} {:>9}",
            label,
            fmt_duration(per[0]),
            fmt_duration(per[1]),
            ratio(per[0], per[1])
        );
    }
    println!("(paper: micro ~100×→<7×; Clang build 2×→<1.1×; OLTP 10×→ small)");
}

/// Context scaling: OLTP throughput at 1/2/4/8 threads,
/// uninstrumented vs per-thread vs global context (all 96 assertions,
/// Log mode). The EXPERIMENTS.md `context_scaling` table records
/// these rows before and after the sharded-store/snapshot dispatch
/// work.
fn scaling() {
    header("Context scaling: OLTP txn/s at 1/2/4/8 threads");
    const TXNS: usize = 400;
    println!(
        "{:<8} {:<16} {:>12} {:>12}",
        "threads", "config", "time", "txn/s"
    );
    for threads in [1usize, 2, 4, 8] {
        for (label, ctx) in [
            ("uninstrumented", None),
            ("per-thread", Some(tesla::spec::Context::PerThread)),
            ("global", Some(tesla::spec::Context::Global)),
        ] {
            let d = time_runs(3, || {
                let k = match ctx {
                    None => {
                        make_kernel_in(KernelCfg::Release, InitMode::Lazy, FailMode::Log, None).0
                    }
                    Some(c) => {
                        make_kernel_in(KernelCfg::All, InitMode::Lazy, FailMode::Log, Some(c)).0
                    }
                };
                let params = oltp::OltpParams {
                    threads,
                    transactions: TXNS,
                    socket_ops: 4,
                    compute: 600,
                };
                oltp::run(&k, params);
            });
            let total = (threads * TXNS) as f64;
            println!(
                "{:<8} {:<16} {:>12} {:>12.0}",
                threads,
                label,
                fmt_duration(d),
                total / d.as_secs_f64()
            );
        }
    }
    println!("(snapshot dispatch + sharded global stores: global ≈ per-thread at every width)");
}

/// Telemetry overhead: OLTP with the full observability stack
/// (metrics registry + hook timers + flight recorder) versus the
/// plain instrumented kernel, at 1/2/4/8 threads. The EXPERIMENTS.md
/// telemetry table records these rows; the acceptance budget is ≤5%
/// on the 4-thread row.
fn telemetry() {
    header("Telemetry overhead: OLTP txn/s, observability on vs off");
    // Two parameterizations of the same workload:
    //
    //  - "hook-dense" is the fig. 11b macro setup (compute=4000):
    //    roughly one instrumented event per 160 ns of application
    //    work, far denser than any real program — it exposes the
    //    per-event marginal cost of the observability stack.
    //  - "app-weight" (compute=80000) matches the event density of
    //    the paper's macrobenchmarks (one syscall per ~1 µs of real
    //    work, as in the MySQL/SysBench run); the ≤5% budget is
    //    measured here. The compute=600 stress density of fig. 13 is
    //    hook-bound by design and reported separately by `repro
    //    fig13`.
    const TXNS: usize = 400;
    for (label, compute) in [
        ("hook-dense (fig. 11b)", 4_000usize),
        ("app-weight", 80_000),
    ] {
        println!("-- {label}: compute={compute} per transaction --");
        println!(
            "{:<8} {:>12} {:>12} {:>9} {:>14}",
            "threads", "off", "on", "on/off", "events seen"
        );
        for threads in [1usize, 2, 4, 8] {
            let params = oltp::OltpParams {
                threads,
                transactions: TXNS,
                socket_ops: 3,
                compute,
            };
            let off = time_runs(7, || {
                let (k, _t) = make_kernel(KernelCfg::All, InitMode::Lazy);
                oltp::run(&k, params);
            });
            let mut events = 0u64;
            let on = time_runs(7, || {
                let (k, t, rec) = make_kernel_telemetry(KernelCfg::All, InitMode::Lazy, 1 << 12);
                oltp::run(&k, params);
                events = t.unwrap().metrics().events_total();
                let _ = rec.unwrap().snapshot();
            });
            println!(
                "{:<8} {:>12} {:>12} {:>9} {:>14}",
                threads,
                fmt_duration(off),
                fmt_duration(on),
                ratio(on, off),
                events
            );
        }
    }
    println!("(budget: ≤1.05× at app-weight with metrics, hook timers and recorder attached)");
}

/// Build modes: the Naive/Delta reinstrumentation sweep
/// over both build corpora, with a per-stage wall-clock breakdown of
/// the incremental rebuild. The EXPERIMENTS.md "build modes" table
/// records these rows; the acceptance targets are delta ≤5× clean and
/// ≤10× incremental on the kernel corpus.
fn build_modes() {
    header("Build modes: naive vs delta reinstrumentation");
    let nv = |mut o: BuildOptions| {
        o.verify = false;
        o
    };
    let corpora = [
        (
            "OpenSSL-shaped (fig. 10, 40 units)",
            tesla::corpus::openssl_like(40),
            "ssl/layer1.c",
        ),
        (
            "kernel-shaped (§5.2.1, 20 units, 85 assertions)",
            tesla::corpus::kernel_like(20, 85),
            "subsys/unit1.c",
        ),
    ];
    let policies = [
        ("naive", ReinstrumentPolicy::Naive),
        ("delta", ReinstrumentPolicy::Delta),
    ];
    for (name, project, touch) in &corpora {
        println!("\n-- {name}; incremental = touch {touch} --");
        let clean_of = |opts: BuildOptions| {
            let p = project.clone();
            time_runs(3, move || {
                BuildSystem::new(p.clone(), opts).build().unwrap();
            })
        };
        let incr_of = |opts: BuildOptions| {
            let mut bs = BuildSystem::new(project.clone(), opts);
            bs.build().unwrap();
            let mut stages = StageTimings::default();
            let mut rewoven = 0usize;
            let d = time_runs(3, || {
                bs.touch(touch);
                let art = bs.build().unwrap();
                stages = art.timings;
                rewoven = art.stats.instrumented_units;
            });
            (d, stages, rewoven)
        };
        let base_clean = clean_of(nv(BuildOptions::default_toolchain()));
        let (base_incr, _, _) = incr_of(nv(BuildOptions::default_toolchain()));
        println!(
            "{:<13} {:>11} {:>8} {:>11} {:>8} {:>8}",
            "mode", "clean", "vs def", "incr", "vs def", "rewoven"
        );
        println!(
            "{:<13} {:>11} {:>8} {:>11} {:>8} {:>8}",
            "default",
            fmt_duration(base_clean),
            "-",
            fmt_duration(base_incr),
            "-",
            "-"
        );
        for (label, policy) in policies {
            let opts = BuildOptions {
                reinstrument: policy,
                ..nv(BuildOptions::tesla_toolchain())
            };
            let clean_d = clean_of(opts);
            let (incr_d, st, rewoven) = incr_of(opts);
            println!(
                "{:<13} {:>11} {:>8} {:>11} {:>8} {:>8}",
                label,
                fmt_duration(clean_d),
                ratio(clean_d, base_clean),
                fmt_duration(incr_d),
                ratio(incr_d, base_incr),
                rewoven
            );
            println!(
                "{:<13} incr stages: frontend {} | analyse {} | model-check {} | instrument {} | link {}",
                "",
                fmt_duration(st.frontend),
                fmt_duration(st.analyse),
                fmt_duration(st.model_check),
                fmt_duration(st.instrument),
                fmt_duration(st.link)
            );
        }
    }
    println!("\n(targets: delta ≤5× clean, ≤10× incremental on the kernel corpus)");
}

/// CI smoke for the incremental delta path: the §5.2.1 scenario
/// (kernel corpus, touch one subsystem unit, rebuild under
/// `ReinstrumentPolicy::Delta`) must re-instrument strictly fewer
/// units than the corpus holds, and — since a touch appends only a
/// comment, so no manifest changes — must reuse the kept weave plan
/// without a single compile-cache lookup (DESIGN.md §10.5), and must
/// link every other unit's assertions by pointer, sharing them with
/// the clean build's program (DESIGN.md §10.4). Returns false — and
/// `main` exits nonzero — if the build cache regresses to rebuilding
/// the world, the early cutoff stops holding or the link copies
/// assertions again.
fn delta_smoke() -> bool {
    header("delta-smoke: §5.2.1 incremental rebuild under delta");
    let units = 20usize;
    let touched = "subsys/unit1.c";
    let project = tesla::corpus::kernel_like(units, 85);
    let mut bs = BuildSystem::new(project, BuildOptions::delta_toolchain());
    let clean = bs.build().expect("clean build");
    let lookups = |bs: &BuildSystem| bs.compile_cache().hits() + bs.compile_cache().misses();
    let before = lookups(&bs);
    bs.touch(touched);
    let art = bs.build().expect("incremental build");
    let rebuild_lookups = lookups(&bs) - before;
    println!(
        "touched 1 of {units} units: recompiled {}, re-instrumented {}, compile-cache lookups {}",
        art.stats.compiled_units, art.stats.instrumented_units, rebuild_lookups
    );
    let total = art.program.assertions.len();
    let own = art
        .manifest
        .entries
        .iter()
        .filter(|e| e.source_file == touched)
        .count();
    let shared = clean
        .program
        .assertions
        .iter()
        .zip(&art.program.assertions)
        .filter(|(a, b)| Arc::ptr_eq(&a.assertion, &b.assertion))
        .count();
    println!(
        "linked assertions shared with the clean build: {shared} of {total} \
         (the touched unit's own: {own})"
    );
    let incremental = art.stats.instrumented_units < units && art.stats.instrumented_units > 0;
    let cut_off = rebuild_lookups == 0;
    let sharing = total == clean.program.assertions.len() && shared == total - own;
    println!(
        "{}",
        match (incremental, cut_off, sharing) {
            (true, true, true) => "OK: delta rebuild stayed incremental and reused the weave plan",
            (false, _, _) => "FAIL: delta rebuild re-instrumented the world",
            (true, false, _) => "FAIL: a comment-only touch looked automata up again",
            (true, true, false) =>
                "FAIL: the rebuild copied assertions it should share with the clean build",
        }
    );
    incremental && cut_off && sharing
}

/// One governed chaos run: the lmbench poll workload on an MP+MS
/// kernel under a full-menu fault plan. Returns `None` if a panic
/// escaped into the harness (an automatic failure), otherwise the
/// plan's ledger and the engine's metrics snapshot.
fn chaos_run(seed: u64) -> Option<(FaultLedger, MetricsSnapshot)> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    catch_unwind(AssertUnwindSafe(|| {
        let (k, t) = tesla_bench::make_kernel_chaos(
            KernelCfg::MpMs,
            InitMode::Lazy,
            seed,
            FaultSpec::default_chaos(),
        );
        lmbench::setup(&k);
        let _ = lmbench::poll_loop(&k, k.init_pid(), 200);
        let ledger = t.fault_plan().expect("chaos kernels carry a plan").ledger();
        (ledger, t.metrics().snapshot())
    }))
    .ok()
}

/// CI chaos smoke: three fixed seeds through [`chaos_run`], each run
/// twice. Fails (returns false, `main` exits nonzero) on any panic
/// that escapes the engine, any class whose live-instance gauge ever
/// exceeded the quota, any injected fault the telemetry did not
/// report absorbed, and any seed whose two runs disagree on the
/// ledger (the determinism contract).
fn chaos() -> bool {
    header("chaos: seeded fault-injection sweep (governed kernel)");
    const SEEDS: [u64; 3] = [11, 29, 4242];
    let quota = tesla_bench::CHAOS_QUOTA as u64;
    let mut ok = true;
    println!(
        "{:<8} {:>9} {:>9} {:>10} {:>8} {:>7}",
        "Seed", "injected", "absorbed", "reported", "peak", "verdict"
    );
    for seed in SEEDS {
        let Some((ledger, snap)) = chaos_run(seed) else {
            println!(
                "{seed:<8} {:>9} {:>9} {:>10} {:>8} {:>7}",
                "-", "-", "-", "-", "PANIC"
            );
            ok = false;
            continue;
        };
        let peak = snap
            .classes
            .iter()
            .map(|c| c.high_watermark)
            .max()
            .unwrap_or(0);
        let balanced = ledger.balanced();
        let reported = snap.faults_absorbed == ledger.total_injected();
        let bounded = peak <= quota;
        let deterministic = match chaos_run(seed) {
            Some((again, _)) => again == ledger,
            None => false,
        };
        let pass = balanced && reported && bounded && deterministic;
        ok &= pass;
        println!(
            "{seed:<8} {:>9} {:>9} {:>10} {:>8} {:>7}",
            ledger.total_injected(),
            ledger.total_absorbed(),
            snap.faults_absorbed,
            format!("{peak}/{quota}"),
            if pass { "ok" } else { "FAIL" }
        );
        if !balanced {
            println!("  FAIL: injected/absorbed ledger unbalanced: {ledger}");
        }
        if !reported {
            println!(
                "  FAIL: telemetry reported {} absorbed, plan injected {}",
                snap.faults_absorbed,
                ledger.total_injected()
            );
        }
        if !bounded {
            println!("  FAIL: live-instance gauge peaked at {peak} > quota {quota}");
        }
        if !deterministic {
            println!("  FAIL: identical seed produced a different ledger");
        }
    }
    println!(
        "{}",
        if ok {
            "OK: chaos sweep clean under all seeds"
        } else {
            "FAIL: chaos sweep"
        }
    );
    ok
}

/// Figure 14a: Objective-C message-send microbenchmark.
fn fig14a() {
    header("Figure 14a: message-send microbenchmark (tight loop)");
    const SENDS: usize = 50_000;
    let mut base = Duration::ZERO;
    println!("{:<16} {:>12} {:>9}", "Mode", "per send", "vs base");
    for (label, mode) in gui_tiers() {
        let mut app = tesla_bench::make_gui(mode);
        let sel = app.world.sels.set_line_width;
        let ctx = app.world.ctx;
        // Warm-up; for the TESLA tier also enter the tracing bound so
        // the automaton does per-event work in the loop.
        app.run_loop_iteration(&[]).unwrap();
        let d = time_runs(3, || {
            for i in 0..SENDS {
                tesla::sim_gui::objc::objc_msg_send(&mut app.world, ctx, sel, &[(i % 5) as i64])
                    .unwrap();
            }
        }) / SENDS as u32;
        if base.is_zero() {
            base = d;
        }
        println!("{label:<16} {:>12} {:>9}", fmt_duration(d), ratio(d, base));
    }
    println!("(paper: up to 16× on the tight loop)");
}

/// Figure 14b: window redraw times under replay.
fn fig14b() {
    header("Figure 14b: window redraw times (Xnee-like replay, 200 iterations)");
    let script = xnee::session(200);
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "Mode", "median", "p95", "max"
    );
    for (label, mode) in gui_tiers() {
        let mut app = tesla_bench::make_gui(mode);
        let mut times = xnee::replay(&mut app, &script);
        times.sort();
        let median = times[times.len() / 2];
        let p95 = times[times.len() * 95 / 100];
        let max = *times.last().unwrap();
        println!(
            "{label:<16} {:>12} {:>12} {:>12}",
            fmt_duration(median),
            fmt_duration(p95),
            fmt_duration(max)
        );
    }
    println!("(paper: longest redraw 54 ms with full tracing — still smooth animation)");
}

/// Drive a deterministic mixed workload (healthy traffic plus seeded
/// violating assertion sites) through one engine and return the
/// rendered violation list plus the governor's exit state.
fn governance_drive(governor: Option<(u32, u32)>) -> (Vec<String>, u32, u64, usize) {
    let engine = Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        telemetry: true,
        governor: governor.map(|(slo_milli, tick_events)| GovernorConfig {
            slo_milli,
            tick_events,
            allow_shed: false,
        }),
        ..Config::default()
    }));
    let assertion = AssertionBuilder::within("txn")
        .named("governance/checked-before-use")
        .previously(call("check").arg_var("x").returns(0))
        .build()
        .unwrap();
    let class = engine
        .register(tesla::automata::compile(&assertion).unwrap())
        .unwrap();
    let txn = engine.intern_fn("txn");
    let check = engine.intern_fn("check");
    for i in 0..20_000u64 {
        engine.fn_entry(txn, &[]).unwrap();
        let x = Value(i % 8);
        engine.fn_entry(check, &[x]).unwrap();
        engine.fn_exit(check, &[x], Value(0)).unwrap();
        engine.assertion_site(class, &[x]).unwrap();
        if i % 97 == 0 {
            // A value `check` never blessed: a Site violation, logged
            // and continued past.
            engine.assertion_site(class, &[Value(10_000 + i)]).unwrap();
        }
        engine.fn_exit(txn, &[], Value(0)).unwrap();
    }
    let violations: Vec<String> = engine.violations().iter().map(|v| v.to_string()).collect();
    let (level, overhead, decisions) = match engine.governor() {
        Some(g) => (
            g.level(),
            g.estimate_overhead_milli(engine.metrics()),
            g.decisions().len(),
        ),
        None => (0, 0, 0),
    };
    (violations, level, overhead, decisions)
}

/// Governance smoke: (a) the governor's exact levels must leave the
/// violation list byte-identical to an ungoverned run; (b) under
/// hook-dense load it must escalate and cost no more than ungoverned
/// telemetry; (c) its report surfaces must be populated.
fn governance() -> bool {
    use tesla::runtime::telemetry::analysis::fmt_overhead;
    header("Governance: adaptive overhead governor vs ungoverned telemetry");
    let mut ok = true;

    // -- Soundness: byte-identical violations under a tight SLO. --
    let (base_viol, _, _, _) = governance_drive(None);
    let (gov_viol, level, overhead, decisions) = governance_drive(Some((1050, 64)));
    println!(
        "soundness: {} violations ungoverned, {} governed; lists {}",
        base_viol.len(),
        gov_viol.len(),
        if base_viol == gov_viol {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );
    if base_viol.is_empty() || base_viol != gov_viol {
        eprintln!("governance: FAIL (violation lists must be nonempty and identical)");
        ok = false;
    }
    println!(
        "governor: level {level} after {decisions} decision(s); exit estimate {}",
        fmt_overhead(overhead)
    );
    // The workload is almost pure hook dispatch, so a 1.05x SLO must
    // drive the controller up its exact ladder (and never past it).
    if decisions == 0 || level == 0 || level > 7 {
        eprintln!("governance: FAIL (expected escalation within the exact levels)");
        ok = false;
    }

    // -- Overhead: governed vs ungoverned telemetry on OLTP. --
    const TXNS: usize = 400;
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>8} {:>8} {:>7}",
        "workload", "off", "on", "governed", "on/off", "gov/off", "level"
    );
    let mut governed_not_slower = true;
    for (label, compute) in [
        ("hook-dense (fig. 11b)", 4_000usize),
        ("app-weight", 80_000),
    ] {
        let params = oltp::OltpParams {
            threads: 4,
            transactions: TXNS,
            socket_ops: 3,
            compute,
        };
        let off = time_runs(5, || {
            let (k, _t) = make_kernel(KernelCfg::All, InitMode::Lazy);
            oltp::run(&k, params);
        });
        let on = time_runs(5, || {
            let (k, _t, _rec) = make_kernel_telemetry(KernelCfg::All, InitMode::Lazy, 1 << 12);
            oltp::run(&k, params);
        });
        let mut level = 0u32;
        let gov = time_runs(5, || {
            let (k, t) = make_kernel_governed(KernelCfg::All, InitMode::Lazy, 1200, 1024);
            oltp::run(&k, params);
            level = t.unwrap().governor().unwrap().level();
        });
        println!(
            "{label:<24} {:>10} {:>10} {:>10} {:>8} {:>8} {:>7}",
            fmt_duration(off),
            fmt_duration(on),
            fmt_duration(gov),
            ratio(on, off),
            ratio(gov, off),
            level
        );
        // Generous noise slack: the claim is "the governor never makes
        // a telemetered run meaningfully slower", not a microbenchmark.
        if gov.as_secs_f64() > on.as_secs_f64() * 1.25 {
            governed_not_slower = false;
        }
    }
    if !governed_not_slower {
        eprintln!("governance: FAIL (governed run >1.25x slower than ungoverned telemetry)");
        ok = false;
    }
    println!("(SLO 1.2x; exact levels only — clone shedding disabled)");
    ok
}

/// The saturation corpus: 96 Global-context assertions (the size of
/// the kernel's `All` configuration), each a scope with one watched
/// call, round-robined by the producers so every class sees traffic.
const SAT_CLASSES: usize = 96;

fn saturation_engine(compiled: bool) -> (Arc<Tesla>, Vec<(NameId, NameId)>) {
    let engine = Arc::new(Tesla::new(Config {
        fail_mode: FailMode::Log,
        telemetry: true,
        ..Config::default()
    }));
    let automata: Vec<_> = (0..SAT_CLASSES)
        .map(|i| {
            let a = AssertionBuilder::within(&format!("scope_{i}"))
                .global()
                .named(&format!("saturation/{i}"))
                .previously(call(&format!("check_{i}")).arg_var("x").returns(0))
                .build()
                .unwrap();
            tesla::automata::compile(&a).unwrap()
        })
        .collect();
    if compiled {
        engine.register_batch(automata).unwrap();
    } else {
        // The pre-PR world: interpreted NFA stepping, no DFA matrix.
        let pairs = automata
            .into_iter()
            .map(|a| (Arc::new(a), None::<Arc<tesla::automata::Dfa>>))
            .collect();
        engine.register_batch_compiled(pairs).unwrap();
    }
    let names = (0..SAT_CLASSES)
        .map(|i| {
            (
                engine.intern_fn(&format!("scope_{i}")),
                engine.intern_fn(&format!("check_{i}")),
            )
        })
        .collect();
    (engine, names)
}

/// The per-producer event script: `rounds` scope open / watched call
/// / scope close cycles, 4 events each, phase-shifted per thread.
fn sat_script(t: usize, r: usize, names: &[(NameId, NameId)]) -> (NameId, NameId) {
    names[(t + r) % SAT_CLASSES]
}

/// Words one script round occupies on a producer ring: a bare
/// `fn_entry` header, a 1-arg `fn_entry`, a 1-arg + ret `fn_exit`
/// and a ret-only `fn_exit`.
const SAT_ROUND_WORDS: usize = 1 + 2 + 3 + 2;

/// Baseline: every producer thread calls the instrumentation hooks
/// directly — interpreted NFA stepping plus a snapshot load,
/// telemetry sampling and a Global shard lock *per event*, all
/// threads contending. This is the pre-batching architecture: the
/// hook path IS the dispatch path, so its wall time measures both.
/// Chunked like the staged run so thread-spawn overhead cancels.
fn saturation_per_event(threads: usize, rounds: usize) -> Duration {
    let (engine, names) = saturation_engine(false);
    let mut hook = Duration::ZERO;
    let mut r0 = 0;
    while r0 < rounds {
        let chunk = SAT_CHUNK.min(rounds - r0);
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let engine = &engine;
                let names = &names;
                s.spawn(move || {
                    let v = [Value(t as u64)];
                    for r in r0..r0 + chunk {
                        let (scope, check) = sat_script(t, r, names);
                        let _ = engine.fn_entry(scope, &[]);
                        let _ = engine.fn_entry(check, &v);
                        let _ = engine.fn_exit(check, &v, Value(0));
                        let _ = engine.fn_exit(scope, &[], Value(0));
                    }
                });
            }
        });
        hook += t0.elapsed();
        r0 += chunk;
    }
    hook
}

/// Rounds per staged chunk — sized so a whole chunk fits every
/// producer ring and pushes can never backpressure mid-measurement.
const SAT_CHUNK: usize = 4_000;

/// Batched architecture, both halves measured separately:
///
/// * **hook path** — producer threads stage packed events on their
///   per-thread rings (a few word writes and one release-store each);
///   this is all the instrumented application pays per event, and its
///   wall time bounds how hard the app can hammer hooks.
/// * **drain** — the engine decodes the rings and dispatches through
///   the compiled-DFA batch path: one snapshot load, one shard-lock
///   streak, two clock reads and one counter flush per batch instead
///   of per event. Its rate is the dispatcher's retire throughput.
///
/// On a multicore host the two halves overlap (producers keep
/// hammering while a drain core retires), so sustained system
/// throughput is `min(hook-path, drain)` — each measured here on its
/// own so the row is meaningful even on a single-core runner.
fn saturation_batched(threads: usize, rounds: usize) -> (Duration, Duration) {
    let (engine, names) = saturation_engine(true);
    let ingress = BatchIngress::new(SAT_CHUNK * SAT_ROUND_WORDS + 64);
    let mut producers: Vec<EventProducer> = (0..threads).map(|_| ingress.producer()).collect();
    let mut hook = Duration::ZERO;
    let mut drain = Duration::ZERO;
    let mut r0 = 0;
    while r0 < rounds {
        let chunk = SAT_CHUNK.min(rounds - r0);
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for (t, p) in producers.iter_mut().enumerate() {
                let names = &names;
                s.spawn(move || {
                    let v = [Value(t as u64)];
                    for r in r0..r0 + chunk {
                        let (scope, check) = sat_script(t, r, names);
                        // Rings are sized for a whole chunk — a failed
                        // push here is a harness bug, not backpressure.
                        assert!(p.fn_entry(scope, &[]));
                        assert!(p.fn_entry(check, &v));
                        assert!(p.fn_exit(check, &v, Value(0)));
                        assert!(p.fn_exit(scope, &[], Value(0)));
                    }
                });
            }
        });
        hook += t0.elapsed();
        let t1 = std::time::Instant::now();
        while engine
            .drain_ingress(&ingress)
            .expect("saturation corpus is violation-free")
            > 0
        {}
        drain += t1.elapsed();
        r0 += chunk;
    }
    (hook, drain)
}

/// Saturation smoke: how hard can 1/2/4/8 producer threads hammer
/// the instrumentation before dispatch saturates them? Per-event
/// interpreted hooks (dispatch inline on the hook path) vs the
/// batched architecture (staged hook path + compiled-DFA drain), on
/// the 96-assertion Global corpus with telemetry on. The
/// EXPERIMENTS.md saturation table records these rows; the in-run
/// gate is a >= 2x hook-path ratio at 8 producers (the PR targets
/// >= 3x).
fn saturation() -> bool {
    header("Saturation: hook-path + dispatch throughput, per-event interpreted vs batched compiled (96 assertions, Global)");
    const ROUNDS: usize = 12_000; // 4 events per round per producer
    println!(
        "{:<8} {:>16} {:>14} {:>13} {:>8}",
        "threads", "per-event ev/s", "staged ev/s", "drain ev/s", "ratio"
    );
    let mut ratio8 = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let events = (threads * ROUNDS * 4) as f64;
        let per = saturation_per_event(threads, ROUNDS);
        let (hook, drain) = saturation_batched(threads, ROUNDS);
        let r = per.as_secs_f64() / hook.as_secs_f64();
        println!(
            "{:<8} {:>16.0} {:>14.0} {:>13.0} {:>7.2}x",
            threads,
            events / per.as_secs_f64(),
            events / hook.as_secs_f64(),
            events / drain.as_secs_f64(),
            r
        );
        if threads == 8 {
            ratio8 = r;
        }
    }
    if ratio8 < 2.0 {
        eprintln!(
            "saturation: FAIL (8-producer staged/per-event hook-path ratio {ratio8:.2}x < 2x)"
        );
        return false;
    }
    println!("(staged hooks take dispatch off the producers' critical path; the drain retires events through compiled DFA matrices, amortising snapshot, shard-lock and telemetry costs per batch)");
    true
}
