//! `tesla` — the command-line front door to the TESLA toolchain.
//!
//! ```text
//! tesla check  '<assertion>'          parse + compile an assertion, describe the automaton
//! tesla graph  '<assertion>'          emit the automaton as Graphviz DOT
//! tesla analyse <file.c>...           run the analyser, print the merged .tesla manifest
//! tesla static-check <file.c>...      flow-sensitive model checking + diagnostics
//!                                     [--deny] [--format text|json|sarif]
//! tesla lint    <file.c>...           specification-level lints (TESLA-L001…L006)
//!                                     [--deny] [--format text|json|sarif] [--graph out.dot]
//! tesla build   <file.c>...           full TESLA build, print instrumentation stats
//!                                     [--reinstrument naive|fingerprint|delta] [--jobs N]
//!                                     [--timings] [--lint[=deny]]
//! tesla run     <file.c>... [--entry f] [--arg N]... [--graph out.dot]
//!               [--chaos SEED] [--faults k=p,...] [--govern SLO [--allow-shed]]
//!               [--record trace.jsonl] [--violations out] [--metrics out]
//!                                     build, weave, execute under libtesla (fail-stop;
//!                                     --chaos: seeded fault injection, ledger on exit;
//!                                     --govern: adaptive overhead governor holding the
//!                                     SLO, decision log + final estimate on exit;
//!                                     --record: tee every hook event to a JSONL trace)
//! tesla replay  <trace.jsonl> --spec <file.c>...
//!               [--violations out] [--metrics out]
//!                                     re-drive a recorded trace against the spec's
//!                                     automata: same verdicts, counters, exit status
//! tesla attach  <socket> --spec <file.c>...
//!               [--timeout-ms N] [--conns N] [--violations out] [--metrics out]
//!                                     bind a Unix socket, check live event streams
//! tesla observe <file.c>... [--format prom|json|dot|trace] [--entry f] [--arg N]... [-o out]
//!               [--replay trace.jsonl] [--chaos SEED] [--faults k=p,...]
//!               [--baseline base.json --anomalies [--format text|json|prom]]
//!                                     run under full telemetry, emit the report;
//!                                     --baseline/--anomalies: score the run against a
//!                                     recorded baseline (TESLA-A001/A002/A003)
//! tesla baseline <file.c>... [--entry f] [--arg N]... [--out base.json]
//!               [--from-trace trace.jsonl]
//!                                     learn a healthy-run baseline (transition-weight
//!                                     distributions + hook-latency profiles)
//! tesla scenario run <dir|file.yaml> [--tap] [--out tap.txt]
//!                                     execute declarative YAML scenarios, TAP v14 output
//! tesla scenario fuzz <dir> [--seed N] [--iterations N] [--budget-ms N] [--out dir]
//!                                     coverage-guided fuzzing over the scenario corpus
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use tesla::pipeline::{
    replay_with_tesla, run_with_tesla, run_with_tesla_recorded, BuildArtifacts, BuildOptions,
    BuildSystem, Project, ReinstrumentPolicy,
};
use tesla::prelude::*;
use tesla::runtime::telemetry::analysis;

/// Why the process is exiting non-zero. The exit-status contract is
/// part of the CLI surface (scripts and CI match on it):
///
/// * `0` — clean: the command did its work and no denied diagnostics;
/// * `1` — [`CliError::Denied`]: diagnostics present and `--deny` was
///   given (the command itself worked);
/// * `2` — [`CliError::Usage`]: bad invocation, unreadable input, or
///   a build/run failure.
enum CliError {
    /// Diagnostics at warning level or above under `--deny`.
    Denied(String),
    /// Everything else: usage, I/O, compile, or execution failure.
    Usage(String),
}

impl From<String> for CliError {
    fn from(e: String) -> CliError {
        CliError::Usage(e)
    }
}

impl From<&str> for CliError {
    fn from(e: &str) -> CliError {
        CliError::Usage(e.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let r: Result<(), CliError> = match cmd.as_str() {
        "check" => check(rest).map_err(CliError::Usage),
        "graph" => graph(rest).map_err(CliError::Usage),
        "analyse" | "analyze" => analyse(rest).map_err(CliError::Usage),
        "static-check" => static_check_cmd(rest),
        "lint" => lint(rest),
        "build" => build(rest),
        "run" => run(rest).map_err(CliError::Usage),
        "replay" => replay(rest).map_err(CliError::Usage),
        "attach" => attach(rest).map_err(CliError::Usage),
        "observe" => observe(rest),
        "baseline" => baseline_cmd(rest).map_err(CliError::Usage),
        "scenario" => scenario_cmd(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Denied(e)) => {
            eprintln!("tesla: {e}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(e)) => {
            eprintln!("tesla: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  tesla check  '<assertion>'     describe the compiled automaton
  tesla graph  '<assertion>'     emit Graphviz DOT
  tesla analyse <file.c>...      print the merged .tesla manifest
  tesla static-check [--deny] [--format text|json|sarif] <file.c>...
                                 compile-time assertion checking (§7):
                                 model-check, report, and elide; --deny
                                 makes warnings/errors a nonzero exit
  tesla lint    [--deny] [--format text|json|sarif] [--graph out.dot]
                <file.c>...
                                 specification-level lints over the
                                 assertions themselves (TESLA-L001…
                                 L006): vacuity, contradiction,
                                 subsumption, dead states, bounds that
                                 never close, incompatible matchers;
                                 --graph writes DOT with mergeable
                                 states highlighted
  tesla build   <file.c>... [--reinstrument naive|fingerprint|delta]
                [--jobs N] [--timings] [--lint[=deny]]
                                 TESLA build; print instrumentation
                                 stats. `delta` re-weaves only units
                                 whose assertions changed and fans the
                                 back-end out over N threads (0=auto);
                                 --timings prints a per-stage breakdown;
                                 --lint runs the specification lints
                                 first (=deny fails the build on them)
  tesla run     <file.c>... [--entry main] [--arg N]... [--graph out.dot]
                [--chaos SEED] [--faults k=p,...]
                [--govern SLO [--allow-shed]]
                [--record trace.jsonl] [--violations out] [--metrics out]
                                 build and execute under libtesla;
                                 --graph writes transition-weighted
                                 automaton graphs after the run;
                                 --chaos runs under a seeded fault plan
                                 (governed, log-and-continue) and prints
                                 the injected/absorbed ledger; --faults
                                 picks kinds and periods (e.g.
                                 panic=7,drop=16; default: full menu);
                                 --govern runs the adaptive overhead
                                 governor against an SLO like 1.2 (a
                                 1.2x instrumented-overhead target),
                                 printing its rate decisions and final
                                 overhead estimate; --allow-shed lets
                                 it shed clones (sound but inexact)
                                 past the exact levels;
                                 --record tees every hook event into a
                                 versioned JSONL trace that `tesla
                                 replay` re-drives; --violations /
                                 --metrics write the violation list and
                                 a latency-free counters snapshot
  tesla replay  <trace.jsonl> --spec <file.c>...
                [--violations out] [--metrics out]
                [--batch-size N]
                                 re-drive a recorded event trace
                                 against the spec's automata, through
                                 the same verdict and telemetry
                                 machinery as a live run: identical
                                 violations, counters and exit status;
                                 events are drained in batches (256 by
                                 default) to amortise per-call costs —
                                 --batch-size tunes the batch (1 is
                                 one event at a time);
                                 malformed traces get a line/byte-offset
                                 diagnostic and exit status 2
  tesla attach  <socket> --spec <file.c>...
                [--timeout-ms N] [--conns N]
                [--violations out] [--metrics out]
                [--batch-size N]
                                 bind a Unix socket and check live
                                 JSONL event streams as they arrive
                                 (--conns connections served in turn,
                                 --timeout-ms per accept and per read,
                                 batching as in replay)
  tesla observe <file.c>... [--format prom|json|dot|trace]
                [--entry main] [--arg N]... [-o out]
                [--replay trace.jsonl] [--chaos SEED] [--faults k=p,...]
                [--baseline base.json --anomalies]
                                 build, run under full telemetry, and
                                 report: Prometheus text (prom), JSON
                                 metrics snapshot (json), weighted
                                 fig. 9 graphs (dot), or a
                                 chrome://tracing event log (trace);
                                 --replay drives a recorded trace
                                 instead of executing the program;
                                 --baseline + --anomalies score the
                                 run against a recorded baseline and
                                 report TESLA-A001 (novel transition),
                                 A002 (weight divergence), A003
                                 (latency regression) with flight-
                                 recorder evidence — findings exit 1;
                                 anomaly --format: text|json|prom
  tesla baseline <file.c>... [--entry main] [--arg N]...
                [--out base.json] [--from-trace trace.jsonl]
                                 learn a healthy-run baseline:
                                 per-automaton transition-weight
                                 distributions and per-hook latency
                                 profiles, from a live run or a
                                 recorded trace (--from-trace), as a
                                 versioned baseline file (stdout when
                                 --out is omitted)
  tesla scenario run <dir|file.yaml> [--tap] [--out tap.txt]
                                 execute declarative YAML scenarios:
                                 each file names a runner (spec,
                                 sim-ssl, sim-kernel, sim-gui,
                                 workload, minic), a config, an event
                                 timeline, optional injected faults,
                                 and the expected outcome; --tap
                                 prints TAP version 14 (one point per
                                 scenario, YAML diagnostics on
                                 failure), --out also writes the TAP
                                 to a file; any failing scenario
                                 exits 1, malformed scenarios get a
                                 line/byte-offset diagnostic and
                                 exit 2
  tesla scenario fuzz <dir> [--seed N] [--iterations N]
                [--budget-ms N] [--out dir]
                                 coverage-guided scenario fuzzing:
                                 deterministically mutate the corpus
                                 timelines and fault plans, keep
                                 mutants that reach automaton
                                 (state, symbol) cells or violation
                                 signatures the seeds don't, ddmin-
                                 minimise them, and save them back as
                                 replayable corpus scenarios
                                 (--out, default the corpus dir)

exit status: 0 clean; 1 diagnostics present under --deny (or anomalies
under --anomalies, or failing scenarios); 2 usage, I/O, or build/run
failure";

fn parse_one(src: &str) -> Result<tesla::spec::Assertion, String> {
    parse_assertion(src).map_err(|e| e.to_string())
}

/// Parse a `--govern` SLO like `1.2` or `1.2x` into ×1000 units.
fn parse_slo(v: &str) -> Result<u32, String> {
    let f: f64 = v
        .trim_end_matches('x')
        .parse()
        .map_err(|e| format!("bad --govern SLO `{v}`: {e}"))?;
    if !(f > 1.0 && f <= 1000.0) {
        return Err(format!(
            "bad --govern SLO `{v}`: must be above 1.0 (an overhead target like 1.2)"
        ));
    }
    Ok((f * 1000.0).round() as u32)
}

fn check(rest: &[String]) -> Result<(), String> {
    let src = rest.first().ok_or("check needs an assertion string")?;
    let a = parse_one(src)?;
    let auto = compile(&a).map_err(|e| e.to_string())?;
    println!("assertion : {a}");
    println!("context   : {}", a.context);
    println!("bounds    : {} .. {}", a.bounds.start, a.bounds.end);
    println!("variables : {:?}", a.variables);
    println!("states    : {}", auto.n_states);
    println!("symbols   : {}", auto.n_symbols());
    for s in &auto.symbols {
        println!("  #{:<3} {}", s.id.0, s.kind);
    }
    let dfa = tesla::automata::Dfa::from_automaton(&auto);
    println!("DFA states: {}", dfa.n_states());
    println!("instrument: {:?}", auto.instrumentation_targets());
    Ok(())
}

fn graph(rest: &[String]) -> Result<(), String> {
    let src = rest.first().ok_or("graph needs an assertion string")?;
    let a = parse_one(src)?;
    let auto = compile(&a).map_err(|e| e.to_string())?;
    print!(
        "{}",
        tesla::automata::dot::render(&auto, &tesla::automata::dot::Unweighted)
    );
    Ok(())
}

fn load_project(files: &[String]) -> Result<Project, String> {
    if files.is_empty() {
        return Err("no source files given".into());
    }
    let mut units = Vec::new();
    for f in files {
        let src = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        units.push((f.clone(), src));
    }
    Ok(Project::from_sources(
        &units
            .iter()
            .map(|(f, s)| (f.as_str(), s.as_str()))
            .collect::<Vec<_>>(),
    ))
}

fn analyse(rest: &[String]) -> Result<(), String> {
    let project = load_project(rest)?;
    let mut manifests = Vec::new();
    for u in &project.units {
        let out = tesla::cc::compile_unit(&u.source, &u.file).map_err(|e| e.to_string())?;
        manifests.push(out.manifest);
    }
    let merged = tesla::automata::Manifest::merge(&manifests);
    print!("{}", tesla::manifest::to_tesla(&merged));
    eprintln!(
        "({} assertions across {} units; instrumentation plan: {:?})",
        merged.entries.len(),
        project.units.len(),
        merged
            .instrumentation_plan()
            .map_err(|(n, e)| format!("{n}: {e}"))?
    );
    Ok(())
}

/// Shared `--deny` / `--format` / file-list parsing for the two
/// diagnostic commands.
fn parse_diag_flags(
    rest: &[String],
    graph: Option<&mut Option<String>>,
) -> Result<(Vec<String>, bool, tesla::instrument::OutputFormat), CliError> {
    let mut files = Vec::new();
    let mut deny = false;
    let mut format = tesla::instrument::OutputFormat::Text;
    let mut graph = graph;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--format" => {
                format = it.next().ok_or("--format needs text|json|sarif")?.parse()?;
            }
            "--graph" if graph.is_some() => {
                let path = it.next().ok_or("--graph needs a path")?.clone();
                **graph.as_mut().unwrap() = Some(path);
            }
            f => match f.strip_prefix("--format=") {
                Some(v) => format = v.parse()?,
                None => files.push(f.to_string()),
            },
        }
    }
    Ok((files, deny, format))
}

fn static_check_cmd(rest: &[String]) -> Result<(), CliError> {
    let (files, deny, format) = parse_diag_flags(rest, None)?;
    let project = load_project(&files)?;
    // The static toolchain model-checks the pristine program and
    // records per-assertion verdicts alongside the flow-insensitive
    // findings; both feed the diagnostics below.
    let mut bs = BuildSystem::new(project, BuildOptions::static_toolchain());
    let art = bs.build().map_err(|e| e.to_string())?;
    let diags = tesla::instrument::diagnose(&art.findings, &art.verdicts);
    print!("{}", tesla::instrument::render(&diags, format));
    // Exit status contract: findings alone never fail the build;
    // `--deny` turns warnings and errors into exit status 1 for CI.
    if deny && tesla::instrument::has_denials(&diags) {
        return Err(CliError::Denied(
            "static check failed (--deny: warnings or errors present)".into(),
        ));
    }
    Ok(())
}

fn lint(rest: &[String]) -> Result<(), CliError> {
    let mut graph: Option<String> = None;
    let (files, deny, format) = parse_diag_flags(rest, Some(&mut graph))?;
    let project = load_project(&files)?;
    // Lints need only the assertions, not a woven build: parse and
    // analyse each unit, merge the manifests, compile the automata
    // once and hand them to the lint pass.
    let mut manifests = Vec::new();
    for u in &project.units {
        let out = tesla::cc::compile_unit(&u.source, &u.file).map_err(|e| e.to_string())?;
        manifests.push(out.manifest);
    }
    let merged = tesla::automata::Manifest::merge(&manifests);
    let automata = merged.compile_all().map_err(|(n, e)| format!("{n}: {e}"))?;
    let lints = tesla::instrument::lint_compiled(&merged, &automata);
    let diags = tesla::instrument::diagnose_lints(&lints);
    print!("{}", tesla::instrument::render(&diags, format));
    if let Some(path) = graph {
        // One DOT digraph per automaton with dead/mergeable states,
        // mergeable groups sharing a fill colour.
        let mut dot = String::new();
        for l in &lints {
            if let tesla::instrument::LintFinding::DeadStates {
                assertion, groups, ..
            } = l
            {
                if let Some(a) = automata.iter().find(|a| a.name == *assertion) {
                    dot.push_str(&tesla::automata::dot::render_with_merge_groups(a, groups));
                }
            }
        }
        std::fs::write(&path, &dot).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote dead-state graphs to {path}");
    }
    if deny && tesla::instrument::has_denials(&diags) {
        return Err(CliError::Denied(
            "lint failed (--deny: warnings or errors present)".into(),
        ));
    }
    Ok(())
}

fn parse_reinstrument(v: &str) -> Result<ReinstrumentPolicy, String> {
    match v {
        "naive" => Ok(ReinstrumentPolicy::Naive),
        "fingerprint" => Ok(ReinstrumentPolicy::Fingerprint),
        "delta" => Ok(ReinstrumentPolicy::Delta),
        other => Err(format!(
            "unknown --reinstrument `{other}` (expected naive|fingerprint|delta)"
        )),
    }
}

fn build(rest: &[String]) -> Result<(), CliError> {
    let mut files = Vec::new();
    let mut policy = ReinstrumentPolicy::Naive;
    let mut jobs = 0usize;
    let mut timings = false;
    let mut lint = false;
    let mut lint_deny = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reinstrument" => {
                policy = parse_reinstrument(
                    it.next()
                        .ok_or("--reinstrument needs naive|fingerprint|delta")?,
                )?;
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .ok_or("--jobs needs a count (0 = auto)")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
            }
            "--timings" => timings = true,
            "--lint" => lint = true,
            "--lint=deny" => {
                lint = true;
                lint_deny = true;
            }
            f => match f.strip_prefix("--reinstrument=") {
                Some(v) => policy = parse_reinstrument(v)?,
                None => match f.strip_prefix("--jobs=") {
                    Some(v) => jobs = v.parse().map_err(|e| format!("bad --jobs: {e}"))?,
                    None => files.push(f.to_string()),
                },
            },
        }
    }
    let project = load_project(&files)?;
    let opts = BuildOptions {
        reinstrument: policy,
        jobs,
        lint,
        ..BuildOptions::tesla_toolchain()
    };
    let mut bs = BuildSystem::new(project, opts);
    let art = bs.build().map_err(|e| e.to_string())?;
    if lint {
        let diags = tesla::instrument::diagnose_lints(&art.lints);
        eprint!(
            "{}",
            tesla::instrument::render(&diags, tesla::instrument::OutputFormat::Text)
        );
        if lint_deny && tesla::instrument::has_denials(&diags) {
            return Err(CliError::Denied(
                "build failed (--lint=deny: specification lints present)".into(),
            ));
        }
    }
    println!(
        "compiled {} units; instrumented {}; {} hooks; {} sites; {} TIR instructions",
        art.stats.compiled_units,
        art.stats.instrumented_units,
        art.stats.hooks_inserted,
        art.manifest.entries.len(),
        art.stats.linked_insts
    );
    if timings {
        let t = &art.timings;
        println!(
            "timings: frontend {:?}; analyse {:?}; model-check {:?}; instrument {:?}; link {:?}",
            t.frontend, t.analyse, t.model_check, t.instrument, t.link
        );
    }
    Ok(())
}

fn run(rest: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut entry = "main".to_string();
    let mut prog_args: Vec<i64> = Vec::new();
    let mut graph: Option<String> = None;
    let mut chaos: Option<u64> = None;
    let mut fault_arg: Option<String> = None;
    let mut record: Option<String> = None;
    let mut violations_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut govern: Option<u32> = None;
    let mut allow_shed = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--entry" => entry = it.next().ok_or("--entry needs a name")?.clone(),
            "--arg" => prog_args.push(
                it.next()
                    .ok_or("--arg needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --arg: {e}"))?,
            ),
            "--graph" => graph = Some(it.next().ok_or("--graph needs a path")?.clone()),
            "--chaos" => {
                chaos = Some(
                    it.next()
                        .ok_or("--chaos needs a seed")?
                        .parse()
                        .map_err(|e| format!("bad --chaos seed: {e}"))?,
                )
            }
            "--faults" => fault_arg = Some(it.next().ok_or("--faults needs a spec")?.clone()),
            "--govern" => {
                govern = Some(parse_slo(
                    it.next().ok_or("--govern needs an SLO like 1.2")?,
                )?)
            }
            "--allow-shed" => allow_shed = true,
            "--record" => record = Some(it.next().ok_or("--record needs a path")?.clone()),
            "--violations" => {
                violations_out = Some(it.next().ok_or("--violations needs a path")?.clone())
            }
            "--metrics" => metrics_out = Some(it.next().ok_or("--metrics needs a path")?.clone()),
            f => files.push(f.to_string()),
        }
    }
    if allow_shed && govern.is_none() {
        return Err("--allow-shed needs --govern <slo>".into());
    }
    let plan = match chaos {
        Some(seed) => {
            let spec = match &fault_arg {
                Some(s) => s.parse::<FaultSpec>()?,
                None => FaultSpec::default_chaos(),
            };
            Some(Arc::new(FaultPlan::new(seed, spec)))
        }
        None if fault_arg.is_some() => {
            return Err("--faults needs --chaos <seed> to schedule against".into())
        }
        None => None,
    };
    let project = load_project(&files)?;
    let mut bs = BuildSystem::new(project, BuildOptions::tesla_toolchain());
    let art = bs.build().map_err(|e| e.to_string())?;
    // --graph needs live transition weights, so it switches telemetry
    // on; plain runs keep the zero-overhead default. Chaos runs are
    // governed (quota + LRU + degraded mode), log-and-continue so the
    // workload completes, and fully telemetered so every absorbed
    // fault is accounted.
    let engine = Arc::new(Tesla::new(Config {
        telemetry: graph.is_some() || plan.is_some() || metrics_out.is_some(),
        fail_mode: if plan.is_some() {
            FailMode::Log
        } else {
            FailMode::FailStop
        },
        max_instances: if plan.is_some() { Some(64) } else { None },
        eviction: if plan.is_some() {
            EvictionPolicy::Lru
        } else {
            EvictionPolicy::Error
        },
        faults: plan.clone(),
        governor: govern.map(|slo_milli| GovernorConfig {
            slo_milli,
            allow_shed,
            ..GovernorConfig::default()
        }),
        ..Config::default()
    }));
    if plan.is_some() {
        tesla::runtime::faults::silence_injected_panics();
    }
    let result = match &record {
        Some(path) => {
            let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let mut w = std::io::BufWriter::new(f);
            run_with_tesla_recorded(&art, &engine, &entry, &prog_args, 100_000_000, &mut w)
        }
        None => run_with_tesla(&art, &engine, &entry, &prog_args, 100_000_000),
    };
    // Verdict/metrics artifacts are written even for violating runs:
    // their whole point is comparing a failed run with its replay.
    write_outputs(&engine, &violations_out, &metrics_out)?;
    if let Some(path) = graph {
        let dot = weighted_graphs(&engine);
        std::fs::write(&path, &dot).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {} weighted graph(s) to {path}", engine.n_classes());
    }
    if let Some(g) = engine.governor() {
        let decisions = g.render_decisions();
        if !decisions.is_empty() {
            println!("{decisions}");
        }
        let est = g.estimate_overhead_milli(engine.metrics());
        println!(
            "governed overhead {} (SLO {}), level {}, {} hook events",
            analysis::fmt_overhead(est),
            analysis::fmt_overhead(u64::from(g.config().slo_milli)),
            g.level(),
            g.events()
        );
    }
    if let Some(p) = engine.fault_plan() {
        let ledger = p.ledger();
        println!("chaos seed {} spec {}", p.seed(), p.spec());
        print!("{}", ledger.render());
        let absorbed = engine.metrics().faults_absorbed();
        println!(
            "absorbed {} of {} injected; ledger {}",
            absorbed,
            ledger.total_injected(),
            if ledger.balanced() && absorbed == ledger.total_injected() {
                "balanced"
            } else {
                "UNBALANCED"
            }
        );
    }
    match result {
        Ok(rc) => {
            println!("{entry}({prog_args:?}) = {rc}");
            println!("{} violations", engine.violations().len());
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// Write the post-run artifacts shared by `run`, `replay` and
/// `attach`: the violation list (one rendered violation per line) and
/// the latency-free JSON counters snapshot — both byte-comparable
/// between a live run and a replay of its recording.
fn write_outputs(
    engine: &Tesla,
    violations: &Option<String>,
    metrics: &Option<String>,
) -> Result<(), String> {
    if let Some(p) = violations {
        let mut text = String::new();
        for v in engine.violations() {
            text.push_str(&v.to_string());
            text.push('\n');
        }
        std::fs::write(p, &text).map_err(|e| format!("{p}: {e}"))?;
    }
    if let Some(p) = metrics {
        let text = tesla::runtime::telemetry::export::json_counters(&engine.metrics().snapshot());
        std::fs::write(p, &text).map_err(|e| format!("{p}: {e}"))?;
    }
    Ok(())
}

/// Build the `--spec` sources into artifacts whose manifest carries
/// the automata a replayed or attached event stream is checked
/// against.
fn build_specs(specs: &[String]) -> Result<BuildArtifacts, String> {
    if specs.is_empty() {
        return Err("needs at least one --spec <file.c>".into());
    }
    let project = load_project(specs)?;
    let mut bs = BuildSystem::new(project, BuildOptions::tesla_toolchain());
    bs.build().map_err(|e| e.to_string())
}

/// Drive any event source against freshly built spec artifacts and
/// report exactly as a live run would: the shared tail of `replay`
/// and `attach`.
fn drive_source(
    verb: &str,
    art: &BuildArtifacts,
    source: &mut dyn tesla::runtime::EventSource,
    violations_out: &Option<String>,
    metrics_out: &Option<String>,
    batch_size: Option<usize>,
) -> Result<(), String> {
    let mut config = Config {
        telemetry: metrics_out.is_some(),
        ..Config::default()
    };
    if let Some(n) = batch_size {
        config.batch_size = n;
    }
    let engine = Arc::new(Tesla::new(config));
    let result = replay_with_tesla(art, &engine, source);
    write_outputs(&engine, violations_out, metrics_out)?;
    match result {
        Ok(stats) => {
            println!(
                "{verb}: {} events ({} sites); {} violations",
                stats.events,
                stats.sites,
                engine.violations().len()
            );
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Parse a `--batch-size` operand: a dispatch batch size of at
/// least 1.
fn parse_batch_size(arg: Option<&String>) -> Result<usize, String> {
    let n: usize = arg
        .ok_or("--batch-size needs a count")?
        .parse()
        .map_err(|e| format!("bad --batch-size: {e}"))?;
    if n == 0 {
        return Err("bad --batch-size: must be at least 1".into());
    }
    Ok(n)
}

fn replay(rest: &[String]) -> Result<(), String> {
    let mut trace: Option<String> = None;
    let mut specs: Vec<String> = Vec::new();
    let mut violations_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut batch_size: Option<usize> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => specs.push(it.next().ok_or("--spec needs a file")?.clone()),
            "--violations" => {
                violations_out = Some(it.next().ok_or("--violations needs a path")?.clone())
            }
            "--metrics" => metrics_out = Some(it.next().ok_or("--metrics needs a path")?.clone()),
            "--batch-size" => batch_size = Some(parse_batch_size(it.next())?),
            f if f.starts_with("--") => return Err(format!("unknown flag `{f}`")),
            f if trace.is_none() => trace = Some(f.to_string()),
            f => return Err(format!("unexpected argument `{f}` (specs go via --spec)")),
        }
    }
    let trace = trace.ok_or("replay needs a trace file")?;
    let art = build_specs(&specs).map_err(|e| format!("replay {e}"))?;
    let mut src = tesla::runtime::JsonlSource::open(std::path::Path::new(&trace))
        .map_err(|e| e.to_string())?;
    drive_source(
        "replayed",
        &art,
        &mut src,
        &violations_out,
        &metrics_out,
        batch_size,
    )
}

#[cfg(unix)]
fn attach(rest: &[String]) -> Result<(), String> {
    let mut socket: Option<String> = None;
    let mut specs: Vec<String> = Vec::new();
    let mut violations_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut conns: Option<u64> = None;
    let mut batch_size: Option<usize> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => specs.push(it.next().ok_or("--spec needs a file")?.clone()),
            "--violations" => {
                violations_out = Some(it.next().ok_or("--violations needs a path")?.clone())
            }
            "--metrics" => metrics_out = Some(it.next().ok_or("--metrics needs a path")?.clone()),
            "--batch-size" => batch_size = Some(parse_batch_size(it.next())?),
            "--timeout-ms" => {
                timeout_ms = Some(
                    it.next()
                        .ok_or("--timeout-ms needs a count")?
                        .parse()
                        .map_err(|e| format!("bad --timeout-ms: {e}"))?,
                )
            }
            "--conns" => {
                conns = Some(
                    it.next()
                        .ok_or("--conns needs a count")?
                        .parse()
                        .map_err(|e| format!("bad --conns: {e}"))?,
                )
            }
            f if f.starts_with("--") => return Err(format!("unknown flag `{f}`")),
            f if socket.is_none() => socket = Some(f.to_string()),
            f => return Err(format!("unexpected argument `{f}` (specs go via --spec)")),
        }
    }
    let socket = socket.ok_or("attach needs a socket path")?;
    let art = build_specs(&specs).map_err(|e| format!("attach {e}"))?;
    let mut src = tesla::runtime::SocketSource::bind(std::path::Path::new(&socket))
        .map_err(|e| e.to_string())?;
    if let Some(ms) = timeout_ms {
        let d = std::time::Duration::from_millis(ms);
        src = src.read_timeout(d).accept_timeout(d);
    }
    if let Some(n) = conns {
        src = src.max_conns(n);
    }
    eprintln!("listening on {socket}");
    drive_source(
        "attached",
        &art,
        &mut src,
        &violations_out,
        &metrics_out,
        batch_size,
    )
}

#[cfg(not(unix))]
fn attach(_rest: &[String]) -> Result<(), String> {
    Err("attach requires Unix domain sockets (unsupported on this platform)".into())
}

/// One transition-weighted DOT digraph per registered class, weighted
/// by the engine's live telemetry (fig. 9's "observations of dynamic
/// behaviour" combined with the static automaton).
fn weighted_graphs(engine: &Tesla) -> String {
    use tesla::automata::dot;
    let mut out = String::new();
    for (i, def) in engine.class_defs().iter().enumerate() {
        match engine.metrics().weight_source(i as u32) {
            Some(w) => out.push_str(&dot::render(&def.automaton, &*w)),
            None => out.push_str(&dot::render(&def.automaton, &dot::Unweighted)),
        }
    }
    out
}

fn observe(rest: &[String]) -> Result<(), CliError> {
    let mut files = Vec::new();
    let mut entry = "main".to_string();
    let mut prog_args: Vec<i64> = Vec::new();
    let mut format: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut anomalies = false;
    let mut replay_trace: Option<String> = None;
    let mut chaos: Option<u64> = None;
    let mut fault_arg: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--entry" => entry = it.next().ok_or("--entry needs a name")?.clone(),
            "--arg" => prog_args.push(
                it.next()
                    .ok_or("--arg needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --arg: {e}"))?,
            ),
            "--format" => {
                format = Some(
                    it.next()
                        .ok_or("--format needs prom|json|dot|trace (or text under --anomalies)")?
                        .clone(),
                )
            }
            "-o" | "--output" => out_path = Some(it.next().ok_or("-o needs a path")?.clone()),
            "--baseline" => {
                baseline_path = Some(it.next().ok_or("--baseline needs a path")?.clone())
            }
            "--anomalies" => anomalies = true,
            "--replay" => {
                replay_trace = Some(it.next().ok_or("--replay needs a trace file")?.clone())
            }
            "--chaos" => {
                chaos = Some(
                    it.next()
                        .ok_or("--chaos needs a seed")?
                        .parse()
                        .map_err(|e| format!("bad --chaos seed: {e}"))?,
                )
            }
            "--faults" => fault_arg = Some(it.next().ok_or("--faults needs a spec")?.clone()),
            f => match f.strip_prefix("--format=") {
                Some(v) => format = Some(v.to_string()),
                None => files.push(f.to_string()),
            },
        }
    }
    if anomalies && baseline_path.is_none() {
        return Err("--anomalies needs --baseline <file>".into());
    }
    // Scoring is on when a baseline is given; --anomalies alone names
    // the intent but the baseline is what makes it possible.
    let scoring = baseline_path.is_some();
    let format = format.unwrap_or_else(|| if scoring { "text" } else { "prom" }.to_string());
    let valid = if scoring {
        matches!(format.as_str(), "text" | "prom" | "json")
    } else {
        matches!(format.as_str(), "prom" | "json" | "dot" | "trace")
    };
    if !valid {
        return Err(format!(
            "unknown --format `{format}` (expected {})",
            if scoring {
                "text|json|prom under --baseline"
            } else {
                "prom|json|dot|trace"
            }
        )
        .into());
    }
    // Load the baseline before the run so a malformed or
    // version-bumped file is a positioned usage error (exit 2), as a
    // bad trace is: both are read by the same code.
    let baseline = match &baseline_path {
        Some(p) => Some(Baseline::load(std::path::Path::new(p))?),
        None => None,
    };
    let plan = match chaos {
        Some(seed) => {
            let spec = match &fault_arg {
                Some(s) => s.parse::<FaultSpec>()?,
                None => FaultSpec::default_chaos(),
            };
            Some(Arc::new(FaultPlan::new(seed, spec)))
        }
        None if fault_arg.is_some() => {
            return Err("--faults needs --chaos <seed> to schedule against".into())
        }
        None => None,
    };
    let project = load_project(&files)?;
    let mut bs = BuildSystem::new(project, BuildOptions::tesla_toolchain());
    let art = bs.build().map_err(|e| e.to_string())?;

    // Full telemetry: metrics registry (auto-attached by the engine)
    // plus a flight recorder for the event log. Violations are
    // observations here, not failures — log-and-continue.
    let engine = Arc::new(Tesla::new(Config {
        telemetry: true,
        fail_mode: FailMode::Log,
        faults: plan.clone(),
        ..Config::default()
    }));
    if plan.is_some() {
        tesla::runtime::faults::silence_injected_panics();
    }
    let recorder = Arc::new(FlightRecorder::default());
    engine.add_handler(recorder.clone());

    let driven = match &replay_trace {
        Some(trace) => {
            let mut src = tesla::runtime::JsonlSource::open(std::path::Path::new(trace))
                .map_err(|e| e.to_string())?;
            let stats = replay_with_tesla(&art, &engine, &mut src).map_err(|e| e.to_string())?;
            format!("replayed {} events ({} sites)", stats.events, stats.sites)
        }
        None => {
            let rc = run_with_tesla(&art, &engine, &entry, &prog_args, 100_000_000)?;
            format!("{entry}({prog_args:?}) = {rc}")
        }
    };

    use tesla::runtime::telemetry::export;
    let snap = engine.metrics().snapshot();
    let (report, verdict) = match &baseline {
        Some(base) => {
            let scored = analysis::score(base, &snap, Some(&recorder));
            let text = match format.as_str() {
                "json" => analysis::anomaly::json(&scored),
                "prom" => analysis::anomaly::prometheus(&scored),
                _ => analysis::anomaly::render_text(&scored),
            };
            (text, Some(scored))
        }
        None => {
            let text = match format.as_str() {
                "prom" => export::prometheus(&snap),
                "json" => export::json(&snap),
                "trace" => export::chrome_trace(&recorder.snapshot()),
                _ => weighted_graphs(&engine),
            };
            (text, None)
        }
    };
    match out_path {
        Some(p) => std::fs::write(&p, &report).map_err(|e| format!("{p}: {e}"))?,
        None => print!("{report}"),
    }
    eprintln!(
        "{driven}; {} events, {} violations, {} recorded ({} overwritten)",
        engine.metrics().events_total(),
        engine.metrics().violations(),
        recorder.total_recorded(),
        recorder.overwritten(),
    );
    if let Some(scored) = verdict {
        eprintln!(
            "anomalies: {} finding(s) over {} scored class(es) ({} unmatched)",
            scored.anomalies.len(),
            scored.classes_scored,
            scored.classes_unmatched
        );
        if !scored.is_clean() {
            let codes: Vec<&str> = scored.anomalies.iter().map(|a| a.code.code()).collect();
            return Err(CliError::Denied(format!(
                "anomalies detected: {}",
                codes.join(", ")
            )));
        }
    }
    Ok(())
}

fn baseline_cmd(rest: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut entry = "main".to_string();
    let mut prog_args: Vec<i64> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut from_trace: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--entry" => entry = it.next().ok_or("--entry needs a name")?.clone(),
            "--arg" => prog_args.push(
                it.next()
                    .ok_or("--arg needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --arg: {e}"))?,
            ),
            "--out" | "-o" => out_path = Some(it.next().ok_or("--out needs a path")?.clone()),
            "--from-trace" => {
                from_trace = Some(it.next().ok_or("--from-trace needs a trace file")?.clone())
            }
            f => files.push(f.to_string()),
        }
    }
    let project = load_project(&files)?;
    let mut bs = BuildSystem::new(project, BuildOptions::tesla_toolchain());
    let art = bs.build().map_err(|e| e.to_string())?;
    // A baseline is a statement about healthy behaviour: violations
    // are recorded (log-and-continue) but do not abort the learning
    // run — the operator decides whether the run was healthy.
    let engine = Arc::new(Tesla::new(Config {
        telemetry: true,
        fail_mode: FailMode::Log,
        ..Config::default()
    }));
    match &from_trace {
        Some(trace) => {
            let mut src = tesla::runtime::JsonlSource::open(std::path::Path::new(trace))
                .map_err(|e| e.to_string())?;
            let stats = replay_with_tesla(&art, &engine, &mut src).map_err(|e| e.to_string())?;
            eprintln!(
                "learned from {trace}: {} events ({} sites)",
                stats.events, stats.sites
            );
        }
        None => {
            let rc = run_with_tesla(&art, &engine, &entry, &prog_args, 100_000_000)?;
            eprintln!("learned from {entry}({prog_args:?}) = {rc}");
        }
    }
    let base = Baseline::from_snapshot(&engine.metrics().snapshot());
    eprintln!(
        "baseline: {} hook profile(s), {} class distribution(s), {} violation(s) during learning",
        base.hooks.len(),
        base.classes.len(),
        engine.violations().len()
    );
    match out_path {
        Some(p) => base.save(std::path::Path::new(&p))?,
        None => print!("{}", base.render()),
    }
    Ok(())
}

/// `tesla scenario <run|fuzz>` — the declarative scenario engine.
fn scenario_cmd(rest: &[String]) -> Result<(), CliError> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("scenario needs a subcommand: run or fuzz".into());
    };
    match sub.as_str() {
        "run" => scenario_run(rest),
        "fuzz" => scenario_fuzz(rest).map_err(CliError::Usage),
        other => Err(CliError::Usage(format!(
            "unknown scenario subcommand `{other}` (expected run or fuzz)"
        ))),
    }
}

fn scenario_run(rest: &[String]) -> Result<(), CliError> {
    let mut tap = false;
    let mut out_path: Option<String> = None;
    let mut path: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tap" => tap = true,
            "--out" => {
                out_path = Some(it.next().ok_or("--out needs a file path")?.clone());
            }
            p => {
                if path.is_some() {
                    return Err(CliError::Usage(format!(
                        "scenario run takes one path, got a second: `{p}`"
                    )));
                }
                path = Some(p.to_string());
            }
        }
    }
    let path = path.ok_or("scenario run needs a scenario file or directory")?;
    let results =
        tesla::scenario::run_batch(std::path::Path::new(&path)).map_err(CliError::Usage)?;
    let tap_text = tesla::scenario::render_tap(&results);
    if tap {
        print!("{tap_text}");
    } else {
        let mut coverage = tesla::automata::CoverageMap::new();
        for r in &results {
            coverage.merge(&r.coverage);
            if r.ok() {
                println!("ok   {}", r.name);
            } else {
                println!("FAIL {}", r.name);
                for f in &r.failures {
                    println!("     - {f}");
                }
            }
        }
        let (covered, total) = coverage.totals();
        println!(
            "{} scenarios, {} failed; transition coverage {covered}/{total}",
            results.len(),
            results.iter().filter(|r| !r.ok()).count()
        );
    }
    if let Some(o) = &out_path {
        std::fs::write(o, &tap_text).map_err(|e| format!("{o}: {e}"))?;
    }
    let failed = results.iter().filter(|r| !r.ok()).count();
    if failed > 0 {
        return Err(CliError::Denied(format!(
            "{failed} of {} scenario(s) failed",
            results.len()
        )));
    }
    Ok(())
}

fn scenario_fuzz(rest: &[String]) -> Result<(), String> {
    let mut params = tesla::scenario::FuzzParams::default();
    let mut out_dir: Option<String> = None;
    let mut path: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                params.seed = v.parse().map_err(|e| format!("bad --seed `{v}`: {e}"))?;
            }
            "--iterations" => {
                let v = it.next().ok_or("--iterations needs a value")?;
                params.iterations = v
                    .parse()
                    .map_err(|e| format!("bad --iterations `{v}`: {e}"))?;
            }
            "--budget-ms" => {
                let v = it.next().ok_or("--budget-ms needs a value")?;
                params.budget_ms = Some(
                    v.parse()
                        .map_err(|e| format!("bad --budget-ms `{v}`: {e}"))?,
                );
            }
            "--out" => {
                out_dir = Some(it.next().ok_or("--out needs a directory")?.clone());
            }
            p => {
                if path.is_some() {
                    return Err(format!("scenario fuzz takes one corpus dir, got `{p}`"));
                }
                path = Some(p.to_string());
            }
        }
    }
    let path = path.ok_or("scenario fuzz needs a corpus directory")?;
    let corpus_dir = std::path::Path::new(&path);
    let files = tesla::scenario::collect_scenario_files(corpus_dir)?;
    let mut seeds = Vec::with_capacity(files.len());
    for f in &files {
        let stem = f
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("scenario")
            .to_string();
        seeds.push((stem, tesla::scenario::load_scenario_file(f)?));
    }
    let base_dir = if corpus_dir.is_dir() {
        corpus_dir.to_path_buf()
    } else {
        corpus_dir
            .parent()
            .unwrap_or(std::path::Path::new("."))
            .to_path_buf()
    };
    let outcome = tesla::scenario::fuzz_corpus(&seeds, &base_dir, params);
    println!(
        "fuzz: seed {}, {} mutant(s) tried, {} interesting, {} saved",
        params.seed,
        outcome.attempts,
        outcome.interesting,
        outcome.saved.len()
    );
    println!(
        "coverage: {}/{} cells before, {}/{} after",
        outcome.baseline.0, outcome.baseline.1, outcome.after.0, outcome.after.1
    );
    let out_dir = out_dir.map_or_else(|| base_dir.clone(), std::path::PathBuf::from);
    if !outcome.saved.is_empty() {
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    }
    for saved in &outcome.saved {
        let file = out_dir.join(format!("{}.yaml", saved.name));
        std::fs::write(&file, tesla::scenario::fuzz::render_saved(saved))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!(
            "saved {} ({} new cell(s), {} novel violation(s))",
            file.display(),
            saved.new_cells.len(),
            saved.novel_violations.len()
        );
        for (class, state, symbol) in &saved.new_cells {
            println!("  new cell: {class} state {state} symbol {symbol}");
        }
        for sig in &saved.novel_violations {
            println!("  novel violation: {sig}");
        }
    }
    Ok(())
}
