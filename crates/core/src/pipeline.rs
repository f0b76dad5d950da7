//! The end-to-end TESLA build pipeline, with the incremental-rebuild
//! behaviour of §5.1 (fig. 10) — and the fix the paper asks for.
//!
//! A [`BuildSystem`] owns a project (a set of mini-C units) and a
//! per-unit cache, and supports two workflows:
//!
//! * **Default** — parse, lower, link, optimise. Incremental rebuilds
//!   recompile only dirty units and relink.
//! * **TESLA** — parse, *analyse* (extract assertions to per-unit
//!   `.tesla` manifests), merge manifests program-wide, *instrument
//!   every unit against the merged manifest*, link, optimise.
//!
//! "TESLA assertions in any source file can reference events that are
//! defined in any other source file … after modifying a TESLA
//! assertion in any one source file, instrumentation must be
//! performed again, potentially on many files. In our current
//! implementation, we naively re-instrument all code" (§5.1). Two
//! [`ReinstrumentPolicy`] modes span the design space:
//!
//! * [`Naive`](ReinstrumentPolicy::Naive) reproduces the paper's
//!   implementation: the combined `.tesla` file is regenerated on
//!   every build, so every object is considered stale, and each unit
//!   re-loads and re-parses the merged manifest (§7).
//! * [`Delta`](ReinstrumentPolicy::Delta) is the incremental
//!   toolchain: assertions are compiled once per content fingerprint
//!   in a shared [`CompileCache`], each unit's staleness is decided by
//!   the slice of the instrumentation plan that can actually touch it
//!   (see [`tesla_instrument::unit_touch_set`] and DESIGN.md §10),
//!   and the per-unit back-end fans out across threads.
//!
//! Both policies share one early cutoff (DESIGN.md §10.5): the
//! merged manifest, and under `Delta` the weave plan built from it,
//! are kept across builds until some unit's own manifest changes.

use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tesla_automata::{CompileCache, Fnv64, Manifest};
use tesla_cc::UnitOutput;
use tesla_instrument::{
    instrument_precompiled, instrument_with_elision, lint_manifest, model_check,
    register_manifest_cached, static_check, unit_touch_set, weave_plan, AssertionReport,
    InstrStats, LintFinding, RecordingSink, RuntimeSink, StaticFinding, UnitTouchSet, WeavePlan,
};
use tesla_ir::opt::optimise;
use tesla_ir::verify::{verify, Stage};
use tesla_ir::{Interp, Module};
use tesla_runtime::{DriveError, EventSource, IngressStats, Tesla};

/// One source unit.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceUnit {
    /// File name.
    pub file: String,
    /// Mini-C source text.
    pub source: String,
}

/// A project: the program's translation units.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Project {
    /// The units.
    pub units: Vec<SourceUnit>,
}

impl Project {
    /// Construct from (file, source) pairs.
    pub fn from_sources(sources: &[(&str, &str)]) -> Project {
        Project {
            units: sources
                .iter()
                .map(|(f, s)| SourceUnit {
                    file: (*f).to_string(),
                    source: (*s).to_string(),
                })
                .collect(),
        }
    }

    /// Total source bytes (reporting).
    pub fn total_bytes(&self) -> usize {
        self.units.iter().map(|u| u.source.len()).sum()
    }
}

/// When does an assertion change force re-instrumenting other units?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReinstrumentPolicy {
    /// Any change to any unit re-instruments everything (the paper's
    /// implementation: the combined `.tesla` file is regenerated, so
    /// every IR file is considered stale).
    #[default]
    Naive,
    /// Delta-aware invalidation: re-instrument a unit only when the
    /// part of the instrumentation plan that can touch *that unit*
    /// changed. Automata are compiled once per assertion content
    /// fingerprint and shared across units; the per-unit back-end
    /// runs in parallel ([`BuildOptions::jobs`]).
    Delta,
}

/// Build configuration.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Run the TESLA analyser + instrumenter stages. Either way the
    /// optimiser runs on every object, after instrumentation (§4.2).
    pub tesla: bool,
    /// Incremental re-instrumentation policy.
    pub reinstrument: ReinstrumentPolicy,
    /// Verify units and the linked program. On in all three presets;
    /// `repro build-modes` turns it off to time the build stages
    /// alone, as real toolchains do not re-verify.
    pub verify: bool,
    /// Run the flow-sensitive static model checker before
    /// instrumenting and elide hooks for assertions it proves safe
    /// (§7's "static analysis" direction).
    pub model_check: bool,
    /// Run the specification-level lints ([`lint_manifest`]) over the
    /// merged manifest — vacuity, contradiction, subsumption,
    /// dead-state, bound and matcher checks on the assertions
    /// themselves, independent of any program analysis.
    pub lint: bool,
    /// Worker threads for the [`ReinstrumentPolicy::Delta`] front-end
    /// and back-end fan-out. `0` means "use the machine's available
    /// parallelism"; `1` forces serial execution. The Naive mode
    /// always runs serially — it exists to reproduce the paper's
    /// measurements.
    pub jobs: usize,
}

impl BuildOptions {
    /// The default (non-TESLA) toolchain.
    pub fn default_toolchain() -> BuildOptions {
        BuildOptions {
            tesla: false,
            reinstrument: ReinstrumentPolicy::Naive,
            verify: true,
            model_check: false,
            lint: false,
            jobs: 0,
        }
    }

    /// The TESLA toolchain, with the paper's naive re-instrumentation.
    pub fn tesla_toolchain() -> BuildOptions {
        BuildOptions {
            tesla: true,
            reinstrument: ReinstrumentPolicy::Naive,
            verify: true,
            model_check: false,
            lint: false,
            jobs: 0,
        }
    }

    /// The TESLA toolchain with the static model checker in front:
    /// proved-safe assertions are elided, definite violations become
    /// compile-time reports, everything else falls back to the
    /// dynamic instrumentation of [`tesla_toolchain`](Self::tesla_toolchain).
    pub fn static_toolchain() -> BuildOptions {
        BuildOptions {
            model_check: true,
            ..BuildOptions::tesla_toolchain()
        }
    }

    /// The incremental TESLA toolchain: shared automaton compile
    /// cache, delta-aware invalidation, parallel back-end.
    pub fn delta_toolchain() -> BuildOptions {
        BuildOptions {
            reinstrument: ReinstrumentPolicy::Delta,
            ..BuildOptions::tesla_toolchain()
        }
    }
}

/// Statistics from one build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Units (re)compiled front-end-side.
    pub compiled_units: usize,
    /// Units (re)instrumented.
    pub instrumented_units: usize,
    /// Total TIR instructions in the linked program.
    pub linked_insts: usize,
    /// Hooks inserted across re-instrumented units.
    pub hooks_inserted: usize,
    /// Assertion sites removed outright because the model checker
    /// proved them safe (summed across re-instrumented units).
    pub sites_elided: usize,
    /// Bytes of per-unit object code emitted (recompiled units in
    /// default mode; every re-instrumented unit in TESLA mode — the
    /// paper's per-file IR read/instrument/write cycle, §5.1/§7).
    pub object_bytes: usize,
}

/// Wall-clock per pipeline stage for one build — the breakdown behind
/// fig. 10's bar heights.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Front-end: parse + lower dirty units (and unit verification).
    pub frontend: Duration,
    /// Analyse: merge per-unit manifests program-wide (skipped while
    /// the kept merge is current), plus the specification lints.
    pub analyse: Duration,
    /// Static model checking (zero unless enabled).
    pub model_check: Duration,
    /// Per-unit back-end: instrument, optimise, emit objects.
    pub instrument: Duration,
    /// Link + linked-program verification.
    pub link: Duration,
}

/// A finished build.
pub struct BuildArtifacts {
    /// The linked (and, in TESLA mode, instrumented) program.
    pub program: Module,
    /// The merged program manifest (empty in default mode). Shared
    /// with the build system, which hands the same `Arc` to every
    /// build until some unit's manifest changes.
    pub manifest: Arc<Manifest>,
    /// What the build did.
    pub stats: BuildStats,
    /// Per-assertion model-checker verdicts (empty unless
    /// [`BuildOptions::model_check`] was set).
    pub verdicts: Vec<AssertionReport>,
    /// Flow-insensitive static findings (dormant/unchecked/
    /// unsatisfiable assertions; empty unless `model_check` was set).
    pub findings: Vec<StaticFinding>,
    /// Specification-level lint findings (empty unless
    /// [`BuildOptions::lint`] was set).
    pub lints: Vec<LintFinding>,
    /// Per-stage wall-clock breakdown.
    pub timings: StageTimings,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// The build's shared compile cache: automata and the DFAs their
    /// instances step on, memoised by assertion content
    /// fingerprint. Engine registration resolves through it so
    /// subset construction runs once per build system, not once per
    /// engine.
    pub compile_cache: Arc<CompileCache>,
}

/// Build failure.
#[derive(Debug)]
pub enum BuildError {
    /// Front-end failure.
    Compile(String, tesla_cc::CompileError),
    /// Link failure.
    Link(String),
    /// Instrumentation failure.
    Instrument(tesla_instrument::InstrumentError),
    /// Static analysis failure (manifest compilation inside the model
    /// checker or the flow-insensitive checks).
    Analysis(String),
    /// Verifier rejection.
    Verify(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Compile(file, e) => write!(f, "{file}: {e}"),
            BuildError::Link(e) => write!(f, "link: {e}"),
            BuildError::Instrument(e) => write!(f, "instrument: {e}"),
            BuildError::Analysis(e) => write!(f, "analysis: {e}"),
            BuildError::Verify(e) => write!(f, "verify: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// One compiled unit, with the facts the back-end needs about it
/// computed once, when the unit compiles.
struct CachedUnit {
    /// Fingerprint of the source text the unit was compiled from.
    source_fp: u64,
    /// Pristine module and per-unit manifest.
    output: UnitOutput,
    /// What the unit's woven form can depend on (Delta back-end only;
    /// empty under the other policies).
    touch: UnitTouchSet,
}

/// Program-wide state derived from the per-unit manifests: the early
/// cutoff of DESIGN.md §10.5. Dropped when a unit recompiles to a
/// different manifest.
struct Merged {
    /// The merged program manifest.
    manifest: Arc<Manifest>,
    /// Delta only: for each unit file, the merged-manifest id and the
    /// content fingerprint of each of the unit's own entries, in
    /// manifest order — the third input of [`delta_key`], hashed once
    /// per merge instead of once per unit per build.
    own: HashMap<String, Vec<(u32, u64)>>,
    /// The Delta weave plan of `manifest`, with the elision set it was
    /// built for.
    plan: Option<(HashSet<u32>, Arc<WeavePlan>)>,
}

/// The incremental build system.
pub struct BuildSystem {
    project: Project,
    options: BuildOptions,
    /// Per-unit front-end cache, by file.
    unit_cache: HashMap<String, CachedUnit>,
    /// Dirty files (explicitly touched since the last build). Only
    /// these, and units not yet compiled, are fingerprinted: `touch`
    /// and `edit` are the only ways to change a unit's source.
    dirty: HashSet<String>,
    /// The merged manifest of the last build and the plan built from
    /// it, while still current.
    merged: Option<Merged>,
    /// Per-unit object cache: file → (source fp, instrumentation key,
    /// instrumented+optimised module). Modules are `Arc`-shared with
    /// the link step, so a cache hit is a pointer copy, not a deep
    /// clone.
    object_cache: HashMap<String, (u64, u64, Arc<Module>)>,
    /// Shared automaton compile cache (Delta mode): one compilation
    /// per assertion content fingerprint per program, ever.
    compile_cache: Arc<CompileCache>,
    /// Monotonic build counter (naive TESLA staleness key).
    build_seq: u64,
}

/// Encode a unit's compiled form — the object-file emission cost of
/// the real toolchain (LLVM bitcode write, §5.1). Returns its length.
fn emit_object(m: &Module) -> usize {
    tesla_ir::encode(m).len()
}

/// One IR write+read round-trip between toolchain stages (the
/// `clang → .bc → instrumenter → .bc → opt` hand-offs of §4.2).
fn reload_ir(m: &Module) -> Result<Module, String> {
    tesla_ir::decode(&tesla_ir::encode(m)).map_err(|e| e.to_string())
}

fn fingerprint(s: &str) -> u64 {
    tesla_automata::fnv1a(s.as_bytes())
}

/// The per-unit Delta staleness key: a fingerprint (see [`Fnv64`]) of
/// exactly the inputs the weave of this unit depends on —
///
/// 1. plan entries whose function this unit defines (callee side) or
///    calls (caller side),
/// 2. field targets matching a store in this unit,
/// 3. the unit's own assertion sites: merged-manifest class id,
///    assertion content fingerprint, and elision verdict. `own` holds
///    the first two, read from the kept merge's per-unit index
///    ([`Merged::own`]).
///
/// Anything else provably cannot change the woven output of this unit
/// (the soundness argument is spelled out in DESIGN.md §10), so a key
/// match means the cached object is byte-identical to what a re-weave
/// would produce.
fn delta_key(
    plan: &WeavePlan,
    touch: &UnitTouchSet,
    own: &[(u32, u64)],
    elided: &HashSet<u32>,
) -> u64 {
    let mut h = Fnv64::new();
    for (name, side) in &plan.functions {
        if touch.function_relevant(name, *side) {
            h.write(name.as_bytes());
            h.write_u32(*side as u32);
        }
    }
    for target in &plan.fields {
        if touch.field_relevant(target) {
            h.write(target.0.as_bytes());
            h.write(&[0xfe]);
            h.write(target.1.as_bytes());
        }
    }
    for &(id, content) in own {
        h.write_u32(id);
        h.write_u64(content);
        h.write(&[u8::from(elided.contains(&id))]);
    }
    h.finish()
}

/// Map `f` over `items` on up to `jobs` scoped threads, preserving
/// order. Falls back to a plain serial loop for `jobs <= 1` or tiny
/// inputs. Results come back in item order, so callers can report the
/// first error deterministically, exactly as a serial loop would.
fn parallel_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.min(n).max(1);
    if jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    let chunk = n.div_ceil(jobs);
    std::thread::scope(|s| {
        for (in_chunk, out_chunk) in slots.chunks_mut(chunk).zip(results.chunks_mut(chunk)) {
            s.spawn(|| {
                for (slot, out) in in_chunk.iter_mut().zip(out_chunk.iter_mut()) {
                    *out = Some(f(slot.take().expect("slot filled exactly once")));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// Output of weaving one unit in the Delta back-end.
struct WovenUnit {
    module: Arc<Module>,
    stats: InstrStats,
    object_bytes: usize,
}

impl BuildSystem {
    /// Create a build system over a project.
    pub fn new(project: Project, options: BuildOptions) -> BuildSystem {
        BuildSystem::with_compile_cache(project, options, Arc::new(CompileCache::new()))
    }

    /// Create a build system sharing an automaton compile cache —
    /// e.g. across the build systems of several test programs that
    /// assert the same properties.
    pub fn with_compile_cache(
        project: Project,
        options: BuildOptions,
        compile_cache: Arc<CompileCache>,
    ) -> BuildSystem {
        BuildSystem {
            project,
            options,
            unit_cache: HashMap::new(),
            dirty: HashSet::new(),
            merged: None,
            object_cache: HashMap::new(),
            compile_cache,
            build_seq: 0,
        }
    }

    /// The shared automaton compile cache (hit/miss counters are
    /// visible through it).
    pub fn compile_cache(&self) -> &Arc<CompileCache> {
        &self.compile_cache
    }

    /// Mark a file as edited (appends a comment so the fingerprint
    /// changes, like a save in an editor).
    pub fn touch(&mut self, file: &str) {
        if let Some(u) = self.project.units.iter_mut().find(|u| u.file == file) {
            u.source.push_str("\n// touched\n");
            self.dirty.insert(file.to_string());
        }
    }

    /// Edit a file's source outright.
    pub fn edit(&mut self, file: &str, new_source: &str) {
        if let Some(u) = self.project.units.iter_mut().find(|u| u.file == file) {
            u.source = new_source.to_string();
            self.dirty.insert(file.to_string());
        }
    }

    /// Does the build weave through the Delta back-end?
    fn delta(&self) -> bool {
        self.options.tesla && self.options.reinstrument == ReinstrumentPolicy::Delta
    }

    /// Worker threads to use in Delta mode.
    fn effective_jobs(&self) -> usize {
        match self.options.jobs {
            0 => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }

    /// Front-end: recompile units whose source fingerprint changed.
    /// Serial for Naive (the paper's toolchain), fanned
    /// out for Delta. A unit that recompiles to a different manifest
    /// (or compiles for the first time) drops the merged manifest.
    fn run_frontend(&mut self, stats: &mut BuildStats) -> Result<(), BuildError> {
        let changed: Vec<(String, String, u64)> = self
            .project
            .units
            .iter()
            .filter_map(|unit| {
                let cached = self.unit_cache.get(&unit.file);
                if cached.is_some() && !self.dirty.contains(&unit.file) {
                    return None;
                }
                let fp = fingerprint(&unit.source);
                (cached.map(|c| c.source_fp) != Some(fp))
                    .then(|| (unit.file.clone(), unit.source.clone(), fp))
            })
            .collect();
        let jobs = if self.options.reinstrument == ReinstrumentPolicy::Delta {
            self.effective_jobs()
        } else {
            1
        };
        let verify_units = self.options.verify;
        let touch_sets = self.delta();
        let outputs = parallel_map(changed, jobs, |(file, source, fp)| {
            let output = tesla_cc::compile_unit(&source, &file)
                .map_err(|e| BuildError::Compile(file.clone(), e))?;
            if verify_units {
                verify(&output.module, Stage::Unit)
                    .map_err(|e| BuildError::Verify(format!("{file}: {e:?}")))?;
            }
            let touch = if touch_sets {
                unit_touch_set(&output.module)
            } else {
                UnitTouchSet::default()
            };
            let unit = CachedUnit {
                source_fp: fp,
                output,
                touch,
            };
            Ok::<(String, CachedUnit), BuildError>((file, unit))
        });
        for result in outputs {
            let (file, unit) = result?;
            let same_manifest = self
                .unit_cache
                .get(&file)
                .is_some_and(|old| old.output.manifest == unit.output.manifest);
            if !same_manifest {
                self.merged = None;
            }
            self.unit_cache.insert(file, unit);
            stats.compiled_units += 1;
        }
        self.dirty.clear();
        Ok(())
    }

    /// The merged program manifest: the kept one while no unit's
    /// manifest changed, else a fresh merge of the per-unit manifests
    /// (empty in default mode), indexed by unit under Delta.
    fn merged_manifest(&mut self) -> Arc<Manifest> {
        if let Some(merged) = &self.merged {
            return Arc::clone(&merged.manifest);
        }
        let manifest = if self.options.tesla {
            let per_unit: Vec<&Manifest> = self
                .project
                .units
                .iter()
                .map(|u| &self.unit_cache[&u.file].output.manifest)
                .collect();
            Manifest::merge_refs(&per_unit)
        } else {
            Manifest::new()
        };
        let mut own: HashMap<String, Vec<(u32, u64)>> = HashMap::new();
        if self.delta() {
            for (idx, entry) in manifest.entries.iter().enumerate() {
                let id = u32::try_from(idx).expect("more than u32::MAX assertions");
                own.entry(entry.source_file.clone())
                    .or_default()
                    .push((id, entry.content_fingerprint()));
            }
        }
        let manifest = Arc::new(manifest);
        self.merged = Some(Merged {
            manifest: Arc::clone(&manifest),
            own,
            plan: None,
        });
        manifest
    }

    /// The Delta weave plan of the merged manifest under `elided`: the
    /// kept one if it was built for the same elision set, else one
    /// built from the automata of the shared compile cache.
    fn delta_plan(&mut self, elided: &HashSet<u32>) -> Result<Arc<WeavePlan>, BuildError> {
        let merged = self
            .merged
            .as_mut()
            .expect("the merged manifest is built before the back-end");
        if let Some((for_elided, plan)) = &merged.plan {
            if for_elided == elided {
                return Ok(Arc::clone(plan));
            }
        }
        let automata = self
            .compile_cache
            .compile_manifest(&merged.manifest)
            .map_err(|(name, e)| BuildError::Analysis(format!("{name}: {e}")))?;
        let plan = Arc::new(weave_plan(&automata, elided));
        merged.plan = Some((elided.clone(), Arc::clone(&plan)));
        Ok(plan)
    }

    /// Back-end for Naive: the paper's per-unit workflow,
    /// deliberately preserved — two IR round-trips per unit plus a
    /// re-load and re-parse of the merged `.tesla` text (§5.1, §7).
    fn weave_unit_naive(
        &self,
        unit_out: &UnitOutput,
        manifest_text: &str,
        elided: &HashSet<u32>,
        stats: &mut BuildStats,
    ) -> Result<Module, BuildError> {
        let mut m = reload_ir(&unit_out.module).map_err(BuildError::Link)?;
        let reloaded = crate::manifest::from_tesla(manifest_text)
            .map_err(|e| BuildError::Link(format!("manifest reload: {e}")))?;
        let st =
            instrument_with_elision(&mut m, &reloaded, elided).map_err(BuildError::Instrument)?;
        m = reload_ir(&m).map_err(BuildError::Link)?;
        stats.instrumented_units += 1;
        stats.hooks_inserted +=
            st.entry_hooks + st.exit_hooks + st.call_site_hooks + st.field_hooks;
        stats.sites_elided += st.sites_elided;
        Ok(m)
    }

    /// Run a build: full on first call, incremental afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] from any stage.
    ///
    /// # Panics
    ///
    /// Panics only on internal invariant violations (a unit index out
    /// of range).
    pub fn build(&mut self) -> Result<BuildArtifacts, BuildError> {
        let t0 = Instant::now();
        let mut stats = BuildStats::default();
        let mut timings = StageTimings::default();

        let t = Instant::now();
        self.run_frontend(&mut stats)?;
        timings.frontend = t.elapsed();

        // Analyse: merge the per-unit manifests program-wide, unless
        // the last build's merge is still current.
        let t = Instant::now();
        let manifest = self.merged_manifest();
        // Specification-level lints run straight off the merged
        // manifest: they concern the assertions themselves, so they
        // need no program analysis and report before any weaving.
        let lints: Vec<LintFinding> = if self.options.tesla && self.options.lint {
            lint_manifest(&manifest).map_err(BuildError::Analysis)?
        } else {
            Vec::new()
        };
        timings.analyse = t.elapsed();

        // Static analysis: model-check the *pristine* (un-instrumented)
        // program against the merged manifest. Elision decisions are
        // whole-program facts, so the checker must see the linked
        // flow graph, not any single unit.
        let t = Instant::now();
        let mut verdicts: Vec<AssertionReport> = Vec::new();
        let mut findings: Vec<StaticFinding> = Vec::new();
        let mut elided: HashSet<u32> = HashSet::new();
        if self.options.tesla && self.options.model_check {
            let pristine: Vec<&Module> = self
                .project
                .units
                .iter()
                .map(|u| &self.unit_cache[&u.file].output.module)
                .collect();
            let analysis = Module::link_refs(&pristine, "analysis").map_err(BuildError::Link)?;
            verdicts = model_check(&analysis, &manifest).map_err(BuildError::Analysis)?;
            findings = static_check(&analysis, &manifest).map_err(BuildError::Analysis)?;
            elided = verdicts
                .iter()
                .filter(|r| r.verdict.elidable())
                .map(|r| r.class)
                .collect();
        }
        timings.model_check = t.elapsed();

        // Per-unit back-end: instrument (TESLA) → optimise → emit
        // object code. This mirrors the paper's per-file workflow
        // (clang -O0 → instrument → opt -O2 → .o); objects are cached
        // so the default toolchain's incremental rebuild only re-does
        // the dirty unit, while the naive TESLA toolchain re-does
        // every unit on any change (§5.1).
        let t = Instant::now();
        let modules = if self.delta() {
            self.backend_delta(&manifest, &elided, &mut stats)?
        } else {
            self.backend_serial(&manifest, &elided, &mut stats)?
        };
        timings.instrument = t.elapsed();

        // Link (cheap relative to the per-unit work, as in a real
        // toolchain).
        let t = Instant::now();
        let refs: Vec<&Module> = modules.iter().map(Arc::as_ref).collect();
        let program = Module::link_refs(&refs, "program").map_err(BuildError::Link)?;
        if self.options.verify {
            verify(&program, Stage::Linked)
                .map_err(|e| BuildError::Verify(format!("linked: {:?}", e.first().unwrap())))?;
        }
        timings.link = t.elapsed();
        stats.linked_insts = program.n_insts();
        Ok(BuildArtifacts {
            program,
            manifest,
            stats,
            verdicts,
            findings,
            lints,
            timings,
            elapsed: t0.elapsed(),
            compile_cache: Arc::clone(&self.compile_cache),
        })
    }

    /// Naive (and non-TESLA) back-end: one staleness key for the
    /// whole program, serial per-unit loop. The merged
    /// `.tesla` text is only rendered when some unit actually needs
    /// re-weaving — a fully cached build serialises nothing.
    fn backend_serial(
        &mut self,
        manifest: &Manifest,
        elided: &HashSet<u32>,
        stats: &mut BuildStats,
    ) -> Result<Vec<Arc<Module>>, BuildError> {
        let manifest_key = if self.options.tesla {
            // The combined .tesla file was just regenerated: every
            // object is considered stale.
            self.build_seq += 1;
            self.build_seq
        } else {
            0
        };
        let mut modules: Vec<Arc<Module>> = Vec::with_capacity(self.project.units.len());
        // The paper's implementation "re-load[s], re-pars[es], and
        // re-interpret[s] the same TESLA automaton description for
        // every LLVM IR file it instruments" (§7) — reproduce that
        // honestly: each stale unit re-reads the merged .tesla text.
        let mut manifest_text: Option<String> = None;
        for u in &self.project.units {
            let unit = &self.unit_cache[&u.file];
            let cached = self
                .object_cache
                .get(&u.file)
                .filter(|(sfp, mfp, _)| *sfp == unit.source_fp && *mfp == manifest_key);
            if let Some((_, _, obj)) = cached {
                modules.push(Arc::clone(obj));
                continue;
            }
            let mut m;
            if self.options.tesla {
                // The TESLA workflow adds pipeline stages (§5.1):
                // clang emits IR, the standalone instrumenter re-reads
                // it, instruments, writes it back, and opt re-reads
                // that. Model the two extra IR round-trips honestly.
                let text = manifest_text.get_or_insert_with(|| crate::manifest::to_tesla(manifest));
                m = self.weave_unit_naive(&unit.output, text, elided, stats)?;
            } else {
                // Without the TESLA toolchain the assertion macros
                // expand to nothing: drop the placeholders.
                m = unit.output.module.clone();
                for f in &mut m.functions {
                    for b in &mut f.blocks {
                        b.insts
                            .retain(|i| !matches!(i, tesla_ir::Inst::TeslaPseudoAssert { .. }));
                    }
                }
            }
            optimise(&mut m);
            stats.object_bytes += emit_object(&m);
            let m = Arc::new(m);
            self.object_cache.insert(
                u.file.clone(),
                (unit.source_fp, manifest_key, Arc::clone(&m)),
            );
            modules.push(m);
        }
        Ok(modules)
    }

    /// Delta back-end: build the weave plan once through the shared
    /// compile cache (or reuse the kept one), key each unit by the plan
    /// slice that can touch it, and re-weave only stale units — in
    /// parallel. No IR round-trips, no manifest re-parse: the woven
    /// output is identical to the naive path's because the round-trips
    /// are serialisation identities (see `tests/build_modes.rs`).
    fn backend_delta(
        &mut self,
        manifest: &Manifest,
        elided: &HashSet<u32>,
        stats: &mut BuildStats,
    ) -> Result<Vec<Arc<Module>>, BuildError> {
        let plan = self.delta_plan(elided)?;
        let own_index = &self
            .merged
            .as_ref()
            .expect("the merged manifest is built before the back-end")
            .own;

        // Partition into cache hits and stale units.
        let mut modules: Vec<Option<Arc<Module>>> = vec![None; self.project.units.len()];
        let mut stale: Vec<(usize, String, u64, u64)> = Vec::new();
        for (idx, u) in self.project.units.iter().enumerate() {
            let unit = &self.unit_cache[&u.file];
            let own = own_index.get(&u.file).map_or(&[][..], Vec::as_slice);
            let key = delta_key(&plan, &unit.touch, own, elided);
            match self
                .object_cache
                .get(&u.file)
                .filter(|(sfp, dkey, _)| *sfp == unit.source_fp && *dkey == key)
            {
                Some((_, _, obj)) => modules[idx] = Some(Arc::clone(obj)),
                None => stale.push((idx, u.file.clone(), unit.source_fp, key)),
            }
        }

        // Re-weave stale units across worker threads. Everything the
        // workers read (pristine modules, manifest, plan) is immutable
        // here; results are folded back in unit order so error
        // reporting matches the serial toolchain.
        let unit_cache = &self.unit_cache;
        let woven = parallel_map(stale, self.effective_jobs(), |(idx, file, src_fp, key)| {
            let mut m = unit_cache[&file].output.module.clone();
            let st = instrument_precompiled(&mut m, manifest, &plan, elided)
                .map_err(BuildError::Instrument)?;
            optimise(&mut m);
            let object_bytes = emit_object(&m);
            Ok::<_, BuildError>((
                idx,
                file,
                src_fp,
                key,
                WovenUnit {
                    module: Arc::new(m),
                    stats: st,
                    object_bytes,
                },
            ))
        });
        for result in woven {
            let (idx, file, src_fp, key, unit) = result?;
            stats.instrumented_units += 1;
            stats.hooks_inserted += unit.stats.entry_hooks
                + unit.stats.exit_hooks
                + unit.stats.call_site_hooks
                + unit.stats.field_hooks;
            stats.sites_elided += unit.stats.sites_elided;
            stats.object_bytes += unit.object_bytes;
            self.object_cache
                .insert(file, (src_fp, key, Arc::clone(&unit.module)));
            modules[idx] = Some(unit.module);
        }
        Ok(modules
            .into_iter()
            .map(|m| m.expect("every unit is cached or woven"))
            .collect())
    }
}

/// Run a built program under the interpreter with a libtesla engine
/// attached: registers the manifest's automata and bridges hooks.
///
/// # Errors
///
/// Returns the interpreter error (including TESLA violations) as a
/// string.
pub fn run_with_tesla(
    artifacts: &BuildArtifacts,
    tesla: &Tesla,
    entry: &str,
    args: &[i64],
    fuel: u64,
) -> Result<i64, String> {
    // Register once per engine: repeated runs reuse the classes whose
    // ids the instrumenter baked into `TeslaSite` instructions.
    // `register_manifest` registers the whole manifest as one batch,
    // so the engine publishes a single dispatch snapshot — hooks on
    // other threads see either no classes or all of them, never a
    // partially registered manifest.
    if tesla.n_classes() == 0 {
        register_manifest_cached(tesla, &artifacts.manifest, &artifacts.compile_cache)?;
    }
    // Surface the static checker's elision work in the run's metrics:
    // `tesla_sites_elided` in a Prometheus scrape is the count of
    // instrumentation sites this very build proved unnecessary.
    tesla
        .metrics()
        .set_sites_elided(artifacts.stats.sites_elided as u64);
    let mut sink = RuntimeSink::new(tesla);
    let mut interp = Interp::new(&artifacts.program, fuel);
    interp
        .run_named(entry, args, &mut sink)
        .map_err(|e| e.to_string())
}

/// [`run_with_tesla`], with every hook event teed into a JSONL trace
/// (the `tesla run --record` path). The trace is finalised even when
/// the run fail-stops, so a violating run's offending event is the
/// recording's last line and `tesla replay` reproduces the verdict.
///
/// # Errors
///
/// The interpreter error (including TESLA violations), or a trace
/// write failure, as a string.
pub fn run_with_tesla_recorded(
    artifacts: &BuildArtifacts,
    tesla: &Tesla,
    entry: &str,
    args: &[i64],
    fuel: u64,
    trace_out: &mut dyn std::io::Write,
) -> Result<i64, String> {
    if tesla.n_classes() == 0 {
        register_manifest_cached(tesla, &artifacts.manifest, &artifacts.compile_cache)?;
    }
    tesla
        .metrics()
        .set_sites_elided(artifacts.stats.sites_elided as u64);
    let mut sink = RecordingSink::new(RuntimeSink::new(tesla), trace_out);
    let mut interp = Interp::new(&artifacts.program, fuel);
    let run = interp
        .run_named(entry, args, &mut sink)
        .map_err(|e| e.to_string());
    let finished = sink.finish().map(|_| ());
    let value = run?;
    finished?;
    Ok(value)
}

/// Why a replay failed: setup (build/registration) versus the event
/// stream itself.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// Registering the manifest's automata failed.
    Setup(String),
    /// The drain stopped: transport/framing failure or a violation.
    Drive(DriveError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Setup(e) => write!(f, "{e}"),
            ReplayError::Drive(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Drive a recorded or live event stream into a libtesla engine
/// against the same build artifacts a live run would use: the
/// `tesla replay` / `tesla attach` path. Registration and metrics
/// seeding match [`run_with_tesla`] exactly, so a replayed run's
/// verdicts and counters are comparable byte for byte with the live
/// run that produced the trace.
///
/// # Errors
///
/// [`ReplayError`] — registration failures, positioned stream
/// diagnostics, or the first violation (in fail-stop mode).
pub fn replay_with_tesla(
    artifacts: &BuildArtifacts,
    tesla: &Tesla,
    source: &mut dyn EventSource,
) -> Result<IngressStats, ReplayError> {
    if tesla.n_classes() == 0 {
        register_manifest_cached(tesla, &artifacts.manifest, &artifacts.compile_cache)
            .map_err(ReplayError::Setup)?;
    }
    tesla
        .metrics()
        .set_sites_elided(artifacts.stats.sites_elided as u64);
    tesla.drive(source).map_err(ReplayError::Drive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_ir::NullSink;

    fn two_unit_project() -> Project {
        Project::from_sources(&[
            (
                "lib.c",
                "int check(int x) { return 0; }\n\
                 int helper(int x) { return x + 1; }",
            ),
            (
                "main.c",
                "int check(int x);\n\
                 int helper(int x);\n\
                 int main(int x) {\n\
                     check(x);\n\
                     TESLA_WITHIN(main, previously(check(x) == 0));\n\
                     return helper(x);\n\
                 }",
            ),
        ])
    }

    #[test]
    fn default_build_runs_without_tesla_stages() {
        let mut bs = BuildSystem::new(
            Project::from_sources(&[("a.c", "int main(int x) { return x * 2; }")]),
            BuildOptions::default_toolchain(),
        );
        let art = bs.build().unwrap();
        assert_eq!(art.stats.instrumented_units, 0);
        let mut i = Interp::new(&art.program, 10_000);
        assert_eq!(i.run_named("main", &[21], &mut NullSink).unwrap(), 42);
    }

    #[test]
    fn tesla_build_instruments_and_enforces() {
        let mut bs = BuildSystem::new(two_unit_project(), BuildOptions::tesla_toolchain());
        let art = bs.build().unwrap();
        assert_eq!(art.stats.compiled_units, 2);
        assert_eq!(art.stats.instrumented_units, 2);
        assert_eq!(art.manifest.entries.len(), 1);
        let t = Tesla::with_defaults();
        assert_eq!(run_with_tesla(&art, &t, "main", &[5], 100_000).unwrap(), 6);
        assert!(t.violations().is_empty());
    }

    #[test]
    fn violation_surfaces_through_the_pipeline() {
        let mut bs = BuildSystem::new(
            Project::from_sources(&[(
                "main.c",
                "int check(int x) { return 1; }\n\
                 int main(int x) {\n\
                     check(x);\n\
                     TESLA_WITHIN(main, previously(check(x) == 0));\n\
                     return 0;\n\
                 }",
            )]),
            BuildOptions::tesla_toolchain(),
        );
        let art = bs.build().unwrap();
        let t = Tesla::with_defaults();
        let err = run_with_tesla(&art, &t, "main", &[5], 100_000).unwrap_err();
        assert!(err.contains("TESLA"), "{err}");
    }

    #[test]
    fn recorded_pipeline_run_replays_identically() {
        use tesla_runtime::telemetry::export;
        use tesla_runtime::JsonlSource;

        // Passing and violating programs: both must round-trip.
        for (check_ret, violates) in [(0i64, false), (1, true)] {
            let mut bs = BuildSystem::new(
                Project::from_sources(&[(
                    "main.c",
                    &format!(
                        "int check(int x) {{ return {check_ret}; }}\n\
                         int main(int x) {{\n\
                             check(x);\n\
                             TESLA_WITHIN(main, previously(check(x) == 0));\n\
                             return 0;\n\
                         }}"
                    ),
                )]),
                BuildOptions::tesla_toolchain(),
            );
            let art = bs.build().unwrap();

            // Live run in Log mode (drains fully even when violating),
            // teed to an in-memory trace.
            let live = Tesla::new(tesla_runtime::Config {
                fail_mode: tesla_runtime::FailMode::Log,
                ..tesla_runtime::Config::default()
            });
            let mut trace = Vec::new();
            run_with_tesla_recorded(&art, &live, "main", &[5], 100_000, &mut trace).unwrap();
            assert_eq!(live.violations().len(), usize::from(violates));

            // Replay into a fresh engine through the pipeline's replay
            // entry point: identical violations and counters.
            let replayed = Tesla::new(tesla_runtime::Config {
                fail_mode: tesla_runtime::FailMode::Log,
                ..tesla_runtime::Config::default()
            });
            let mut src = JsonlSource::new(&trace[..]);
            let stats = replay_with_tesla(&art, &replayed, &mut src).unwrap();
            assert!(stats.events > 0);

            let viols = |t: &Tesla| {
                t.violations()
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
            };
            assert_eq!(viols(&live), viols(&replayed));
            // Latency-free counter exports are byte-identical: the
            // replay drove the very same event stream.
            assert_eq!(
                export::json_counters(&live.metrics().snapshot()),
                export::json_counters(&replayed.metrics().snapshot())
            );
        }
    }

    #[test]
    fn malformed_trace_is_a_positioned_replay_error() {
        let mut bs = BuildSystem::new(two_unit_project(), BuildOptions::tesla_toolchain());
        let art = bs.build().unwrap();
        let t = Tesla::with_defaults();
        let text = format!(
            "{}\n{{\"ev\":\"fn_entry\",\"fn\":\"main\",\"args\":[5]}}\nnot json\n",
            tesla_runtime::ingress::TRACE_HEADER
        );
        let mut src = tesla_runtime::JsonlSource::new(text.as_bytes());
        match replay_with_tesla(&art, &t, &mut src).unwrap_err() {
            ReplayError::Drive(DriveError::Source(
                tesla_runtime::IngressError::Input(e),
                stats,
            )) => {
                assert_eq!(e.pos.line, 3);
                assert_eq!(stats.events, 1);
            }
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn incremental_default_recompiles_only_dirty() {
        let mut bs = BuildSystem::new(two_unit_project(), BuildOptions::default_toolchain());
        bs.build().unwrap();
        bs.touch("lib.c");
        let art = bs.build().unwrap();
        assert_eq!(art.stats.compiled_units, 1);
        assert_eq!(art.stats.instrumented_units, 0);
    }

    #[test]
    fn incremental_tesla_naively_reinstruments_everything() {
        let mut bs = BuildSystem::new(two_unit_project(), BuildOptions::tesla_toolchain());
        bs.build().unwrap();
        bs.touch("lib.c");
        let art = bs.build().unwrap();
        // One unit recompiled, but *all* units re-instrumented.
        assert_eq!(art.stats.compiled_units, 1);
        assert_eq!(art.stats.instrumented_units, 2);
    }

    #[test]
    fn no_op_build_is_fully_cached() {
        let mut bs = BuildSystem::new(two_unit_project(), BuildOptions::default_toolchain());
        bs.build().unwrap();
        let art = bs.build().unwrap();
        assert_eq!(art.stats.compiled_units, 0);
    }

    #[test]
    fn delta_build_instruments_and_enforces() {
        let mut bs = BuildSystem::new(two_unit_project(), BuildOptions::delta_toolchain());
        let art = bs.build().unwrap();
        assert_eq!(art.stats.compiled_units, 2);
        assert_eq!(art.stats.instrumented_units, 2);
        let t = Tesla::with_defaults();
        assert_eq!(run_with_tesla(&art, &t, "main", &[5], 100_000).unwrap(), 6);
        assert!(t.violations().is_empty());
        // One assertion, compiled exactly once.
        assert_eq!(bs.compile_cache().misses(), 1);
    }

    #[test]
    fn delta_touch_of_unrelated_unit_reweaves_only_it() {
        let mut bs = BuildSystem::new(two_unit_project(), BuildOptions::delta_toolchain());
        bs.build().unwrap();
        bs.touch("lib.c");
        let art = bs.build().unwrap();
        // `lib.c` recompiled and re-woven (its source changed); the
        // plan it sees is unchanged, so main.c's object is reused.
        assert_eq!(art.stats.compiled_units, 1);
        assert_eq!(art.stats.instrumented_units, 1);
    }

    #[test]
    fn delta_noop_rebuild_is_fully_cached() {
        let mut bs = BuildSystem::new(two_unit_project(), BuildOptions::delta_toolchain());
        bs.build().unwrap();
        let (hits, misses) = (bs.compile_cache().hits(), bs.compile_cache().misses());
        let art = bs.build().unwrap();
        assert_eq!(art.stats.compiled_units, 0);
        assert_eq!(art.stats.instrumented_units, 0);
        // The rebuild kept the merged manifest and its weave plan, so it
        // made no compile-cache lookup at all.
        assert_eq!(bs.compile_cache().hits(), hits);
        assert_eq!(bs.compile_cache().misses(), misses);
    }

    #[test]
    fn delta_cutoff_holds_until_an_assertion_changes() {
        let mut bs = BuildSystem::new(two_unit_project(), BuildOptions::delta_toolchain());
        let first = bs.build().unwrap();
        let lookups = |bs: &BuildSystem| bs.compile_cache().hits() + bs.compile_cache().misses();

        // A comment-only edit recompiles the unit to an equal manifest:
        // the merged manifest and the plan are reused as they are.
        let before = lookups(&bs);
        bs.touch("main.c");
        let touched = bs.build().unwrap();
        assert_eq!(touched.stats.compiled_units, 1);
        assert_eq!(touched.stats.instrumented_units, 1);
        assert_eq!(lookups(&bs), before, "a comment edit looked automata up");
        assert!(Arc::ptr_eq(&first.manifest, &touched.manifest));

        // An assertion edit drops both: a new manifest, and one compile
        // for the one assertion that changed.
        let main = two_unit_project().units[1]
            .source
            .replace("check(x) == 0", "check(x) == 1");
        let misses = bs.compile_cache().misses();
        bs.edit("main.c", &main);
        let edited = bs.build().unwrap();
        assert!(!Arc::ptr_eq(&touched.manifest, &edited.manifest));
        assert_ne!(*touched.manifest, *edited.manifest);
        assert_eq!(bs.compile_cache().misses(), misses + 1);
        assert_eq!(lookups(&bs), before + 1);
    }

    /// A comment-only edit relinks the other units' assertions by
    /// pointer: every linked assertion from an unchanged unit is the
    /// clean build's own `Arc`, and only the edited unit's are fresh.
    /// The naive toolchain round-trips every unit's IR, so it shares
    /// none.
    #[test]
    fn comment_edit_relinks_unchanged_units_assertions_by_pointer() {
        let edited = "subsys/unit3.c";
        for (options, shares) in [
            (BuildOptions::delta_toolchain(), true),
            (BuildOptions::default_toolchain(), true),
            (BuildOptions::tesla_toolchain(), false),
        ] {
            let mut bs = BuildSystem::new(crate::corpus::kernel_like(20, 85), options);
            let clean = bs.build().unwrap();
            bs.touch(edited);
            let rebuilt = bs.build().unwrap();
            let (before, after) = (&clean.program.assertions, &rebuilt.program.assertions);
            assert_eq!(before.len(), 85);
            assert_eq!(before, after);
            let mut own = 0;
            for (i, (b, a)) in before.iter().zip(after).enumerate() {
                let same = Arc::ptr_eq(&b.assertion, &a.assertion);
                if a.assertion.loc.file == edited {
                    own += 1;
                    assert!(!same, "{options:?}: edited unit's assertion {i} is shared");
                } else {
                    assert_eq!(same, shares, "{options:?}: assertion {i}");
                }
            }
            assert!(own > 0, "the edited unit carries assertions");
        }
    }

    #[test]
    fn delta_serial_and_parallel_agree() {
        let mut serial = BuildSystem::new(
            two_unit_project(),
            BuildOptions {
                jobs: 1,
                ..BuildOptions::delta_toolchain()
            },
        );
        let mut parallel = BuildSystem::new(
            two_unit_project(),
            BuildOptions {
                jobs: 4,
                ..BuildOptions::delta_toolchain()
            },
        );
        let a = serial.build().unwrap();
        let b = parallel.build().unwrap();
        assert_eq!(a.program, b.program);
        assert_eq!(a.stats, b.stats);
    }
}
